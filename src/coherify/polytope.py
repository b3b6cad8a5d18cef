"""Cliques, logical relations, and their coherent polytopes.

A clique ties ``m`` Bernoulli questions together through one logical
relation. Its coherent set -- the probability vectors realizable as
marginals of some distribution over outcome vectors consistent with the
relation -- is a closed convex polytope inside the unit box. We keep an
explicit equality/halfspace description for projection work and the exact
0/1 vertex list of each kind, in closed form, for small ``m``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .jsonio import json_field

ENUMERATION_LIMIT = 12  # the largest m whose vertices are listed
MEMBERSHIP_TOL = 1e-8


class RelationKind(str, Enum):
    NEGATION = "neg"
    CONJUNCTION = "and"
    DISJUNCTION = "or"
    PARTITION = "partition"
    LADDER = "ladder"
    PARAPHRASE = "paraphrase"


_FIXED_ARITY = {
    RelationKind.NEGATION: 2,
    RelationKind.CONJUNCTION: 3,
    RelationKind.DISJUNCTION: 3,
}
_MIN_ARITY = 2  # of every variable-arity kind


@dataclass(frozen=True)
class Relation:
    """A relation kind plus its arity ``m``."""

    kind: RelationKind
    m: int

    def __post_init__(self):
        kind = RelationKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in _FIXED_ARITY:
            if self.m != _FIXED_ARITY[kind]:
                raise ValueError(f"{kind.value} requires m={_FIXED_ARITY[kind]}, got m={self.m}")
        elif self.m < _MIN_ARITY:
            raise ValueError(f"{kind.value} requires m>={_MIN_ARITY}, got m={self.m}")


def negation() -> Relation:
    return Relation(RelationKind.NEGATION, 2)


def conjunction() -> Relation:
    return Relation(RelationKind.CONJUNCTION, 3)


def disjunction() -> Relation:
    return Relation(RelationKind.DISJUNCTION, 3)


def partition(m: int) -> Relation:
    return Relation(RelationKind.PARTITION, m)


def ladder(m: int) -> Relation:
    return Relation(RelationKind.LADDER, m)


def paraphrase(m: int) -> Relation:
    return Relation(RelationKind.PARAPHRASE, m)


@dataclass(frozen=True)
class Clique:
    """Questions plus the relation that couples them; texts are metadata."""

    id: str
    relation: Relation
    question_texts: tuple[str, ...] = ()
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.question_texts and len(self.question_texts) != self.relation.m:
            raise ValueError("question_texts length must equal relation arity")
        if self.labels is not None:
            labels = tuple(int(v) for v in self.labels)
            if len(labels) != self.relation.m:
                raise ValueError("labels length must equal relation arity")
            if any(v not in (0, 1) for v in labels):
                raise ValueError("labels must be 0/1")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_json(cls, record: dict) -> "Clique":
        return cls(
            id=json_field(record, "id", str),
            relation=Relation(json_field(record, "relation", str), json_field(record, "m", int)),
            question_texts=tuple(json_field(record, "questions", [str], ())),
            labels=json_field(record, "labels", [int], None),
        )

    def to_json(self) -> dict:
        record = {
            "id": self.id,
            "relation": self.relation.kind.value,
            "m": self.relation.m,
            "questions": list(self.question_texts),
        }
        if self.labels is not None:
            record["labels"] = list(self.labels)
        return record


@dataclass(frozen=True)
class LinearConstraint:
    """One row of a constraint system: ``a . r = b`` or ``a . r <= b``."""

    a: tuple[float, ...]
    b: float
    name: str


@dataclass(frozen=True)
class PolytopeSpec:
    """Equality/halfspace description of a coherent set over the unit box.

    ``halfspaces`` rows mean ``a . r <= b``; the box ``[0,1]^dim`` is
    implicit. ``relation`` records provenance so callers can dispatch to
    closed-form projections. ``A`` and ``b`` stack every constraint,
    equalities first, as read-only arrays.
    """

    dim: int
    equalities: tuple[LinearConstraint, ...] = ()
    halfspaces: tuple[LinearConstraint, ...] = ()
    relation: Relation | None = None
    A: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        constraints = self.equalities + self.halfspaces
        for c in constraints:
            if len(c.a) != self.dim:
                raise ValueError(f"constraint {c.name} has wrong dimension")
            if not any(c.a):
                raise ValueError(f"constraint {c.name} has zero normal")
        A = np.array([c.a for c in constraints], dtype=float).reshape(len(constraints), self.dim)
        b = np.array([c.b for c in constraints], dtype=float)
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def gaps(self, X) -> np.ndarray:
        """Equality gaps ``|a . x - b|`` then halfspace excesses ``max(a . x - b, 0)``.

        One entry per constraint, in the order of ``A``, for each point in
        ``X`` (shape ``(..., dim)`` -> ``(..., n_constraints)``); the box is
        not included. NaN coordinates give NaN gaps.
        """
        g = np.asarray(X, dtype=float) @ self.A.T - self.b
        k = len(self.equalities)
        if k:
            np.abs(g[..., :k], out=g[..., :k])
        if self.halfspaces:
            np.maximum(g[..., k:], 0.0, out=g[..., k:])
        return g

    def _excesses(self, X) -> np.ndarray:
        """Every constraint's violation at each row of ``X``, box included, as one array.

        Columns: the ``gaps`` entries, then ``r_i >= 0`` and ``r_i <= 1`` for
        each coordinate in turn, named by ``_names``. A NaN coordinate
        violates nothing.
        """
        X = np.asarray(X, dtype=float)
        box = np.empty((len(X), 2 * self.dim))
        np.negative(X, out=box[:, 0::2])
        np.subtract(X, 1.0, out=box[:, 1::2])
        return np.fmax(np.concatenate((self.gaps(X), box), axis=1), 0.0)

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.equalities + self.halfspaces) + tuple(
            f"box:r{i}{side}" for i in range(1, self.dim + 1) for side in (">=0", "<=1"))

    def violated_rows(self, X, tol: float) -> list[tuple[str, ...]]:
        """For each row of ``X``, the names of every constraint (box included) it
        violates by more than ``tol``."""
        hits = (self._excesses(X) > tol).tolist()
        return [tuple(itertools.compress(self._names, row)) for row in hits]

    def most_violated_rows(self, X) -> list[str | None]:
        """For each row of ``X``, the name of the constraint (box included) it
        violates most, if by more than 1e-12.

        Ties go to the first constraint in ``_excesses`` order.
        """
        E = self._excesses(X)
        top = E.argmax(axis=1)
        return [self._names[k] if e > 1e-12 else None
                for k, e in zip(top.tolist(), E[np.arange(len(E)), top].tolist())]

    def most_violated(self, q) -> str | None:
        """``most_violated_rows`` of the one point ``q``."""
        return self.most_violated_rows(np.asarray(q, dtype=float)[None, :])[0]

    def violated(self, q, tol: float) -> tuple[str, ...]:
        """``violated_rows`` of the one point ``q``."""
        return self.violated_rows(np.asarray(q, dtype=float)[None, :], tol)[0]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the compared fields, worked out once per spec."""
        return hash((self.dim, self.equalities, self.halfspaces, self.relation))


@dataclass(frozen=True)
class VertexSet:
    """The 0/1 outcome vectors consistent with a relation."""

    vertices: tuple[tuple[int, ...], ...]

    def as_array(self) -> np.ndarray:
        arr = np.array(self.vertices, dtype=float)
        arr.setflags(write=False)
        return arr

    def __len__(self) -> int:
        return len(self.vertices)


@lru_cache(maxsize=None)
def free_box(dim: int) -> PolytopeSpec:
    """The box ``[0,1]^dim`` with no constraints, one shared spec per dimension."""
    return PolytopeSpec(dim=dim)


def _unit(dim: int, entries: dict[int, float]) -> tuple[float, ...]:
    a = [0.0] * dim
    for i, v in entries.items():
        a[i] = v
    return tuple(a)


def build_polytope(relation: Relation) -> PolytopeSpec:
    """Materialize the coherent polytope of a relation as constraints.

    negation: r1 + r2 = 1.  conjunction/disjunction: the two-sided
    Frechet bounds on the third coordinate.  partition: unit total mass.
    ladder: non-increasing chain.  paraphrase: all coordinates equal.
    """
    m = relation.m
    kind = relation.kind
    eqs: list[LinearConstraint] = []
    hss: list[LinearConstraint] = []
    if kind is RelationKind.NEGATION:
        eqs.append(LinearConstraint((1.0, 1.0), 1.0, "neg:r1+r2=1"))
    elif kind is RelationKind.CONJUNCTION:
        hss.append(LinearConstraint((-1.0, 0.0, 1.0), 0.0, "and:r3<=r1"))
        hss.append(LinearConstraint((0.0, -1.0, 1.0), 0.0, "and:r3<=r2"))
        hss.append(LinearConstraint((1.0, 1.0, -1.0), 1.0, "and:r1+r2-r3<=1"))
        hss.append(LinearConstraint((0.0, 0.0, -1.0), 0.0, "and:r3>=0"))
    elif kind is RelationKind.DISJUNCTION:
        hss.append(LinearConstraint((1.0, 0.0, -1.0), 0.0, "or:r1<=r3"))
        hss.append(LinearConstraint((0.0, 1.0, -1.0), 0.0, "or:r2<=r3"))
        hss.append(LinearConstraint((-1.0, -1.0, 1.0), 0.0, "or:r3<=r1+r2"))
    elif kind is RelationKind.PARTITION:
        eqs.append(LinearConstraint(tuple([1.0] * m), 1.0, "partition:sum=1"))
    elif kind is RelationKind.LADDER:
        for i in range(m - 1):
            hss.append(
                LinearConstraint(_unit(m, {i: -1.0, i + 1: 1.0}), 0.0, f"ladder:r{i + 2}<=r{i + 1}")
            )
    elif kind is RelationKind.PARAPHRASE:
        for i in range(m - 1):
            eqs.append(
                LinearConstraint(_unit(m, {i: 1.0, i + 1: -1.0}), 0.0, f"paraphrase:r{i + 1}=r{i + 2}")
            )
    else:  # pragma: no cover
        raise ValueError(f"unsupported relation kind {kind}")
    return PolytopeSpec(dim=m, equalities=tuple(eqs), halfspaces=tuple(hss), relation=relation)


def is_member(spec: PolytopeSpec, q, tol: float = MEMBERSHIP_TOL) -> bool:
    """Inside the box within ``tol`` and every constraint gap at most ``tol``; NaN never is."""
    q = np.asarray(q, dtype=float)
    if q.shape != (spec.dim,):
        raise ValueError(f"quote has dimension {q.shape}, polytope needs ({spec.dim},)")
    # NaN fails every comparison, so a quote with a NaN entry is never a member
    in_box = ((q >= -tol) & (q <= 1.0 + tol)).all()
    return bool(in_box and spec.gaps(q).max(initial=0.0) <= tol)


def enumerate_vertices(relation: Relation) -> VertexSet:
    """The 0/1 outcomes the relation admits, each kind's listed in closed form, in the
    order of a scan of ``itertools.product((0, 1), repeat=m)``."""
    m = relation.m
    if m > ENUMERATION_LIMIT:
        raise ValueError(f"m={m} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    kind = relation.kind
    if kind is RelationKind.NEGATION:
        vertices = ((0, 1), (1, 0))
    elif kind is RelationKind.CONJUNCTION:  # r3 = r1 and r2
        vertices = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    elif kind is RelationKind.DISJUNCTION:  # r3 = r1 or r2
        vertices = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    elif kind is RelationKind.PARTITION:  # one 1, the last coordinate's first
        vertices = tuple((0,) * i + (1,) + (0,) * (m - 1 - i) for i in reversed(range(m)))
    elif kind is RelationKind.LADDER:  # a run of leading 1s, the shortest first
        vertices = tuple((1,) * i + (0,) * (m - i) for i in range(m + 1))
    else:  # paraphrase: all 0 or all 1
        vertices = ((0,) * m, (1,) * m)
    return VertexSet(vertices)
