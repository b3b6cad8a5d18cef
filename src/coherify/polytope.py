"""Cliques, logical relations, and their coherent polytopes.

A clique ties ``m`` Bernoulli questions together through one logical
relation. Its coherent set -- the probability vectors realizable as
marginals of some distribution over outcome vectors consistent with the
relation -- is a closed convex polytope inside the unit box. We keep an
explicit equality/halfspace description for projection work and an exact
0/1 vertex enumeration for small ``m`` as the independent ground truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .jsonio import json_field

ENUMERATION_LIMIT = 12  # 2^m outcome scan beyond this is off the table
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

    def _excesses(self, q) -> np.ndarray:
        """Every constraint's violation at one point, box included, as one array.

        Order: the ``gaps`` entries, then ``r_i >= 0`` and ``r_i <= 1`` for
        each coordinate in turn; ``_name`` names each entry. A NaN
        coordinate violates nothing.
        """
        q = np.asarray(q, dtype=float)
        box = np.empty(2 * q.size)
        np.negative(q, out=box[0::2])
        np.subtract(q, 1.0, out=box[1::2])
        return np.fmax(np.concatenate((self.gaps(q), box)), 0.0)

    def _name(self, k: int) -> str:
        n_eq = len(self.equalities)
        if k < n_eq:
            return self.equalities[k].name
        if k < len(self.A):
            return self.halfspaces[k - n_eq].name
        i, upper = divmod(k - len(self.A), 2)
        return f"box:r{i + 1}<=1" if upper else f"box:r{i + 1}>=0"

    def most_violated(self, q) -> str | None:
        """Name of the constraint (box included) ``q`` violates most, if by more than 1e-12.

        Ties go to the first constraint in ``_excesses`` order.
        """
        e = self._excesses(q)
        k = int(np.argmax(e))
        return self._name(k) if e[k] > 1e-12 else None

    def violated(self, q, tol: float) -> tuple[str, ...]:
        """Names of every constraint (box included) ``q`` violates by more than ``tol``."""
        return tuple(self._name(k) for k in (self._excesses(q) > tol).nonzero()[0].tolist())


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


def outcome_consistent(kind: RelationKind, y: tuple[int, ...]) -> bool:
    if kind is RelationKind.NEGATION:
        return y[0] + y[1] == 1
    if kind is RelationKind.CONJUNCTION:
        return y[2] == (y[0] & y[1])
    if kind is RelationKind.DISJUNCTION:
        return y[2] == (y[0] | y[1])
    if kind is RelationKind.PARTITION:
        return sum(y) == 1
    if kind is RelationKind.LADDER:
        return all(y[i + 1] <= y[i] for i in range(len(y) - 1))
    if kind is RelationKind.PARAPHRASE:
        return len(set(y)) == 1
    raise ValueError(f"unsupported relation kind {kind}")  # pragma: no cover


def enumerate_vertices(relation: Relation) -> VertexSet:
    """Scan {0,1}^m for the outcomes the relation admits."""
    if relation.m > ENUMERATION_LIMIT:
        raise ValueError(f"m={relation.m} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    vertices = tuple(
        y for y in itertools.product((0, 1), repeat=relation.m) if outcome_consistent(relation.kind, y)
    )
    return VertexSet(vertices)
