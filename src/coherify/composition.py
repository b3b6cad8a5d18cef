"""Owner-selected composition of component quotes and its coherence certificate.

Each joint coordinate is owned by exactly one component; aggregation just
selects the owner's value. The joint coherent set is the intersection of
every component polytope (lifted to the joint coordinates) with the
cross-component coupling cuts. The certificate reports the L2 distance
from the locally repaired composition to that set, the matching
worst-case payout bound sqrt(m*) times the distance, the repaired quote,
and, named on first read, the constraints that were binding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .jsonio import json_field
from .polytope import (
    LinearConstraint,
    PolytopeSpec,
    Relation,
    RelationKind,
    _unit,
    enumerate_vertices,
    is_member,
)
from .projection import (
    RESIDUAL_FLOOR,
    InfeasibleCouplingError,
    _coupled_halfspaces,
    _hierarchical_cycle,
    _project_locals,
    _unconverged,
    project_relation_batch,
)

PRODUCT_VERTEX_LIMIT = 4096
SYSTEM_CACHE_SIZE = 256  # constraint systems kept per process


class ProductStructuredError(ValueError):
    """Raised when a witness is requested for a product-structured composition."""


@dataclass(frozen=True)
class ComponentSpec:
    """A component's local polytope and the joint coordinates it owns."""

    polytope: PolytopeSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(int, self.coords)))
        if len(self.coords) != self.polytope.dim:
            raise ValueError("owned coordinate count must match the local polytope dimension")


_COUPLING_KINDS = frozenset(
    {"equality", "negation-sum", "partition-sum", "frechet-halfspace", "ladder-chain"}
)


@dataclass(frozen=True)
class CouplingConstraint:
    """One cross-component cut over joint coordinates.

    kinds: equality (all listed coordinates agree), negation-sum and
    partition-sum (listed coordinates sum to b), frechet-halfspace
    (a . r <= b with explicit normal over the listed coordinates),
    ladder-chain (non-increasing along the listed order).
    """

    kind: str
    coords: tuple[int, ...]
    b: float = 1.0
    a: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(set(coords)) < 2:
            raise ValueError("a coupling constraint must reference >= 2 distinct coordinates")
        if self.kind == "negation-sum" and len(coords) != 2:
            raise ValueError("negation-sum couples exactly 2 coordinates")
        if self.kind == "frechet-halfspace":
            if self.a is None or len(self.a) != len(coords):
                raise ValueError("frechet-halfspace needs an explicit normal over its coordinates")
            object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        elif self.a is not None:
            raise ValueError(f"{self.kind} does not take an explicit normal")

    def linear_rows(self, dim: int, name: str) -> tuple[list[LinearConstraint], bool]:
        """Materialize as constraints over the joint space, and whether they are equalities."""
        pairs = enumerate(zip(self.coords, self.coords[1:]))
        if self.kind == "equality":
            return [LinearConstraint(_unit(dim, {i: 1.0, j: -1.0}), 0.0, f"{name}:eq{t}")
                    for t, (i, j) in pairs], True
        if self.kind in ("negation-sum", "partition-sum"):
            a = _unit(dim, dict.fromkeys(self.coords, 1.0))
            return [LinearConstraint(a, self.b, f"{name}:sum")], True
        if self.kind == "frechet-halfspace":
            a = _unit(dim, dict(zip(self.coords, self.a)))
            return [LinearConstraint(a, self.b, f"{name}:hs")], False
        return [LinearConstraint(_unit(dim, {i: -1.0, j: 1.0}), 0.0, f"{name}:step{t}")
                for t, (i, j) in pairs], False  # ladder-chain

    def to_json(self) -> dict:
        record = {"kind": self.kind, "coords": list(self.coords), "b": self.b}
        if self.a is not None:
            record["a"] = list(self.a)
        return record

    @classmethod
    def from_json(cls, record: dict) -> "CouplingConstraint":
        return cls(
            kind=json_field(record, "kind", str),
            coords=json_field(record, "coords", [int]),
            b=json_field(record, "b", float, 1.0),
            a=json_field(record, "a", [float], None),
        )


@dataclass(frozen=True)
class CouplingSet:
    constraints: tuple[CouplingConstraint, ...] = ()

    def __len__(self) -> int:
        return len(self.constraints)


def relation_coupling(relation: Relation, coords) -> tuple[CouplingConstraint, ...]:
    """Express a catalog relation as coupling cuts over the given joint coordinates."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != relation.m:
        raise ValueError("coordinate count must match the relation arity")
    kind = relation.kind
    if kind is RelationKind.NEGATION:
        return (CouplingConstraint("negation-sum", coords, 1.0),)
    if kind is RelationKind.PARTITION:
        return (CouplingConstraint("partition-sum", coords, 1.0),)
    if kind is RelationKind.LADDER:
        return (CouplingConstraint("ladder-chain", coords),)
    if kind is RelationKind.PARAPHRASE:
        return (CouplingConstraint("equality", coords, 0.0),)
    # conjunction and disjunction: the Frechet bounds of the relation's own polytope
    return tuple(
        CouplingConstraint("frechet-halfspace", tuple(coords[j] for j in support), c.b,
                           a=tuple(c.a[j] for j in support))
        for support, c in _coupled_halfspaces(relation)
    )


_relation_coupling = lru_cache(maxsize=SYSTEM_CACHE_SIZE)(relation_coupling)  # tuple coords only

# the relation kinds whose ``relation_coupling`` ends with a cut of this kind
_CATALOG_KINDS = {
    "negation-sum": (RelationKind.NEGATION,),
    "partition-sum": (RelationKind.PARTITION,),
    "ladder-chain": (RelationKind.LADDER,),
    "equality": (RelationKind.PARAPHRASE,),
    "frechet-halfspace": (RelationKind.CONJUNCTION, RelationKind.DISJUNCTION),
}


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """What the joint projection of a composition reads, built once per system key.

    ``coupling`` holds the coupling cuts and ``joint`` the lifted local
    constraints plus those cuts. Compares and hashes by identity: one
    object per cached system key.
    """

    coupling: PolytopeSpec
    joint: PolytopeSpec


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def constraint_system(joint_dim: int, constrained: tuple, cuts: tuple) -> ConstraintSystem:
    """The constraint system of every composition with this system key.

    The key is everything the joint projection reads: the joint dimension,
    the constrained components (``CompositionSpec.constrained``) and the
    coupling cuts. Built once per key per process and kept in a bounded
    cache (``constraint_system.cache_clear()`` empties it); a malformed
    cut raises here and is not cached.
    """
    def lift(c: LinearConstraint, component: ComponentSpec, name: str) -> LinearConstraint:
        return LinearConstraint(_unit(joint_dim, dict(zip(component.coords, c.a))), c.b, name)

    eqs: list[LinearConstraint] = []
    hss: list[LinearConstraint] = []
    for idx, c in enumerate(cuts):
        rows, is_eq = c.linear_rows(joint_dim, f"c{idx}:{c.kind}")
        (eqs if is_eq else hss).extend(rows)
    coupling = PolytopeSpec(dim=joint_dim, equalities=tuple(eqs), halfspaces=tuple(hss))
    eqs, hss = [], []
    for a, component in constrained:
        local = component.polytope
        eqs += [lift(c, component, f"m{a}:{c.name}") for c in local.equalities]
        hss += [lift(c, component, f"m{a}:{c.name}") for c in local.halfspaces]
    joint = PolytopeSpec(dim=joint_dim, equalities=tuple(eqs) + coupling.equalities,
                         halfspaces=tuple(hss) + coupling.halfspaces)
    return ConstraintSystem(coupling, joint)


@dataclass
class CompositionSpec:
    """Components, ownership, and coupling over ``joint_dim`` coordinates.

    Treated as immutable after construction. The coupling and joint
    constraint systems come from the per-process ``constraint_system``
    cache; the other derived artifacts (product vertices, the single
    catalog relation) are cached properties.
    """

    components: tuple[ComponentSpec, ...]
    coupling: CouplingSet = CouplingSet()
    joint_dim: int = 0

    def __post_init__(self):
        self.components = tuple(self.components)
        if isinstance(self.coupling, (list, tuple)):
            self.coupling = CouplingSet(tuple(self.coupling))
        if self.joint_dim == 0:
            self.joint_dim = sum(len(c.coords) for c in self.components)
        unowned = set(range(self.joint_dim))
        for component in self.components:
            for j in component.coords:
                if j not in unowned:
                    raise ValueError(f"joint coordinate {j} owned twice" if 0 <= j < self.joint_dim
                                     else f"coordinate {j} outside the joint space")
                unowned.remove(j)
        if unowned:
            raise ValueError(f"joint coordinates {sorted(unowned)} have no owner")
        for c in self.coupling.constraints:
            if max(c.coords) >= self.joint_dim:
                raise ValueError("coupling constraint references coordinates outside the joint space")

    @cached_property
    def system(self) -> ConstraintSystem:
        """The composition's constraint system, from the per-process ``constraint_system`` cache."""
        return constraint_system(self.joint_dim, self.constrained, self.coupling.constraints)

    @property
    def coupling_polytope(self) -> PolytopeSpec:
        """The coupling cuts as one constraint system over the joint space."""
        return self.system.coupling

    @property
    def joint_polytope(self) -> PolytopeSpec:
        """The assembled joint constraint system: lifted locals plus coupling."""
        return self.system.joint

    @cached_property
    def constrained(self) -> tuple[tuple[int, ComponentSpec], ...]:
        """``(index, component)`` for every component that is not a free box."""
        return tuple((a, c) for a, c in enumerate(self.components)
                     if c.polytope.equalities or c.polytope.halfspaces)

    @cached_property
    def single_relation(self) -> tuple[Relation, tuple[int, ...]] | None:
        """``(relation, coords)`` when the joint set is one catalog polytope on ``coords``.

        That holds when the coupling is exactly ``relation_coupling(relation,
        coords)`` over distinct coordinates and every component is a free box
        or that relation's own polytope on ``coords``; the joint set is then
        the relation's polytope on ``coords`` times the box elsewhere.
        None otherwise.
        """
        cuts = self.coupling.constraints
        if not cuts:
            return None
        coords = cuts[-1].coords  # every catalog coupling ends with a cut over all its coordinates
        if len(set(coords)) != len(coords):
            return None
        for kind in _CATALOG_KINDS[cuts[-1].kind]:
            try:
                relation = Relation(kind, len(coords))
            except ValueError:
                continue
            if _relation_coupling(relation, coords) != cuts:
                continue
            if all((c.polytope.relation == relation and c.coords == coords)
                   or not (c.polytope.equalities or c.polytope.halfspaces)
                   for c in self.components):
                return relation, coords
            return None
        return None

    @cached_property
    def product_vertices(self) -> np.ndarray:
        """Vertices of the coupling-free product of lifted local polytopes."""
        per_component: list[np.ndarray] = []
        total = 1
        for component in self.components:
            if component.polytope.relation is not None:
                V = enumerate_vertices(component.polytope.relation).as_array()
            else:
                grid = np.array(list(itertools.product((0.0, 1.0), repeat=component.polytope.dim)))
                V = grid[np.all(component.polytope.gaps(grid) <= 1e-9, axis=1)]
            per_component.append(V)
            total *= len(V)
            if total > PRODUCT_VERTEX_LIMIT:
                raise ValueError(
                    f"product vertex count exceeds the enumeration bound {PRODUCT_VERTEX_LIMIT}"
                )
        out = np.zeros((total, self.joint_dim))
        for row, combo in enumerate(itertools.product(*per_component)):
            for component, v in zip(self.components, combo):
                out[row, list(component.coords)] = v
        return out

    def has_feasible_point(self) -> bool | None:
        """True when an integral consistent point certifies nonemptiness; None = unknown."""
        try:
            vertices = self.product_vertices
        except ValueError:
            return None
        feasible = np.all(self.coupling_polytope.gaps(vertices) <= 1e-9, axis=1)
        return True if np.any(feasible) else None


@dataclass(frozen=True, eq=False)
class Certificate:
    """Runtime coherence certificate for one composed quote.

    ``binding`` names the constraints of the joint set ``joint`` (box
    included) that ``composed`` violates by more than ``tol``; it is
    worked out on first read, so a caller that never reads it never pays
    for it. Certificates hold arrays, so ``==`` and ``hash`` go by
    identity; ``to_json()`` gives the values to compare.
    """

    epsilon_star: float
    exposure_bound: float
    repaired: np.ndarray
    inputs_locally_coherent: bool
    composed: np.ndarray
    joint: PolytopeSpec = field(repr=False)
    tol: float = field(repr=False)

    def __post_init__(self):
        self.repaired.setflags(write=False)
        self.composed.setflags(write=False)

    @cached_property
    def binding(self) -> tuple[str, ...]:
        return self.joint.violated(self.composed, self.tol)

    def to_json(self) -> dict:
        return {
            "eps_star": self.epsilon_star,
            "exposure_bound": self.exposure_bound,
            "repaired": [float(v) for v in self.repaired],
            "binding": list(self.binding),
        }


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _placement(layout: tuple) -> np.ndarray:
    """The index that puts quotes concatenated in component order into joint order.

    ``layout`` holds each component's coordinates; owners partition the
    joint coordinates, so together they are a permutation of them.
    """
    return np.array([j for coords in layout for j in coords]).argsort()


def _refuse_non_finite(quotes: list) -> None:
    for a, q in enumerate(quotes):
        if not np.isfinite(q).all():
            raise ValueError(f"component {a} quote has non-finite entries")


def aggregate(comp: CompositionSpec, locals_: list) -> np.ndarray:
    """Owner-selected assembly: joint coordinate j takes its owner's value.

    Refuses a wrong quote count, then, component by component, a quote of
    the wrong shape or with a non-finite entry. Shapes are checked per
    component and finiteness over all quotes at once; which component
    holds a non-finite entry is looked up only when one does.
    """
    components = comp.components
    if len(locals_) != len(components):
        raise ValueError(f"expected {len(components)} local quotes, got {len(locals_)}")
    quotes = []
    for a, (component, q) in enumerate(zip(components, locals_)):
        q = np.asarray(q, dtype=float)
        coords = component.coords
        if q.shape != (len(coords),):
            _refuse_non_finite(quotes)  # an earlier component's fault comes first
            raise ValueError(f"component {a} quote has shape {q.shape}, needs ({len(coords)},)")
        quotes.append(q)
    flat = np.concatenate(quotes) if quotes else np.zeros(0)
    if not np.isfinite(flat).all():
        _refuse_non_finite(quotes)
    return flat[_placement(tuple([c.coords for c in components]))]


def _composed(system: CompositionSpec, X: np.ndarray, repair_locals: bool, tol: float):
    """Assembled rows ``X``, locally repaired when ``repair_locals``, and whether each was coherent.

    A row's locals are coherent when the row is in the box and meets every
    constraint of ``system``'s constrained components within ``tol``.
    """
    coherent = np.logical_and.reduce((X >= -tol) & (X <= 1.0 + tol), axis=1)
    for _, component in system.constrained:
        coherent &= component.polytope.gaps(X[:, list(component.coords)]).max(axis=1) <= tol
    if repair_locals:
        X = _project_locals(system, X)
    return X, coherent.tolist()


def _joint_projection(comp: CompositionSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``X`` projected onto the joint set of ``comp``, and whether each converged.

    One catalog polytope times the box (``single_relation``) is exact: the
    clip, then ``project_relation_batch`` on its coordinates. Else the cycle.
    """
    if comp.single_relation is None:
        projected, _, converged = _hierarchical_cycle(comp, X)
        return projected, converged
    relation, coords = comp.single_relation
    projected = X.clip(0.0, 1.0)
    projected[:, coords] = project_relation_batch(relation, X[:, coords])
    return projected, np.ones(len(X), dtype=bool)


def _certificate(comp: CompositionSpec, x: np.ndarray, projected: np.ndarray,
                 locally_coherent: bool, tol: float) -> Certificate:
    d = x - projected
    distance = math.sqrt(d.dot(d))  # np.linalg.norm's own sum for a 1-D float64 vector
    eps = distance if distance >= RESIDUAL_FLOOR else 0.0
    return Certificate(
        epsilon_star=eps,
        exposure_bound=math.sqrt(comp.joint_dim) * eps,
        repaired=projected,
        inputs_locally_coherent=locally_coherent,
        composed=x,
        joint=comp.joint_polytope,
        tol=tol,
    )


def residual(comp: CompositionSpec, locals_: list, repair_locals: bool = True,
             tol: float = 1e-8) -> Certificate:
    """Certify one composition: local repair, aggregate, joint projection.

    ``residual_batch`` on one item, errors included (``index`` 0).
    ``repair_locals=False`` skips the per-component repair (the raw-composed
    evaluation paths need this); the certificate still reports whether the
    inputs were locally coherent.
    """
    return residual_batch([(comp, locals_)], repair_locals, tol)[0]


def residual_batch(items, repair_locals: bool = True, tol: float = 1e-8) -> list[Certificate]:
    """Certify every ``(comp, locals_)`` item, one engine run per constraint system.

    A constraint system (``comp.system``) is everything the joint
    projection reads: the joint dimension, the constrained components
    (index, coordinates and polytope) and the coupling cuts, built once
    per process by ``constraint_system``. So free-box compositions that
    split the coordinates among owners differently share one projection
    (``_joint_projection``: exact for one catalog polytope, else the
    cycle), run in order of each system's first item. Certificates come
    back in input order, each bit for bit the item's own ``residual``,
    and name their binding constraints only when ``binding`` is read.

    An item fails when it is malformed (``aggregate``, its coupling cuts),
    when its row misses the cycle's iteration cap (``_unconverged``), or,
    as its system's earliest item, when a local set misses its own cap
    (``project_local``). The earliest failing item's exception is raised,
    with its position in ``items`` as its ``index`` attribute. A ``tol``
    that is not a finite number >= 0 is refused before any item is read.
    """
    if not 0.0 <= tol < math.inf:  # also false for NaN
        raise ValueError(f"tol={tol!r} must be a finite number >= 0")
    items = list(items)
    failures: dict[int, Exception] = {}
    systems: dict[ConstraintSystem, dict[int, np.ndarray]] = {}  # {item index: assembled row}
    for i, (comp, locals_) in enumerate(items):
        try:
            x = aggregate(comp, locals_)
            system = comp.system  # a malformed cut fails at the first item that carries it
        except (TypeError, ValueError) as exc:
            failures[i] = exc
            break  # no later item can fail first
        systems.setdefault(system, {})[i] = x
    certs: list[Certificate | None] = [None] * len(items)
    for rows in systems.values():
        first = next(iter(rows))
        comp = items[first][0]
        try:
            X, coherent = _composed(comp, np.array(list(rows.values())), repair_locals, tol)
            projected, converged = _joint_projection(comp, X)
        except InfeasibleCouplingError as exc:  # from a local set's own cycle
            failures[first] = exc
            break  # every later system's items come after this one's first
        converged = converged.tolist()
        error = None if all(converged) else _unconverged(comp)
        for row, i in enumerate(rows):
            if converged[row]:
                certs[i] = _certificate(comp, X[row], projected[row], coherent[row], tol)
            else:
                failures[i] = error
    if failures:
        first = min(failures)
        failures[first].index = first
        raise failures[first]
    return certs


def _product_hull(comp: CompositionSpec) -> np.ndarray:
    """``comp.product_vertices``, refusing a component whose hull they do not span.

    Only a catalog relation's vertices and a free box's corners are known
    to be the vertices of the component's hull; any other component keeps
    just its 0/1 points, which can miss the hull or be empty.
    """
    for a, component in comp.constrained:
        if component.polytope.relation is None:
            raise ValueError(f"component {a} is neither a catalog relation nor a free box; "
                             "the vertices of its hull are unknown")
    return comp.product_vertices


def is_product_structured(comp: CompositionSpec, tol: float = 1e-8) -> bool:
    """Whether every coupling cut is redundant over the product of local hulls.

    Decided exactly at small joint dimension by maximizing each cut's
    violation over the product vertex hull; linear violations peak at
    vertices. An empty coupling set is product-structured by definition.
    Otherwise every component must be a catalog relation or a free box
    (``ValueError`` names the first that is not).
    """
    if len(comp.coupling) == 0:
        return True
    return bool(np.max(comp.coupling_polytope.gaps(_product_hull(comp))) <= tol)


def construct_witness(comp: CompositionSpec, tol: float = 1e-8):
    """Locally coherent component quotes whose composition is incoherent.

    Searches the product vertex hull for the point that most violates the
    worst coupling cut, then restricts it to each component. Fails if the
    composition was product-structured after all, and with ``ValueError``,
    as ``is_product_structured`` does, on a component that is neither a
    catalog relation nor a free box.
    """
    if len(comp.coupling) == 0:
        raise ProductStructuredError("no coupling cuts; the composition is product-structured")
    vertices = _product_hull(comp)
    per_point = comp.coupling_polytope.gaps(vertices).max(axis=1)
    best = float(per_point.max())
    if best <= tol:
        raise ProductStructuredError(
            "every coupling cut is redundant over the product hull; no witness exists"
        )
    # prefer the over-mass side on ties so witnesses read naturally
    candidates = np.nonzero(per_point >= best - 1e-12)[0]
    sums = vertices[candidates].sum(axis=1)
    pick = int(candidates[int(np.argmax(sums))])
    r = vertices[pick]
    locals_ = [r[list(component.coords)].copy() for component in comp.components]
    cert = residual(comp, locals_)
    if cert.epsilon_star <= 0.0:
        raise ProductStructuredError(
            "witness candidate projected to zero residual; composition looks product-structured"
        )
    return locals_, cert


def disagreement_bound(comp: CompositionSpec, locals_: list, reference,
                       tol: float = 1e-8) -> float:
    """L2 disagreement between the repaired composition and a coherent reference.

    Upper-bounds the certificate value for any reference inside the joint
    coherent set, with equality when the reference is the repaired quote.
    """
    reference = np.asarray(reference, dtype=float)
    if not is_member(comp.joint_polytope, reference, tol):
        raise ValueError("reference quote is not in the joint coherent set")
    X, _ = _composed(comp, aggregate(comp, locals_)[None, :], True, tol)
    return float(np.linalg.norm(X[0] - reference))


def attribute(comp: CompositionSpec, cert: Certificate) -> dict[int, float]:
    """Per-component share of the residual: L2 mass over owned coordinates.

    Squares sum to the squared certificate value because owners partition
    the joint coordinates.
    """
    delta = cert.composed - cert.repaired
    return {
        a: float(np.linalg.norm(delta[list(component.coords)]))
        for a, component in enumerate(comp.components)
    }


def free_components(dims: list[int]) -> tuple[ComponentSpec, ...]:
    """Box-only components of the given dimensions, coordinates assigned in order."""
    components = []
    offset = 0
    for d in dims:
        components.append(
            ComponentSpec(PolytopeSpec(dim=d), tuple(range(offset, offset + d)))
        )
        offset += d
    return tuple(components)
