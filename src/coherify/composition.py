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

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .jsonio import _unchecked, json_field
from .polytope import (
    MEMBERSHIP_TOL,
    LinearConstraint,
    PolytopeSpec,
    Relation,
    RelationKind,
    _unit,
    free_box,
    is_member,
)
from .projection import (
    RESIDUAL_FLOOR,
    InfeasibleCouplingError,
    _coupled_halfspaces,
    _vertex_array,
    project_active_set,
    project_local,
    project_relation_batch,
)

SYSTEM_CACHE_SIZE = 256  # constraint systems kept per process
COMPONENT_CACHE_SIZE = 1024  # components kept per process


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


@lru_cache(maxsize=COMPONENT_CACHE_SIZE)
def shared_component(polytope: PolytopeSpec, coords: tuple[int, ...]) -> ComponentSpec:
    """The component owning ``coords`` with ``polytope``, one shared object per
    ``(polytope, coords)`` within a process, kept in a bounded cache
    (``shared_component.cache_clear()`` empties it). Every composition builder
    takes its components from here."""
    return ComponentSpec(polytope, coords)


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
        distinct = len(set(coords))
        if distinct < 2:
            raise ValueError("a coupling constraint must reference >= 2 distinct coordinates")
        if min(coords) < 0:
            raise ValueError(f"coords={list(coords)} must be >= 0")
        # a chain may revisit a coordinate; a sum or a normal would count it once
        if distinct < len(coords) and self.kind in ("partition-sum", "frechet-halfspace"):
            repeated = next(c for i, c in enumerate(coords) if c in coords[:i])
            raise ValueError(f"{self.kind} names coordinate {repeated} twice")
        if not math.isfinite(self.b):
            raise ValueError(f"b={self.b!r} must be finite")
        if self.kind == "negation-sum" and len(coords) != 2:
            raise ValueError("negation-sum couples exactly 2 coordinates")
        if self.kind == "frechet-halfspace":
            if self.a is None or len(self.a) != len(coords):
                raise ValueError("frechet-halfspace needs an explicit normal over its coordinates")
            a = tuple(float(v) for v in self.a)
            if not all(map(math.isfinite, a)):
                raise ValueError(f"a={list(a)} must be finite")
            object.__setattr__(self, "a", a)
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


@dataclass(frozen=True)
class Block:
    """A block's kind and joint coordinates: ``free`` (the clip), ``catalog``
    (``relation``'s polytope on ``coords``) or ``generic`` (``spec``, its rows of
    the joint system on ``coords``, for ``project_active_set``)."""

    kind: str
    coords: tuple[int, ...]
    relation: Relation | None = None
    spec: PolytopeSpec | None = None


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """What the joint projection of a composition reads, built once per system key.

    ``dim`` is the joint dimension, ``constrained`` the ``(index,
    component)`` pairs that are not free boxes, ``columns`` the joint
    coordinates of each as an index array, and ``cuts`` the coupling cuts.
    ``coupling`` holds the cuts and ``joint`` the lifted local constraints
    plus those cuts, each as one constraint system over the joint space.
    Compares and hashes by identity: one object per cached system key.
    """

    dim: int
    constrained: tuple[tuple[int, ComponentSpec], ...]
    cuts: tuple[CouplingConstraint, ...]
    columns: tuple[np.ndarray, ...]
    coupling: PolytopeSpec
    joint: PolytopeSpec

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """Every block of the system with its kind, decided once per system (``_blocks``)."""
        return _blocks(self)

    @cached_property
    def whole_relation(self) -> Relation | None:
        """The relation when the system is one catalog block on all coordinates in order."""
        [block, *rest] = self.blocks
        return None if rest or block.coords != tuple(range(self.dim)) else block.relation


def _blocks(system: ConstraintSystem) -> tuple[Block, ...]:
    """The blocks of a constraint system, in order of their first cut or component.

    Two joint coordinates are linked when a constrained component or a cut
    holds both; each linked set is a block, and the joint set is the
    product of the blocks' sets. A block is catalog when its cuts, in order,
    are ``relation_coupling(relation, coords)`` and each of its components
    is that relation's polytope on ``coords``, or when it is one catalog
    component and no cut. Any other block is generic: its rows of ``joint``
    on its coordinates, ascending. The coordinates nothing holds come last,
    as the free block.
    """
    root = list(range(system.dim))

    def find(j: int) -> int:
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    components = [c for _, c in system.constrained]
    for coords in [c.coords for c in system.cuts] + [c.coords for c in components]:
        first = find(coords[0])
        for j in coords[1:]:
            root[find(j)] = first
    held: dict[int, tuple[list, list]] = {}  # per block: its cuts and its components
    for c in system.cuts:
        held.setdefault(find(c.coords[0]), ([], []))[0].append(c)
    for c in components:
        held.setdefault(find(c.coords[0]), ([], []))[1].append(c)
    blocks = []
    for key, (cuts, parts) in held.items():
        coords = tuple(j for j in range(system.dim) if find(j) == key)
        blocks.append(_catalog_block(tuple(cuts), parts)
                      or Block("generic", coords, spec=_restricted(system.joint, coords)))
    free = tuple(j for j in range(system.dim) if find(j) not in held)
    return tuple(blocks) + ((Block("free", free),) if free else ())


def _restricted(joint: PolytopeSpec, coords: tuple[int, ...]) -> PolytopeSpec:
    """The rows of ``joint`` whose support lies in ``coords``, on those coordinates."""
    def rows(constraints):
        return tuple(LinearConstraint(tuple(c.a[j] for j in coords), c.b, c.name)
                     for c in constraints if set(coords).issuperset(np.flatnonzero(c.a)))

    return PolytopeSpec(len(coords), rows(joint.equalities), rows(joint.halfspaces))


def _catalog_block(cuts: tuple, components: list) -> Block | None:
    """The catalog block that one block's cuts and components are, if they are one."""
    if not cuts:  # owners are disjoint, so a block without cuts is one component
        [component] = components
        relation = component.polytope.relation
        return None if relation is None else Block("catalog", component.coords, relation)
    coords = cuts[-1].coords  # every catalog coupling ends with a cut over all its coordinates
    if len(set(coords)) != len(coords):
        return None
    for kind in _CATALOG_KINDS[cuts[-1].kind]:
        try:
            relation = Relation(kind, len(coords))
        except ValueError:
            continue
        if _relation_coupling(relation, coords) == cuts and all(
                c.polytope.relation == relation and c.coords == coords for c in components):
            return Block("catalog", coords, relation)
    return None


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
    columns = tuple(np.array(component.coords) for _, component in constrained)
    return ConstraintSystem(joint_dim, constrained, cuts, columns, coupling, joint)


@dataclass
class CompositionSpec:
    """Components, ownership, and coupling over ``joint_dim`` coordinates.

    Treated as immutable after construction. The constraint system,
    coupling and joint polytopes and projection route included, comes from
    the per-process ``constraint_system`` cache.
    ``CompositionSpec(...)`` checks a caller's parts (a joint coordinate or more, each
    owned once, cuts inside the joint space); ``_routed`` checks nothing.
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
        dim = self.joint_dim
        if dim < 1:
            raise ValueError(f"a composition needs at least one joint coordinate, "
                             f"got joint_dim={dim}")
        # _gather: for each joint coordinate, its column among the components' quotes laid
        # end to end; None when that is the coordinate itself (owners own ascending runs)
        columns = [j for component in self.components for j in component.coords]
        self._gather = None if columns == list(range(dim)) else _gather_order(columns, dim)
        for c in self.coupling.constraints:
            if max(c.coords) >= dim:
                raise ValueError("coupling constraint references coordinates outside the joint space")

    @classmethod
    def _routed(cls, components: tuple, coupling: CouplingSet, system) -> CompositionSpec:
        """The spec of ``components`` and ``coupling`` on ``system``, unchecked: the caller
        vouches that the components own each of ``range(system.dim)`` once and that
        ``system`` is ``constraint_system`` of them and ``coupling.constraints``."""
        dim = system.dim
        columns = [j for component in components for j in component.coords]
        return _unchecked(cls, components=components, coupling=coupling, joint_dim=dim,
                          system=system, constrained=system.constrained,
                          _gather=None if columns == list(range(dim))  # else the inverse
                          else sorted(range(dim), key=columns.__getitem__))

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

    def has_feasible_point(self) -> bool:
        """Whether the joint set is nonempty, decided exactly: ``_joint_projection`` of
        the box centre raises ``InfeasibleCouplingError`` exactly when it is empty."""
        try:
            _joint_projection(self, np.full((1, self.joint_dim), 0.5))
        except InfeasibleCouplingError:
            return False
        return True


@dataclass(eq=False)
class _RunBinding:
    """The rows ``X`` of one engine run, whose binding constraints are named together."""

    joint: PolytopeSpec
    X: np.ndarray
    tol: float

    @cached_property
    def names(self) -> list[tuple[str, ...]]:
        """``joint.violated_rows(X, tol)``, worked out on first read."""
        return self.joint.violated_rows(self.X, self.tol)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Runtime coherence certificate for one composed quote.

    ``binding`` names the constraints of the joint set (box included) that
    ``composed`` violates by more than the engine run's ``tol``. The first
    read of ``binding`` on any certificate of a run (``run``, whose
    ``row`` this certificate is) names them for every row of that run at
    once, so a caller that never reads it never pays for it. Certificates
    hold arrays, so ``==`` and ``hash`` go by identity; ``to_json()``
    gives the values to compare.
    """

    epsilon_star: float
    exposure_bound: float
    repaired: np.ndarray
    inputs_locally_coherent: bool
    composed: np.ndarray
    run: _RunBinding = field(repr=False)
    row: int = field(repr=False)

    def __post_init__(self):
        self.repaired.setflags(write=False)
        self.composed.setflags(write=False)

    @property
    def binding(self) -> tuple[str, ...]:
        return self.run.names[self.row]

    @staticmethod
    def columns(certs) -> dict:
        """The ``to_json`` records of ``certs`` as columns, one list per field."""
        return {
            "eps_star": [c.epsilon_star for c in certs],
            "exposure_bound": [c.exposure_bound for c in certs],
            "repaired": [c.repaired.tolist() for c in certs],
            "binding": [list(c.binding) for c in certs],
        }

    def to_json(self) -> dict:
        return {key: column[0] for key, column in self.columns([self]).items()}


def aggregate(comp: CompositionSpec, locals_: list) -> np.ndarray:
    """Owner-selected assembly: joint coordinate j takes its owner's value.

    ``_assembled`` on one item. Refuses a wrong quote count, then,
    component by component, a quote of the wrong shape or with a
    non-finite entry.
    """
    return _assembled(comp, [locals_])[0]


def _assembled(comp: CompositionSpec, quotes: list) -> np.ndarray:
    """Row ``i`` is the assembly of item ``i``'s local quotes, for items sharing ``comp``.

    Every local quote of every item goes into one array, then one column
    gather puts each item's coordinates in joint order. When any item is
    refused, the items go one by one (``_assembled_row``) so that the
    first refused raises its own error, with its position in ``quotes`` as
    ``index``.
    """
    components = comp.components
    try:  # an item with the wrong quote count adds no quotes, so the lengths differ
        parts = [q for locals_ in quotes if len(locals_) == len(components) for q in locals_]
        if list(map(len, parts)) == [len(c.coords) for c in components] * len(quotes):
            flat = np.concatenate(parts, dtype=float)
            if flat.shape == (len(quotes) * comp.joint_dim,) \
                    and np.logical_and.reduce(np.isfinite(flat)):
                X, order = flat.reshape(len(quotes), comp.joint_dim), comp._gather
                return X if order is None else X.take(order, axis=1)
    except (TypeError, ValueError):
        pass  # raised again below, by the item that causes it
    rows = []
    for i, locals_ in enumerate(quotes):
        try:
            rows.append(_assembled_row(comp, locals_))
        except (TypeError, ValueError) as exc:
            exc.index = i
            raise
    return np.array(rows)


def _gather_order(columns: list[int], dim: int) -> list[int]:
    """The inverse of ``columns``, refusing a coordinate outside ``range(dim)``, owned
    twice or by none."""
    order = [-1] * dim
    for i, j in enumerate(columns):
        if not 0 <= j < dim:
            raise ValueError(f"coordinate {j} outside the joint space")
        if order[j] >= 0:
            raise ValueError(f"joint coordinate {j} owned twice")
        order[j] = i
    if -1 in order:
        raise ValueError(f"joint coordinates {[j for j in range(dim) if order[j] < 0]} "
                         "have no owner")
    return order


def _assembled_row(comp: CompositionSpec, locals_: list) -> np.ndarray:
    """One item's assembly, checked in ``aggregate``'s order: the quote count, then
    each component's shape and finiteness before the next component's."""
    components = comp.components
    if len(locals_) != len(components):
        raise ValueError(f"expected {len(components)} local quotes, got {len(locals_)}")
    quotes = []
    for a, (component, q) in enumerate(zip(components, locals_)):
        q = np.asarray(q, dtype=float)
        coords = component.coords
        if q.shape != (len(coords),):
            raise ValueError(f"component {a} quote has shape {q.shape}, needs ({len(coords)},)")
        if not np.isfinite(q).all():
            raise ValueError(f"component {a} quote has non-finite entries")
        quotes.append(q)
    flat = np.concatenate(quotes) if quotes else np.zeros(0)
    order = comp._gather
    return flat if order is None else flat[order]


def _composed(comp: CompositionSpec, X: np.ndarray, repair_locals: bool, tol: float):
    """Assembled rows ``X``, locally repaired when ``repair_locals``, and whether each was coherent.

    One pass over the constrained components of ``comp``'s system. A row's
    locals are coherent when the row is in the box and each component's
    coordinates meet its constraints within ``tol``. The repair is the box
    clip, then ``project_local`` on each component's coordinates of the
    unrepaired row.
    """
    system = comp.system
    coherent = np.logical_and.reduce((X >= -tol) & (X <= 1.0 + tol), axis=1)
    repaired = X.clip(0.0, 1.0) if repair_locals else X
    for (_, component), columns in zip(system.constrained, system.columns):
        local = X[:, columns]
        coherent &= np.maximum.reduce(component.polytope.gaps(local), axis=1) <= tol
        if repair_locals:
            repaired[:, columns] = project_local(component.polytope, local)
    return repaired, coherent.tolist()


def _joint_projection(comp: CompositionSpec, X: np.ndarray) -> np.ndarray:
    """Rows of ``X`` projected onto the joint set of ``comp``, block by block
    (``system.blocks``): the clip, then one ``project_relation_batch`` call per catalog
    block and ``project_active_set`` per generic block, on the block's coordinates."""
    if (whole := comp.system.whole_relation) is not None:
        return project_relation_batch(whole, X)  # no clip or scatter
    projected = X.clip(0.0, 1.0)
    for block in comp.system.blocks:
        coords = block.coords
        if block.relation is not None:
            projected[:, coords] = project_relation_batch(block.relation, X[:, coords])
        elif block.spec is not None:
            projected[:, coords] = project_active_set(block.spec, X[:, coords], coords)
    return projected


def _certificate(comp: CompositionSpec, x: np.ndarray, projected: np.ndarray,
                 locally_coherent: bool, run: _RunBinding, row: int) -> Certificate:
    """Row ``x``'s certificate, built unchecked from read-only rows of one engine run."""
    d = x - projected
    distance = math.sqrt(d.dot(d))  # np.linalg.norm's own sum for a 1-D float64 vector
    eps = 0.0 if distance < RESIDUAL_FLOOR else distance  # NaN stays NaN, never 0
    return _unchecked(Certificate, epsilon_star=eps,
                      exposure_bound=math.sqrt(comp.joint_dim) * eps, repaired=projected,
                      inputs_locally_coherent=locally_coherent, composed=x, run=run, row=row)


def residual(comp: CompositionSpec, locals_: list, repair_locals: bool = True,
             tol: float = MEMBERSHIP_TOL) -> Certificate:
    """Certify one composition: local repair, aggregate, joint projection.

    ``residual_batch`` on one item, errors included (``index`` 0), without
    its grouping: one ``_assembled`` row and ``_certify_rows``.
    ``repair_locals=False`` skips the per-component repair (the raw-composed
    evaluation paths need this); the certificate still reports whether the
    inputs were locally coherent.
    """
    _check_tol(tol)
    return _certify_rows([(comp, (0,), _assembled(comp, [locals_]))], 1, repair_locals, tol)[0]


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # also false for NaN
        raise ValueError(f"tol={tol!r} must be a finite number >= 0")


def residual_batch(items, repair_locals: bool = True,
                   tol: float = MEMBERSHIP_TOL) -> list[Certificate]:
    """Certify every ``(comp, locals_)`` item, one engine run per constraint system.

    Items that carry the same ``CompositionSpec`` object are assembled
    together (``_assembled``). A constraint system (``comp.system``) is
    everything the joint projection reads: the joint dimension, the
    constrained components (index, coordinates and polytope) and the
    coupling cuts, built once per process by ``constraint_system``. So
    free-box compositions that split the coordinates among owners
    differently share one projection (``_joint_projection``, exact block
    by block), run in order of each system's first item. Certificates
    come back in input order, each bit for bit the item's own
    ``residual``. The first read of any certificate's ``binding`` names
    the binding constraints of every certificate of its engine run at once.

    An item fails when it is malformed (``aggregate``, its coupling cuts)
    or, as its system's earliest item, when a local or the joint set of its
    system is empty (``InfeasibleCouplingError``). The earliest failing
    item's exception is raised, with its position in ``items`` as its
    ``index`` attribute. A ``tol`` that is not a finite number >= 0 is
    refused before any item is read.
    """
    _check_tol(tol)
    items = list(items)
    try:
        blocks = _assembled_by_spec(items)
    except (TypeError, ValueError) as exc:  # an earlier item's engine failure comes first
        _certify_rows(_assembled_by_spec(items[:exc.index]), exc.index, repair_locals, tol)
        raise
    return _certify_rows(blocks, len(items), repair_locals, tol)


def _assembled_by_spec(items: list) -> list[tuple[CompositionSpec, list[int], np.ndarray]]:
    """``(comp, item indices, their assembled rows)`` per ``CompositionSpec`` object.

    Groups come in order of their first item. Raises the error of the
    earliest item whose quotes are refused, with its position in ``items``
    as ``index``.
    """
    groups: dict[int, tuple[CompositionSpec, list[int], list]] = {}
    for i, (comp, locals_) in enumerate(items):
        group = groups.get(id(comp))
        if group is None:
            groups[id(comp)] = (comp, [i], [locals_])
        else:
            group[1].append(i)
            group[2].append(locals_)
    blocks, failures = [], {}
    for comp, indices, quotes in groups.values():
        try:
            blocks.append((comp, indices, _assembled(comp, quotes)))
        except (TypeError, ValueError) as exc:
            failures[indices[exc.index]] = exc
    if failures:
        first = min(failures)
        failures[first].index = first
        raise failures[first]
    return blocks


def _certify_rows(blocks: list, n: int, repair_locals: bool = True,
                  tol: float = MEMBERSHIP_TOL) -> list[Certificate]:
    """``residual_batch`` past assembly, for ``n`` items.

    Each block is ``(comp, item indices, their assembled joint rows)``;
    blocks come in order of their first item, and every item is in one.
    """
    systems: dict[ConstraintSystem, list] = {}
    failures: dict[int, Exception] = {}
    for block in blocks:
        try:
            systems.setdefault(block[0].system, []).append(block)
        except (TypeError, ValueError) as exc:  # a malformed cut fails at its first item
            failures[block[1][0]] = exc
    certs: list[Certificate | None] = [None] * n
    for run in systems.values():
        comp, indices, X = run[0]
        first = indices[0]  # the system's earliest item
        if len(run) > 1:
            indices = [i for _, block_indices, _ in run for i in block_indices]
            X = np.concatenate([X for _, _, X in run])
        try:
            X, coherent = _composed(comp, X, repair_locals, tol)
            projected = _joint_projection(comp, X)
        except InfeasibleCouplingError as exc:  # an empty set fails the system's first row
            failures[first] = exc
            break  # every later system's items come after this one's first
        X.setflags(write=False)  # and with it every row a certificate holds
        projected.setflags(write=False)
        binding = _RunBinding(comp.joint_polytope, X, tol)
        for row, i in enumerate(indices):
            certs[i] = _certificate(comp, X[row], projected[row], coherent[row], binding, row)
    if failures:
        first = min(failures)
        failures[first].index = first
        raise failures[first]
    return certs


def _peaks(comp: CompositionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each coupling row's largest gap over the product of the local hulls, and a
    vertex of the product where it is reached, built factor by factor: a linear
    maximum over a product is the sum of the factors' maxima. A catalog component
    is one factor (its relation's vertices), each free-box coordinate another (0
    and 1); any other component is refused. An equality gap ``|a . z - b|`` peaks
    along ``a`` or ``-a``, so each is a row. Each factor takes the first peak of
    largest sum."""
    coupling = comp.coupling_polytope
    k = len(coupling.equalities)
    A = np.vstack([coupling.A, -coupling.A[:k]])
    gaps = -np.concatenate([coupling.b, -coupling.b[:k]])
    vertices = np.zeros((len(A), comp.joint_dim))
    for a, component in enumerate(comp.components):
        coords, local = list(component.coords), component.polytope
        if local.relation is not None:
            V = _vertex_array(local.relation)
            scores = V @ A[:, coords].T
            peak = scores.max(axis=0)
            vertices[:, coords] = V[np.where(scores == peak, V.sum(axis=1)[:, None], -1.0)
                                    .argmax(axis=0)]
        elif not (local.equalities or local.halfspaces):
            peak = np.maximum(A[:, coords], 0.0).sum(axis=1)
            vertices[:, coords] = A[:, coords] >= 0.0  # a zero tie takes 1, the larger sum
        else:
            raise ValueError(f"component {a} is neither a catalog relation nor a free box; "
                             "the vertices of its hull are unknown")
        gaps += peak
    return gaps, vertices


def is_product_structured(comp: CompositionSpec, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether every coupling cut is redundant over the product of local hulls.

    Decided exactly by each cut's largest violation over that product
    (``_peaks``). An empty coupling set is product-structured by definition.
    Otherwise every component must be a catalog relation or a free box
    (``ValueError`` names the first that is not).
    """
    _check_tol(tol)
    if len(comp.coupling) == 0:
        return True
    return bool(_peaks(comp)[0].max() <= tol)


def construct_witness(comp: CompositionSpec, tol: float = MEMBERSHIP_TOL):
    """Locally coherent component quotes whose composition is incoherent.

    Takes a product hull vertex at which a cut within 1e-12 of the worst
    peaks (``_peaks``): the largest sum, then the first in product order, so
    witnesses read naturally. Restricts it to each component. Fails if the
    composition was product-structured after all, and with ``ValueError``,
    as ``is_product_structured`` does, on a component that is neither a
    catalog relation nor a free box.
    """
    _check_tol(tol)
    if len(comp.coupling) == 0:
        raise ProductStructuredError("no coupling cuts; the composition is product-structured")
    gaps, vertices = _peaks(comp)
    best = float(gaps.max())
    if best <= tol:
        raise ProductStructuredError(
            "every coupling cut is redundant over the product hull; no witness exists"
        )
    candidates = vertices[gaps >= best - 1e-12]
    # product order: lexicographic in ownership order, as each factor lists its vertices
    order = [j for component in comp.components for j in component.coords]
    r = candidates[np.lexsort([*candidates[:, order[::-1]].T, -candidates.sum(axis=1)])[0]]
    locals_ = [r[list(component.coords)].copy() for component in comp.components]
    cert = residual(comp, locals_)
    if cert.epsilon_star <= 0.0:
        raise ProductStructuredError(
            "witness candidate projected to zero residual; composition looks product-structured"
        )
    return locals_, cert


def disagreement_bound(comp: CompositionSpec, locals_: list, reference,
                       tol: float = MEMBERSHIP_TOL) -> float:
    """L2 disagreement between the repaired composition and a coherent reference.

    Upper-bounds the certificate value for any reference inside the joint
    coherent set, with equality when the reference is the repaired quote.
    """
    _check_tol(tol)
    reference = np.asarray(reference, dtype=float)
    if not is_member(comp.joint_polytope, reference, tol):
        raise ValueError("reference quote is not in the joint coherent set")
    X, _ = _composed(comp, _assembled(comp, [locals_]), True, tol)
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
        components.append(shared_component(free_box(d), tuple(range(offset, offset + d))))
        offset += d
    return tuple(components)
