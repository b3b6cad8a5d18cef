"""Synthetic specialist panels and routing for end-to-end evaluation runs.

A panel is built around a coherent truth quote sampled from the interior
of the relation's vertex hull; each specialist sees the truth through its
own bias vector, Gaussian noise, and a K-sample Bernoulli read-out, then
repairs its own quote locally. Routing policies assign joint coordinates
to specialists, and the ensemble runner scores the four composition
operators: A raw composed, B locally repaired composed, C raw plus joint
projection, D locally repaired plus joint projection. It certifies B at
once and A, C and D only when a caller reads one of their values.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .composition import (
    Certificate,
    CompositionSpec,
    _certify_rows,
    _relation_coupling,
    shared_component,
)
from .decision import BetRecord
from .jsonio import finite_float
from .polytope import (
    _FIXED_ARITY,
    _MIN_ARITY,
    ENUMERATION_LIMIT,
    Clique,
    Relation,
    RelationKind,
    free_box,
)
from .projection import _polytope, _vertex_array, project_relation, project_relation_batch

OPERATORS = ("A", "B", "C", "D")
POLICY_KINDS = ("random-uniform", "structured-by-relation", "single-owner")

_RELATION_OFFSET = {
    RelationKind.NEGATION: 0,
    RelationKind.CONJUNCTION: 1,
    RelationKind.DISJUNCTION: 2,
    RelationKind.PARTITION: 3,
    RelationKind.LADDER: 4,
    RelationKind.PARAPHRASE: 5,
}


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose
# output NEP 19's stream-compatibility policy fixes. They stay Python ints masked to 32
# bits and meet only uint32 arrays, which wrap silently where a uint32 scalar would warn.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """``init * mult**t`` mod 2**32 for t = 0 .. ``calls``: hash call t xors in
    constant t and multiplies by constant t + 1."""
    return np.array([init * pow(mult, t, 1 << 32) & _MASK32 for t in range(calls + 1)],
                    dtype=np.uint32)


def _hashed(words: np.ndarray, consts: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hash calls ``first`` to ``first + count - 1``, call ``first + i``
    on column i of ``words`` (broadcast to ``count`` columns)."""
    words = (words ^ consts[first:first + count]) * consts[first + 1:first + count + 1]
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each row of 32-bit key words.

    SeedSequence mixes its pool one hash call at a time, but the calls that
    mix one pool word into each of the others all read that same word, so
    each such run is one array operation over all keys and the words it feeds.
    """
    n, length = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, length))
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
    pool[:, :length] = entropy[:, :_POOL_SIZE]
    pool = _hashed(pool, consts, 0, _POOL_SIZE)
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashed(pool[:, src, None], consts, calls, len(dst)))
        calls += len(dst)
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashed(entropy[:, src, None], consts, calls, _POOL_SIZE))
        calls += _POOL_SIZE
    state = _hashed(np.concatenate([pool, pool], axis=1),
                    _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE), 0, 2 * _POOL_SIZE)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _seeded_type() -> type:
    """A seed sequence that hands PCG64 precomputed words; defined on first use, so
    that importing coherify does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's four uint64 seed words are precomputed")
            return self.words

    return Seeded


def _rngs(keys) -> list[np.random.Generator]:
    """One generator per key of ints, each the stream of
    ``np.random.default_rng(np.random.SeedSequence(tuple(abs(int(p)) for p in key)))``.

    Each part is split into its little-endian 32-bit words, as SeedSequence
    assembles them, and the keys with one word count are hashed together.
    """
    from numpy.random import PCG64, Generator

    words = []
    for key in keys:
        words.append([])
        for part in key:
            part = abs(int(part))
            words[-1].append(part & _MASK32)
            while part := part >> 32:
                words[-1].append(part & _MASK32)
    by_length = {}
    for i, key_words in enumerate(words):
        by_length.setdefault(len(key_words), []).append(i)
    seeded, rngs = _seeded_type(), [None] * len(words)
    for length, group in by_length.items():
        entropy = np.array([words[i] for i in group], dtype=np.uint32).reshape(len(group), length)
        for i, state in zip(group, _pcg64_words(entropy)):
            rngs[i] = Generator(PCG64(seeded(state)))
    return rngs


@dataclass(frozen=True)
class PanelModel:
    """Specialist panel generator settings.

    ``biases`` may be an explicit (k, m) offset array; by default each
    specialist gets a constant offset spread evenly in
    [-bias_scale, +bias_scale]. ``K=None`` reads the population quote
    directly (the infinite-sample limit). A truth quote is sampled per
    clique from the vertex hull (``truth_mode='adversarial'`` samples
    outside the coherent set instead); ``generate_panel(..., truth=)``
    pins one.
    """

    k: int = 4
    sigma: float = 0.05
    bias_scale: float = 0.05
    biases: np.ndarray | None = None
    K: int | None = 8
    truth_mode: str = "coherent"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")
        if not np.isfinite(self.bias_scale if self.biases is None else self.biases).all():
            raise ValueError("bias_scale and biases must be finite")
        if not self.sigma >= 0.0:  # also true for NaN
            raise ValueError(f"sigma={self.sigma} must be >= 0")
        if self.sigma == np.inf:  # every population quote would clip to 0 or 1
            raise ValueError(f"sigma={self.sigma} must be finite")
        if self.K is not None and self.K < 1:
            raise ValueError(f"K={self.K} must be >= 1, or None for the population limit")

    def bias_matrix(self, m: int) -> np.ndarray:
        if self.biases is not None:
            biases = np.asarray(self.biases, dtype=float)
            if biases.shape != (self.k, m):
                raise ValueError(f"biases must have shape ({self.k}, {m})")
            return biases
        if self.k == 1:
            return np.zeros((1, m))
        offsets = np.linspace(-self.bias_scale, self.bias_scale, self.k)
        return np.repeat(offsets[:, None], m, axis=1)


@dataclass(frozen=True)
class RoutingPolicy:
    kind: str = "random-uniform"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown routing policy {self.kind!r}")


@dataclass(frozen=True)
class TruthDraw:
    p_star: np.ndarray
    vertex_weights: np.ndarray | None
    vertices: np.ndarray
    coherent: bool


def sample_truth(relation: Relation, rng: np.random.Generator,
                 mode: str = "coherent") -> TruthDraw:
    """Coherent mode: Dirichlet mixture over the vertex hull (interior point).

    Adversarial mode: rejection-sample a box point at distance > 0.05 from
    the coherent set, for the label-incoherence regime.
    """
    V = _vertex_array(relation)
    if mode == "coherent":
        w = rng.dirichlet(np.ones(len(V)))
        return TruthDraw(w @ V, w, V, coherent=True)
    if mode != "adversarial":
        raise ValueError(f"unknown truth mode {mode!r}")
    for _ in range(1000):
        p = rng.uniform(size=relation.m)
        if project_relation(relation, p).residual > 0.05:
            return TruthDraw(p, None, V, coherent=False)
    raise RuntimeError("could not sample an incoherent truth quote")


def sample_labels(truth: TruthDraw, rng: np.random.Generator) -> np.ndarray:
    """Outcome vector with marginals equal to the truth quote.

    Coherent truths resolve through their vertex mixture, so the labels
    always satisfy the relation; adversarial truths resolve coordinatewise
    and may violate it.
    """
    if truth.coherent and truth.vertex_weights is not None:
        pick = rng.choice(len(truth.vertices), p=truth.vertex_weights)
        return truth.vertices[pick].astype(int)
    return (rng.uniform(size=truth.p_star.size) < truth.p_star).astype(int)


def clique_truth(model: PanelModel, clique: Clique, master_seed: int,
                 clique_index: int) -> tuple[TruthDraw, np.ndarray]:
    """The truth quote and outcome labels of one ensemble clique.

    Both come from one stream per ``(master_seed, clique_index)``, the
    truth first; labels the clique already carries are kept as they are.
    """
    return _clique_truths(model, [(clique, clique_index)], master_seed)[0]


def _clique_truths(model: PanelModel, cliques: list,
                   master_seed: int) -> list[tuple[TruthDraw, np.ndarray]]:
    """``clique_truth`` for ``(clique, clique_index)`` pairs, their streams seeded in one pass."""
    out = []
    for rng, (clique, _) in zip(_rngs([(master_seed, ci, 0x72) for _, ci in cliques]), cliques):
        truth = sample_truth(clique.relation, rng, model.truth_mode)
        if clique.labels is not None:
            out.append((truth, np.asarray(clique.labels, dtype=int)))
        else:
            out.append((truth, sample_labels(truth, rng)))
    return out


@dataclass(frozen=True)
class Panel:
    truth: TruthDraw
    population: np.ndarray
    raw: np.ndarray
    repaired: np.ndarray


def population_quotes(model: PanelModel, clique: Clique, truth: TruthDraw,
                      rng: np.random.Generator, biases: np.ndarray) -> np.ndarray:
    pop = truth.p_star[None, :] + biases
    if model.sigma > 0:
        pop = pop + rng.normal(0.0, model.sigma, size=(model.k, clique.relation.m))
    return np.clip(pop, 0.0, 1.0)


def sample_k_marginals(population: np.ndarray, K: int | None,
                       rng: np.random.Generator) -> np.ndarray:
    if K is None:
        return population.copy()
    return rng.binomial(K, population) / K


def generate_panels(model: PanelModel, cells: list) -> list[Panel]:
    """Population offsets, K-sample read-out, then repair, for ``(clique, seed, truth)`` cells.

    Each cell draws from its own stream, the one of
    ``np.random.default_rng(np.random.SeedSequence(seed))`` with each part of
    ``seed`` (an int or a tuple of ints) taken by ``abs``: the truth when it
    is None, the noise, the read-out. The streams of all cells are seeded in
    one pass (``_rngs``). Biases are built once per arity, and the rows of
    all cells of one relation are repaired in one ``project_relation_batch``
    call; each row equals its own ``project_relation`` projection.
    """
    biases = {m: model.bias_matrix(m) for m in dict.fromkeys(c.relation.m for c, _, _ in cells)}
    rngs = _rngs([seed if isinstance(seed, tuple) else (seed,) for _, seed, _ in cells])
    drawn, by_relation = [], {}
    for i, ((clique, _, truth), rng) in enumerate(zip(cells, rngs)):
        if truth is None:
            truth = sample_truth(clique.relation, rng, model.truth_mode)
        population = population_quotes(model, clique, truth, rng, biases[clique.relation.m])
        drawn.append((truth, population, sample_k_marginals(population, model.K, rng)))
        by_relation.setdefault(clique.relation, []).append(i)
    repaired = {}
    for relation, group in by_relation.items():
        rows = project_relation_batch(relation, np.concatenate([drawn[i][2] for i in group]))
        repaired.update(zip(group, rows.reshape(len(group), model.k, relation.m)))
    return [Panel(*cell, repaired[i]) for i, cell in enumerate(drawn)]


def generate_panel(model: PanelModel, clique: Clique, seed,
                   truth: TruthDraw | None = None) -> Panel:
    """``generate_panels`` on one cell: its k specialist rows repaired in one call."""
    return generate_panels(model, [(clique, seed, truth)])[0]


def route(policy: RoutingPolicy, k: int, relation: Relation,
          clique_index: int, seed: int) -> np.ndarray:
    """Owner per joint coordinate under the policy."""
    return _routes(policy, k, [(relation, clique_index, seed)])[0]


def _routes(policy: RoutingPolicy, k: int, cells: list) -> list[np.ndarray]:
    """``route`` for ``(relation, clique_index, seed)`` cells, random-uniform streams
    seeded in one pass."""
    if policy.kind == "random-uniform":
        rngs = _rngs([(policy.seed, ci, seed, 0x707E) for _, ci, seed in cells])
        return [rng.integers(0, k, size=relation.m) for rng, (relation, _, _) in zip(rngs, cells)]
    if policy.kind == "structured-by-relation":
        return [(_RELATION_OFFSET[relation.kind] + np.arange(relation.m)) % k
                for relation, _, _ in cells]
    return [np.full(relation.m, seed % k, dtype=int) for relation, _, seed in cells]


@dataclass(frozen=True)
class RoutedComposition:
    comp: CompositionSpec
    specialists: tuple[int, ...]  # panel row backing each component
    owners: tuple[int, ...]       # panel row owning each joint coordinate


def composition_for(clique: Clique, owners: np.ndarray) -> RoutedComposition:
    """Composition spec for one routing of a clique.

    A specialist that owns every coordinate contributes its full local
    polytope (its internal repair covers the whole relation); partial
    owners contribute free boxes, and the relation itself enters as the
    coupling cut over the joint coordinates. The polytopes, boxes, cuts and
    components are the cached ones, so every layout of one relation shares
    them.
    """
    relation = clique.relation
    m = relation.m
    owners = tuple(np.asarray(owners, dtype=int).tolist())
    owned: dict[int, list[int]] = {}
    for j, s in enumerate(owners):
        owned.setdefault(s, []).append(j)
    specialists = tuple(sorted(owned))
    components = []
    for s in specialists:
        coords = tuple(owned[s])
        polytope = _polytope(relation) if len(coords) == m else free_box(len(coords))
        components.append(shared_component(polytope, coords))
    comp = CompositionSpec(tuple(components), _relation_coupling(relation, tuple(range(m))), m)
    return RoutedComposition(comp, specialists, owners)


@dataclass(eq=False)
class _EnsemblePasses:
    """The engine passes of one ``run_ensemble`` call, shared by its records.

    ``repaired`` is the B pass, run by ``run_ensemble`` itself. The A pass
    (``raw``) and the C/D pass (``joint``, which needs A) each run once, over
    every cell of the call, the first time a record reads a value of theirs.
    """

    cells: list  # (comp, (cell,), raw composed row) per cell
    repaired: list[Certificate]

    @cached_property
    def raw(self) -> list[Certificate]:
        """The A pass: every raw row certified without local repair."""
        return _certify_rows(self.cells, len(self.cells), repair_locals=False)

    @cached_property
    def joint(self) -> list[Certificate]:
        """The C/D pass: the joint repairs of A, then those of B, certified again."""
        n = len(self.cells)
        rows = [(comp, (j,), cert.repaired[None]) for j, ((comp, _, _), cert)
                in enumerate(zip(self.cells + self.cells, self.raw + self.repaired))]
        return _certify_rows(rows, 2 * n, repair_locals=False)

    def quote(self, op: str, cell: int) -> tuple[float, ...]:
        """Operator ``op``'s quote of cell ``cell``."""
        cert = (self.repaired if op in ("B", "D") else self.raw)[cell]
        return tuple((cert.composed if op in ("A", "B") else cert.repaired).tolist())

    def eps(self, op: str, cell: int) -> float:
        """Operator ``op``'s certified residual of cell ``cell``."""
        if op == "B":
            return self.repaired[cell].epsilon_star
        if op == "A":
            return self.raw[cell].epsilon_star
        return self.joint[cell if op == "C" else len(self.cells) + cell].epsilon_star


class _ByOperator(Mapping):
    """One record's value per operator, read from its run's passes at each lookup."""

    __slots__ = ("_read", "_cell")

    def __init__(self, read, cell: int):
        self._read, self._cell = read, cell

    def __getitem__(self, op):
        if op not in OPERATORS:
            raise KeyError(op)
        return self._read(op, self._cell)

    def __contains__(self, op) -> bool:
        return op in OPERATORS

    def __iter__(self):
        return iter(OPERATORS)

    def __len__(self) -> int:
        return len(OPERATORS)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class EnsembleRecord:
    """One (clique, seed) cell of a ``run_ensemble`` call.

    ``quotes`` (each a tuple of floats) and ``eps`` are read-only mappings
    keyed by operator that compare equal to plain dicts of the same values;
    a value is worked out when it is read.
    """

    clique_id: str
    clique_index: int
    seed: int
    owners: tuple[int, ...]
    labels: tuple[int, ...]
    quotes: Mapping
    eps: Mapping
    certificate: Certificate


def run_ensemble(cliques: list[Clique], model: PanelModel, policy: RoutingPolicy,
                 n_seeds: int, master_seed: int = 0) -> list[EnsembleRecord]:
    """Route, aggregate, certify, and repair every (clique, seed) cell.

    Every cell is built first: the truths, the panels (one
    ``generate_panels`` call) and the routes each seed their streams in one
    pass, then the rows of each cell are gathered by owner (``aggregate``'s
    assembly). The core of ``residual_batch`` then certifies the locally
    repaired rows (B) at once: B backs each record's ``certificate``,
    ``quotes["B"]``, ``quotes["D"]`` and ``eps["B"]``. The raw rows (A) and
    the re-projection of the joint repairs of both (C, D) are certified
    lazily, each pass once over all cells, on the first read of any record's
    value that needs it: the A values and ``quotes["C"]`` need A, and
    ``eps["C"]`` and ``eps["D"]`` need the C/D pass, which runs A first.
    Every pass is one engine run per constraint system, and values equal
    the cell-by-cell ones bit for bit.

    A failure raised is that of the earliest failing cell. For catalog
    cliques no pass can fail: every local and joint set holds the
    relation's vertices and every panel row is finite, so what can fail is
    building the cells (a bias matrix of the wrong shape, an adversarial
    truth that cannot be sampled), before any pass runs.
    """
    cells = []
    truths = _clique_truths(model, [(clique, ci) for ci, clique in enumerate(cliques)],
                            master_seed)
    for ci, (clique, (truth, labels)) in enumerate(zip(cliques, truths)):
        cells += [(ci, clique, seed, truth, labels) for seed in range(n_seeds)]
    panels = generate_panels(model, [(clique, (master_seed, ci, seed), truth)
                                     for ci, clique, seed, truth, _ in cells])
    routes = _routes(policy, model.k, [(clique.relation, ci, seed)
                                       for ci, clique, seed, _, _ in cells])
    owners, raw, repaired = [], [], []
    for cell, ((_, clique, _, _, _), panel, layout) in enumerate(zip(cells, panels, routes)):
        routed = composition_for(clique, layout)
        chosen = (routed.owners, range(clique.relation.m))  # row owners[j] of column j
        owners.append(routed.owners)
        raw.append((routed.comp, (cell,), panel.raw[chosen][None]))
        repaired.append((routed.comp, (cell,), panel.repaired[chosen][None]))
    certs = _certify_rows(repaired, len(cells))
    passes = _EnsemblePasses(raw, certs)
    return [
        EnsembleRecord(
            clique_id=clique.id,
            clique_index=ci,
            seed=seed,
            owners=owners[j],
            labels=tuple(labels.tolist()),
            quotes=_ByOperator(passes.quote, j),
            eps=_ByOperator(passes.eps, j),
            certificate=certs[j],
        )
        for j, (ci, clique, seed, _, labels) in enumerate(cells)
    ]


def to_bet_records(records: list[EnsembleRecord], naive_op: str = "B",
                   repaired_op: str = "D") -> list[BetRecord]:
    """Bets pairing one operator's quote as naive against another as repaired.

    The certificate value attached is the naive operator's residual: the
    number a deployment would gate on before deciding to repair.
    """
    for op in (naive_op, repaired_op):
        if op not in OPERATORS:
            raise ValueError(f"unknown operator {op!r}")
    return [
        BetRecord(
            clique_id=r.clique_id,
            seed=r.seed,
            quote_naive=r.quotes[naive_op],
            quote_repaired=r.quotes[repaired_op],
            labels=r.labels,
            eps_star=r.eps[naive_op],
        )
        for r in records
    ]


@dataclass(frozen=True)
class HardnessRow:
    relation: str
    prevalence: float        # over all cells, single-owner routings included
    prevalence_split: float  # over cells whose coordinates span >= 2 owners
    mean_eps: float
    n: int


def hardness_experiment(model: PanelModel, relations: list[Relation], n_cliques: int,
                        n_seeds: int = 4, master_seed: int = 0) -> tuple[HardnessRow, ...]:
    """Positive-residual prevalence and mean residual, one row per relation in order.

    Uses one shared panel model so the per-coordinate variance is matched;
    the residual scored is the post-local-repair composed one.
    """
    rows = []
    for relation in relations:
        cliques = [
            Clique(id=f"{relation.kind.value}-{i}", relation=relation)
            for i in range(n_cliques)
        ]
        records = run_ensemble(cliques, model, RoutingPolicy("random-uniform"),
                               n_seeds, master_seed)
        eps = np.array([r.eps["B"] for r in records])
        split = np.array([len(set(r.owners)) > 1 for r in records])
        rows.append(
            HardnessRow(
                relation=relation.kind.value,
                prevalence=float(np.mean(eps > 1e-9)),
                prevalence_split=float(np.mean(eps[split] > 1e-9)) if split.any() else 0.0,
                mean_eps=float(eps.mean()),
                n=eps.size,
            )
        )
    return tuple(rows)


# --- scenario configs -------------------------------------------------------

class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class SimConfig:
    """Scenario settings parsed from a flat ``key = value`` file.

    The recognized keys are the fields: relations (comma list of
    neg/and/or/partition/ladder/paraphrase), m (arity for the variable-arity
    kinds, 2 to 12), n_cliques, panel_k, sigma, bias_scale, biases (explicit
    per-specialist offset rows, ``;``-separated specialists with
    comma-separated coordinates, overriding bias_scale), K (0 means the
    population limit), n_seeds, policy, master_seed, truth
    (coherent|adversarial), naive_operator, repaired_operator, n_draws
    (prediction command only, >= 1). Lines starting with ``#`` are comments.
    """

    relations: tuple[str, ...] = ("partition",)
    m: int = 4
    n_cliques: int = 16
    panel_k: int = 4
    sigma: float = 0.05
    bias_scale: float = 0.05
    biases: tuple[tuple[float, ...], ...] | None = None
    K: int = 8
    n_seeds: int = 4
    policy: str = "random-uniform"
    master_seed: int = 0
    truth: str = "coherent"
    naive_operator: str = "B"
    repaired_operator: str = "D"
    n_draws: int = 20000

    @classmethod
    def parse(cls, text: str) -> "SimConfig":
        problems: list[str] = []
        values, seen = {}, {}
        keys = {f.name for f in fields(cls)}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected 'key = value'")
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in keys:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            if key in values:
                problems.append(f"line {lineno}: duplicate key {key!r} (first on line {seen[key]})")
                continue
            values[key], seen[key] = value, lineno
        config = cls()
        if "relations" in values:
            kinds = tuple(v.strip() for v in values.pop("relations").split(",") if v.strip())
            bad = [k for k in kinds if k not in {r.value for r in RelationKind}]
            if bad:
                problems.append(f"relations: unknown kinds {bad}")
            else:
                config.relations = kinds
        for key in ("m", "n_cliques", "panel_k", "K", "n_seeds", "master_seed", "n_draws"):
            if key in values:
                try:  # a token that is no plain decimal literal matches None: TypeError
                    setattr(config, key, int(re.fullmatch(r"-?[0-9]+", values.pop(key))[0]))
                except (TypeError, ValueError):
                    problems.append(f"{key}: expected an integer")
        for key in ("sigma", "bias_scale"):
            if key in values:
                try:
                    setattr(config, key, finite_float(values.pop(key)))
                except ValueError:
                    problems.append(f"{key}: expected a finite number")
        if "biases" in values:
            try:
                rows = tuple(
                    tuple(finite_float(v) for v in row.split(","))
                    for row in values.pop("biases").split(";")
                    if row.strip()
                )
                if len({len(r) for r in rows}) > 1:
                    problems.append("biases: rows must share one length")
                else:
                    config.biases = rows
            except ValueError:
                problems.append("biases: expected ';'-separated rows of finite numbers")
        for key in ("policy", "truth", "naive_operator", "repaired_operator"):
            if key in values:
                setattr(config, key, values.pop(key))
        if config.policy not in POLICY_KINDS:
            problems.append(f"policy: must be one of {POLICY_KINDS}")
        if config.truth not in ("coherent", "adversarial"):
            problems.append("truth: must be coherent or adversarial")
        for key in ("naive_operator", "repaired_operator"):
            if getattr(config, key) not in OPERATORS:
                problems.append(f"{key}: must be one of {OPERATORS}")
        if config.biases is not None and len(config.biases) != config.panel_k:
            problems.append("biases: need one row per specialist (panel_k)")
        for key in ("panel_k", "n_cliques", "n_seeds", "n_draws"):
            if getattr(config, key) < 1:
                problems.append(f"{key}: must be >= 1")
        if config.sigma < 0:
            problems.append("sigma: must be >= 0")
        if config.K < 0:
            problems.append("K: must be >= 0 (0 means population limit)")
        variable_arity = any(RelationKind(k) not in _FIXED_ARITY for k in config.relations)
        if variable_arity and not _MIN_ARITY <= config.m <= ENUMERATION_LIMIT:
            problems.append(f"m: must be between {_MIN_ARITY} and {ENUMERATION_LIMIT}")
        if not config.relations:
            problems.append("relations: need at least one kind")
        arities = sorted({_FIXED_ARITY.get(RelationKind(k), config.m) for k in config.relations})
        if config.biases and len(config.biases) == config.panel_k \
                and arities != [len(config.biases[0])]:
            problems.append(f"biases: rows have {len(config.biases[0])} entries, "
                            f"the relations need {arities}")
        if problems:
            raise ConfigError(problems)
        return config

    def build_cliques(self) -> list[Clique]:
        cliques = []
        for kind_name in self.relations:
            kind = RelationKind(kind_name)
            relation = Relation(kind, _FIXED_ARITY.get(kind, self.m))
            for i in range(self.n_cliques):
                cliques.append(Clique(id=f"{kind.value}-{i:04d}", relation=relation))
        return cliques

    def build_model(self) -> PanelModel:
        return PanelModel(
            k=self.panel_k,
            sigma=self.sigma,
            bias_scale=self.bias_scale,
            biases=np.array(self.biases) if self.biases is not None else None,
            K=self.K if self.K > 0 else None,
            truth_mode=self.truth,
        )

    def build_policy(self) -> RoutingPolicy:
        return RoutingPolicy(self.policy, seed=self.master_seed)
