"""Synthetic specialist panels and routing for end-to-end evaluation runs.

A panel is built around a coherent truth quote sampled from the interior
of the relation's vertex hull; each specialist sees the truth through its
own bias vector, Gaussian noise, and a K-sample Bernoulli read-out, then
repairs its own quote locally. Routing policies assign joint coordinates
to specialists, and the ensemble runner scores the four composition
operators: A raw composed, B locally repaired composed, C raw plus joint
projection, D locally repaired plus joint projection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .composition import (
    SYSTEM_CACHE_SIZE,
    Certificate,
    ComponentSpec,
    CompositionSpec,
    _relation_coupling,
    residual_batch,
)
from .decision import BetRecord
from .jsonio import finite_float
from .polytope import (
    _FIXED_ARITY,
    _MIN_ARITY,
    ENUMERATION_LIMIT,
    Clique,
    PolytopeSpec,
    Relation,
    RelationKind,
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


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(abs(int(p)) for p in parts)))


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
    rng = _rng(master_seed, clique_index, 0x72)
    truth = sample_truth(clique.relation, rng, model.truth_mode)
    if clique.labels is not None:
        return truth, np.asarray(clique.labels, dtype=int)
    return truth, sample_labels(truth, rng)


@dataclass(frozen=True)
class Panel:
    truth: TruthDraw
    population: np.ndarray
    raw: np.ndarray
    repaired: np.ndarray


def population_quotes(model: PanelModel, clique: Clique, truth: TruthDraw,
                      rng: np.random.Generator) -> np.ndarray:
    m = clique.relation.m
    pop = truth.p_star[None, :] + model.bias_matrix(m)
    if model.sigma > 0:
        pop = pop + rng.normal(0.0, model.sigma, size=(model.k, m))
    return np.clip(pop, 0.0, 1.0)


def sample_k_marginals(population: np.ndarray, K: int | None,
                       rng: np.random.Generator) -> np.ndarray:
    if K is None:
        return population.copy()
    return rng.binomial(K, population) / K


def generate_panel(model: PanelModel, clique: Clique, seed,
                   truth: TruthDraw | None = None) -> Panel:
    """Population offsets, K-sample read-out, then per-specialist repair.

    The k specialist rows are repaired in one ``project_relation_batch``
    call; each row equals its own ``project_relation`` projection.
    """
    parts = seed if isinstance(seed, tuple) else (seed,)
    rng = _rng(*parts)
    if truth is None:
        truth = sample_truth(clique.relation, rng, model.truth_mode)
    population = population_quotes(model, clique, truth, rng)
    raw = sample_k_marginals(population, model.K, rng)
    repaired = project_relation_batch(clique.relation, raw)
    return Panel(truth=truth, population=population, raw=raw, repaired=repaired)


def route(policy: RoutingPolicy, k: int, relation: Relation,
          clique_index: int, seed: int) -> np.ndarray:
    """Owner per joint coordinate under the policy."""
    m = relation.m
    if policy.kind == "random-uniform":
        rng = _rng(policy.seed, clique_index, seed, 0x707E)
        return rng.integers(0, k, size=m)
    if policy.kind == "structured-by-relation":
        offset = _RELATION_OFFSET[relation.kind]
        return (offset + np.arange(m)) % k
    return np.full(m, seed % k, dtype=int)


@dataclass(frozen=True)
class RoutedComposition:
    comp: CompositionSpec
    specialists: tuple[int, ...]  # panel row backing each component
    owners: tuple[int, ...]       # panel row owning each joint coordinate


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _free_box(dim: int) -> PolytopeSpec:
    return PolytopeSpec(dim=dim)


def composition_for(clique: Clique, owners: np.ndarray) -> RoutedComposition:
    """Composition spec for one routing of a clique.

    A specialist that owns every coordinate contributes its full local
    polytope (its internal repair covers the whole relation); partial
    owners contribute free boxes, and the relation itself enters as the
    coupling cut over the joint coordinates. The polytopes, boxes and cuts
    are the cached ones, so every layout of one relation shares them.
    """
    relation = clique.relation
    m = relation.m
    owners = np.asarray(owners, dtype=int)
    specialists = tuple(sorted(set(owners.tolist())))
    components = []
    for s in specialists:
        coords = tuple(np.nonzero(owners == s)[0].tolist())
        polytope = _polytope(relation) if len(coords) == m else _free_box(len(coords))
        components.append(ComponentSpec(polytope, coords))
    comp = CompositionSpec(tuple(components), _relation_coupling(relation, tuple(range(m))), m)
    return RoutedComposition(comp, specialists, tuple(owners.tolist()))


@dataclass(frozen=True)
class EnsembleRecord:
    clique_id: str
    clique_index: int
    seed: int
    owners: tuple[int, ...]
    labels: tuple[int, ...]
    quotes: dict
    eps: dict
    certificate: Certificate


def _restrict(panel_rows: np.ndarray, routed: RoutedComposition) -> list[np.ndarray]:
    return [
        panel_rows[s][list(component.coords)]
        for s, component in zip(routed.specialists, routed.comp.components)
    ]


def run_ensemble(cliques: list[Clique], model: PanelModel, policy: RoutingPolicy,
                 n_seeds: int, master_seed: int = 0) -> list[EnsembleRecord]:
    """Route, aggregate, certify, and repair every (clique, seed) cell.

    Every cell is built first. Then one ``residual_batch`` call certifies
    the raw compositions (A), one the locally repaired ones (B), and one
    re-projects the joint repairs of both (C, D), so each constraint
    system gets one engine run per call, and C and D raise, as every
    certificate does, when a re-projection misses the iteration cap.
    Values equal the cell-by-cell ones bit for bit. A failure raised is
    that of the earliest failing cell among all A, then B, then C and D.
    """
    cells, raw, repaired = [], [], []
    for ci, clique in enumerate(cliques):
        truth, labels = clique_truth(model, clique, master_seed, ci)
        for seed in range(n_seeds):
            panel = generate_panel(model, clique, (master_seed, ci, seed), truth=truth)
            routed = composition_for(clique, route(policy, model.k, clique.relation, ci, seed))
            cells.append((ci, clique.id, seed, labels, routed.owners))
            raw.append((routed.comp, _restrict(panel.raw, routed)))
            repaired.append((routed.comp, _restrict(panel.repaired, routed)))
    certs_raw = residual_batch(raw, repair_locals=False)
    certs = residual_batch(repaired)
    joint = [(comp, [cert.repaired[list(c.coords)] for c in comp.components])
             for (comp, _), cert in zip(raw + raw, certs_raw + certs)]
    certs_joint = residual_batch(joint, repair_locals=False)
    n = len(cells)
    records = []
    for j, (ci, clique_id, seed, labels, owners) in enumerate(cells):
        cert_raw, cert = certs_raw[j], certs[j]
        quotes = {"A": cert_raw.composed, "B": cert.composed,
                  "C": cert_raw.repaired, "D": cert.repaired}
        eps = {"A": cert_raw.epsilon_star, "B": cert.epsilon_star,
               "C": certs_joint[j].epsilon_star, "D": certs_joint[n + j].epsilon_star}
        records.append(
            EnsembleRecord(
                clique_id=clique_id,
                clique_index=ci,
                seed=seed,
                owners=owners,
                labels=tuple(int(v) for v in labels),
                quotes={k: tuple(float(x) for x in v) for k, v in quotes.items()},
                eps=eps,
                certificate=cert,
            )
        )
    return records


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


@dataclass(frozen=True)
class HardnessReport:
    rows: tuple[HardnessRow, ...]

    def by_relation(self) -> dict[str, HardnessRow]:
        return {r.relation: r for r in self.rows}


def hardness_experiment(model: PanelModel, relations: list[Relation], n_cliques: int,
                        n_seeds: int = 4, master_seed: int = 0) -> HardnessReport:
    """Positive-residual prevalence and mean residual per relation.

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
    return HardnessReport(tuple(rows))


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
        values: dict = {}
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
            values[key] = value
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
                try:
                    setattr(config, key, int(values.pop(key)))
                except ValueError:
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
