"""Downstream decisions on composed quotes: exposure, bets, regret, gating.

Brier scores are per-coordinate means (divide by m) so cliques of
different sizes compare; every summary declares this. Log payoffs use a
small weight floor to stay finite when an allocation zeroes the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import json_field
from .polytope import Relation, RelationKind
from .projection import project_simplex

BRIER_NORMALIZATION = "per-coordinate-mean"
DEFAULT_LOG_FLOOR = 1e-6
GATE_MIN_BETS = 40  # fewest bets gate_sweep calibrates on
GATE_FOLDS = 5  # gate_sweep's cross-validation folds
REGRET_BOOTSTRAPS = 1000  # regret's paired-bootstrap resamples
HARM_TOL = 1e-9  # nats a harm bet's regret must clear the threshold by; above round-off


@dataclass(frozen=True)
class BetRecord:
    clique_id: str
    seed: int
    quote_naive: tuple[float, ...]
    quote_repaired: tuple[float, ...]
    labels: tuple[int, ...]
    eps_star: float
    unique_yes: int | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "quote_naive", tuple(float(v) for v in self.quote_naive))
        object.__setattr__(self, "quote_repaired", tuple(float(v) for v in self.quote_repaired))
        labels = tuple(int(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(self.quote_naive) != len(labels) or len(self.quote_repaired) != len(labels):
            raise ValueError("quotes and labels must share one dimension")
        if any(v not in (0, 1) for v in labels):
            raise ValueError("labels must be 0/1")
        yes = [i for i, v in enumerate(labels) if v == 1]
        object.__setattr__(self, "unique_yes", yes[0] if len(yes) == 1 else None)

    def to_json(self) -> dict:
        return {
            "clique_id": self.clique_id,
            "seed": self.seed,
            "naive": list(self.quote_naive),
            "repaired": list(self.quote_repaired),
            "labels": list(self.labels),
            "eps_star": self.eps_star,
        }

    @classmethod
    def from_json(cls, record: dict) -> "BetRecord":
        return cls(
            clique_id=json_field(record, "clique_id", str),
            seed=json_field(record, "seed", int),
            quote_naive=json_field(record, "naive", [float]),
            quote_repaired=json_field(record, "repaired", [float]),
            labels=json_field(record, "labels", [int]),
            eps_star=json_field(record, "eps_star", float),
        )


_ALLOCATION_KINDS = ("proportional", "truncated-kelly", "max-entropy")


@dataclass(frozen=True)
class AllocationRule:
    kind: str = "proportional"
    w_min: float = DEFAULT_LOG_FLOOR
    kelly_cap: float = 0.99

    def __post_init__(self):
        if self.kind not in _ALLOCATION_KINDS:
            raise ValueError(f"unknown allocation rule {self.kind!r}")


def exposure(relation: Relation, q) -> float:
    """Guaranteed extractable loss from quoting ``q`` on the relation's contracts.

    Sum-constrained relations pay the absolute mass gap; the Frechet
    relations pay their one-sided bound violations; the ladder pays every
    positive step-up along the chain.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (relation.m,):
        raise ValueError(f"quote has shape {q.shape}, relation needs ({relation.m},)")
    kind = relation.kind
    if kind in (RelationKind.NEGATION, RelationKind.PARTITION):
        return float(abs(q.sum() - 1.0))
    if kind is RelationKind.CONJUNCTION:
        upper = max(0.0, float(q[2] - min(q[0], q[1])))
        lower = max(0.0, max(0.0, float(q[0] + q[1] - 1.0)) - float(q[2]))
        return upper + lower
    if kind is RelationKind.DISJUNCTION:
        lower = max(0.0, float(max(q[0], q[1]) - q[2]))
        upper = max(0.0, float(q[2]) - min(1.0, float(q[0] + q[1])))
        return lower + upper
    if kind is RelationKind.LADDER:
        return float(np.sum(np.maximum(np.diff(q), 0.0)))
    raise ValueError(f"no exposure statistic for relation {kind.value}")


def allocate(rule: AllocationRule, q) -> np.ndarray:
    """Bet weights from a quote; nonnegative, sum to one.

    proportional passes the quote through (uniform when nothing is
    positive); truncated-kelly and max-entropy first coherentise the quote
    by simplex projection, the former then capping and renormalizing.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("quote must be finite")
    if rule.kind == "proportional":
        pos = np.maximum(q, 0.0)
        total = pos.sum()
        if total <= 0.0:
            return np.full(q.size, 1.0 / q.size)
        return pos / total
    w = project_simplex(q)
    if rule.kind == "truncated-kelly":
        w = np.minimum(w, rule.kelly_cap)
        w = w / w.sum()
    return w


def brier(quote, labels) -> float:
    quote = np.asarray(quote, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return float(np.mean((quote - labels) ** 2))


def log_payoff_delta(bet: BetRecord, rule: AllocationRule) -> float:
    """Repaired-minus-naive realized log payoff; zero without a unique YES."""
    if bet.unique_yes is None:
        return 0.0
    w_naive = allocate(rule, bet.quote_naive)
    w_rep = allocate(rule, bet.quote_repaired)
    i = bet.unique_yes
    return math.log(max(w_rep[i], rule.w_min)) - math.log(max(w_naive[i], rule.w_min))


def _bootstrap_ci(values: np.ndarray, seed: int) -> tuple[float, float]:
    rng = np.random.default_rng(np.random.SeedSequence((abs(int(seed)), 0xB007)))
    n = values.size
    idx = rng.integers(0, n, size=(REGRET_BOOTSTRAPS, n))
    means = values[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


@dataclass(frozen=True)
class RegretSummary:
    n: int
    n_unique_yes: int
    rule: str
    mean_delta_brier: float
    ci_delta_brier: tuple[float, float]
    mean_delta_log: float | None
    ci_delta_log: tuple[float, float] | None
    mean_delta_log_all: float
    brier_naive: float
    brier_repaired: float
    brier_normalization: str = BRIER_NORMALIZATION


def regret(bets: list[BetRecord], rule: AllocationRule | None = None,
           seed: int = 0) -> RegretSummary:
    """Paired naive-vs-repaired scoring over resolved bets.

    Delta Brier is repaired minus naive, so negative means the repair
    helped. Log-payoff deltas are computed on the unique-YES subset and
    also averaged over all bets (zeros elsewhere); confidence intervals
    are a paired bootstrap (``REGRET_BOOTSTRAPS`` resamples) over
    (clique, seed) records.
    """
    if not bets:
        raise ValueError("no bets to score")
    rule = rule or AllocationRule()
    b_naive = np.array([brier(b.quote_naive, b.labels) for b in bets])
    b_rep = np.array([brier(b.quote_repaired, b.labels) for b in bets])
    delta_brier = b_rep - b_naive
    dlog_all = np.array([log_payoff_delta(b, rule) for b in bets])
    unique_mask = np.array([b.unique_yes is not None for b in bets])
    summary_dlog: float | None = None
    ci_dlog: tuple[float, float] | None = None
    if unique_mask.any():
        dlog_unique = dlog_all[unique_mask]
        summary_dlog = float(dlog_unique.mean())
        ci_dlog = _bootstrap_ci(dlog_unique, seed)
    return RegretSummary(
        n=len(bets),
        n_unique_yes=int(unique_mask.sum()),
        rule=rule.kind,
        mean_delta_brier=float(delta_brier.mean()),
        ci_delta_brier=_bootstrap_ci(delta_brier, seed + 1),
        mean_delta_log=summary_dlog,
        ci_delta_log=ci_dlog,
        mean_delta_log_all=float(dlog_all.mean()),
        brier_naive=float(b_naive.mean()),
        brier_repaired=float(b_rep.mean()),
    )


def mann_whitney_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-based AUC of ``scores`` against a binary flag, ties at half credit.

    Scores tie only when exactly equal, and a tied pair counts half. A
    ulp-level move in a repaired quote can therefore split or join a tie
    and move the AUC.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    n1 = int(positives.sum())
    n0 = positives.size - n1
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC needs both classes present")
    # a tie group at sorted positions i..j (count c) shares rank (i+j)/2 + 1 = j + 1 - (c-1)/2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    r1 = ranks[positives].sum()
    u = r1 - n1 * (n1 + 1) / 2.0
    return float(u / (n1 * n0))


@dataclass(frozen=True)
class OperatingPoint:
    capture_target: float
    tau: float
    alert_rate: float
    capture: float
    fpr: float


@dataclass(frozen=True)
class CVStability:
    """Fold statistics of one capture target; None when no fold could be scored.

    A fold is scored when both its training and its test part hold a harm
    bet, so a sweep with a single harm bet scores none.
    """

    capture_target: float
    mean_capture: float | None
    std_capture: float | None
    mean_alert_rate: float | None
    std_alert_rate: float | None


@dataclass(frozen=True)
class GateReport:
    n: int
    auc: float
    harm_rate: float
    harm_threshold: float
    operating_points: tuple[OperatingPoint, ...]
    cv: tuple[CVStability, ...]


def _tau_for_capture(harm_eps: np.ndarray, target: float) -> float:
    """Largest threshold (alert when eps >= tau) still capturing the target share."""
    sorted_eps = np.sort(harm_eps)
    n = sorted_eps.size
    k = n - int(math.ceil(target * n))
    k = min(max(k, 0), n - 1)
    return float(sorted_eps[k])


def gate_sweep(bets: list[BetRecord], rule: AllocationRule | None = None,
               capture_targets=(0.9, 0.5), seed: int = 0) -> GateReport:
    """Threshold sweep of the certificate against realized log-payoff harm.

    Harm is the top quartile of per-bet repaired-minus-naive log payoff: a
    bet whose regret exceeds the 0.75 quantile by more than ``HARM_TOL``,
    so round-off in a repaired quote cannot split bets tied at the
    quantile.
    Reports the rank AUC, an operating point per capture target, and a
    stratified ``GATE_FOLDS``-fold cross-validation stability check of
    those thresholds, whose figures are None when too few harm bets fall
    in the folds.
    Each capture target must lie in (0, 1].
    """
    for target in capture_targets:
        if not 0.0 < target <= 1.0:  # also false for NaN
            raise ValueError(f"capture target {target!r} is outside (0, 1]")
    if len(bets) < GATE_MIN_BETS:
        raise ValueError(f"gate calibration needs at least {GATE_MIN_BETS} bets")
    rule = rule or AllocationRule()
    regrets = np.array([log_payoff_delta(b, rule) for b in bets])
    eps = np.array([b.eps_star for b in bets])
    harm_threshold = float(np.quantile(regrets, 0.75))
    harm = regrets > harm_threshold + HARM_TOL
    if harm.all() or not harm.any():
        raise ValueError("harm labels are degenerate (all or none); cannot calibrate")
    auc = mann_whitney_auc(eps, harm)
    points = []
    for target in capture_targets:
        tau = _tau_for_capture(eps[harm], target)
        alert = eps >= tau
        points.append(
            OperatingPoint(
                capture_target=float(target),
                tau=tau,
                alert_rate=float(alert.mean()),
                capture=float(alert[harm].mean()),
                fpr=float(alert[~harm].mean()),
            )
        )
    rng = np.random.default_rng(np.random.SeedSequence((abs(int(seed)), 0x6A7E)))
    folds = np.zeros(len(bets), dtype=int)
    for label in (False, True):
        idx = np.nonzero(harm == label)[0]
        rng.shuffle(idx)
        folds[idx] = np.arange(idx.size) % GATE_FOLDS
    cv = []
    for target in capture_targets:
        captures, alerts = [], []
        for f in range(GATE_FOLDS):
            train, test = folds != f, folds == f
            if not harm[train].any() or not harm[test].any():
                continue
            tau = _tau_for_capture(eps[train & harm], target)
            alert = eps[test] >= tau
            captures.append(float(alert[harm[test]].mean()))
            alerts.append(float(alert.mean()))
        if not captures:  # too few harm bets to stratify
            cv.append(CVStability(float(target), None, None, None, None))
            continue
        cv.append(
            CVStability(
                capture_target=float(target),
                mean_capture=float(np.mean(captures)),
                std_capture=float(np.std(captures)),
                mean_alert_rate=float(np.mean(alerts)),
                std_alert_rate=float(np.std(alerts)),
            )
        )
    return GateReport(
        n=len(bets),
        auc=auc,
        harm_rate=float(harm.mean()),
        harm_threshold=harm_threshold,
        operating_points=tuple(points),
        cv=tuple(cv),
    )


@dataclass(frozen=True)
class MurphyDecomposition:
    """rel - res + unc identity holds for the bin-mean forecast's Brier.

    ``brier`` is that binned score; it coincides with the raw score
    exactly when forecasts are constant within bins.
    """

    rel: float
    res: float
    unc: float
    brier: float


def murphy(quotes, labels, n_bins: int = 10) -> MurphyDecomposition:
    """Reliability/resolution/uncertainty split over equal-width forecast bins.

    A forecast ``p`` in [0, 1] falls in bin ``floor(p * n_bins)``, capped at
    the last bin so that it also takes ``p = 1``; a forecast on an inner bin
    edge such as 0.5 belongs to the bin above it. A ulp-level move in a
    repaired quote can therefore cross an edge and move the split.
    """
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    p = np.asarray(quotes, dtype=float).ravel()
    y = np.asarray(labels, dtype=float).ravel()
    if p.shape != y.shape:
        raise ValueError("quotes and labels must align")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary")
    bins = np.minimum((p * n_bins).astype(int), n_bins - 1)
    n = p.size
    ybar = float(y.mean())
    rel = res = 0.0
    binned_forecast = np.empty(n)
    for b in np.unique(bins):
        mask = bins == b
        nk = int(mask.sum())
        pk = float(p[mask].mean())
        yk = float(y[mask].mean())
        rel += nk / n * (pk - yk) ** 2
        res += nk / n * (yk - ybar) ** 2
        binned_forecast[mask] = pk
    unc = ybar * (1.0 - ybar)
    return MurphyDecomposition(rel, res, unc, float(np.mean((binned_forecast - y) ** 2)))


@dataclass(frozen=True)
class DMResult:
    stat: float
    p: float
    degenerate: bool = False


def diebold_mariano(loss_a, loss_b) -> DMResult:
    """Paired mean-loss-differential test, lag-0 variance, two-sided normal p."""
    a = np.asarray(loss_a, dtype=float)
    b = np.asarray(loss_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("loss series must be equal-length vectors")
    n = a.size
    if n < 30:
        raise ValueError("need at least 30 paired losses")
    d = a - b
    mean = float(d.mean())
    var = float(d.var(ddof=1))
    if var == 0.0:
        if mean == 0.0:
            return DMResult(0.0, 1.0, degenerate=False)
        return DMResult(math.copysign(math.inf, mean), 0.0, degenerate=True)
    stat = mean / math.sqrt(var / n)
    p = math.erfc(abs(stat) / math.sqrt(2.0))
    return DMResult(stat, p, degenerate=False)
