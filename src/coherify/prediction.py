"""Predicting the typical squared residual from panel covariance alone.

Under uniform i.i.d. owner selection the composed quote mixes panel
members coordinate by coordinate, so the per-coordinate panel variances D
are the effective covariance. With a single binding constraint of normal
``a`` the expected squared residual is ``kappa * a'Da / |a|^2``: kappa is
1 for equality cuts, 1/2 for an inequality whose boundary passes through
the panel mean with a symmetric panel, and the value is only an estimate,
neither exact nor a bound, when the panel mean sits strictly inside.
``tr(D)`` bounds the expectation with no geometry at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composition import CompositionSpec, _joint_projection
from .polytope import Relation, RelationKind
from .projection import _coupled_halfspaces

EXHAUSTIVE_LIMIT = 65_536
# entries per block of projected draws: 64 KiB of float64 per temporary, under glibc's
# default 128 KiB mmap threshold, so the blocks reuse heap memory instead of fresh pages
DRAW_BLOCK_ENTRIES = 8192
BOUNDARY_TOL = 1e-9

REGIME_EQUALITY = "equality"
REGIME_BOUNDARY = "boundary-inequality"
REGIME_INTERIOR = "interior-inequality"
REGIME_GENERIC = "generic"


@dataclass(frozen=True)
class PanelStats:
    panel_mean: np.ndarray
    diag_cov: np.ndarray
    k: int

    def __post_init__(self):
        self.panel_mean.setflags(write=False)
        self.diag_cov.setflags(write=False)


@dataclass(frozen=True)
class MagnitudePrediction:
    predicted_sq_residual: float
    kappa: float
    normal: np.ndarray | None
    regime: str


def _panel_matrix(panel) -> np.ndarray:
    """The panel's quotes as the rows of one matrix, refused unless there is at least
    one, they share one dimension and every entry is finite."""
    quotes = [np.asarray(q, dtype=float) for q in panel]
    if not quotes:
        raise ValueError("panel holds no quotes")
    if len({q.shape for q in quotes}) > 1:
        raise ValueError("panel quotes must share one dimension")
    P = np.stack(quotes)
    finite = np.isfinite(P)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"panel quote {i} holds {P[i, j]} at coordinate {j}: "
                         "entries must be finite")
    return P


def panel_stats(panel) -> PanelStats:
    """Panel mean and per-coordinate variance with 1/k normalization."""
    panel = list(panel)
    if len(panel) < 2:
        raise ValueError("panel statistics need at least 2 quotes")
    P = _panel_matrix(panel)
    k = len(P)
    mean = P.mean(axis=0)
    diag = np.mean((P - mean) ** 2, axis=0)
    return PanelStats(mean, diag, k)


def predict_magnitude(stats: PanelStats, relation: Relation) -> MagnitudePrediction:
    """Rayleigh-quotient magnitude prediction for one relation.

    Equality relations use their full-support normal with kappa 1. The
    Frechet and ladder relations pick the defining halfspace with smallest
    slack at the panel mean (ties to the lowest constraint id) and kappa
    1/2; with the panel mean strictly inside, the value is an estimate the
    residual can exceed, flagged through the regime.
    """
    D = stats.diag_cov
    m = D.size
    kind = relation.kind
    if kind is RelationKind.NEGATION:
        a = np.ones(2)
        return MagnitudePrediction(float(a @ (D * a)) / 2.0, 1.0, a, REGIME_EQUALITY)
    if kind is RelationKind.PARTITION:
        a = np.ones(m)
        return MagnitudePrediction(float(D.sum()) / m, 1.0, a, REGIME_EQUALITY)
    if kind is RelationKind.PARAPHRASE:
        return MagnitudePrediction(float(D.sum()), 1.0, None, REGIME_GENERIC)
    candidates = [(np.asarray(c.a, dtype=float), c.b) for _, c in _coupled_halfspaces(relation)]
    slacks = [b - float(a @ stats.panel_mean) for a, b in candidates]
    pick = int(np.argmin(slacks))
    a, _ = candidates[pick]
    slack = slacks[pick]
    regime = REGIME_BOUNDARY if slack <= BOUNDARY_TOL else REGIME_INTERIOR
    rayleigh = float(a @ (D * a)) / float(a @ a)
    return MagnitudePrediction(0.5 * rayleigh, 0.5, a, regime)


def _distinct_quotes(P: np.ndarray) -> tuple[list[np.ndarray], list[list[int]]]:
    """Per coordinate, its distinct quotes and each owner's position among them.
    Quotes count as one only when their bit patterns match, so 0.0 and -0.0 stay apart."""
    values, codes = [], []
    for quotes in P.view(np.uint64).T.tolist():
        seen = {}
        codes.append([seen.setdefault(bits, len(seen)) for bits in quotes])
        values.append(np.array(list(seen), dtype=np.uint64).view(np.float64))
    return values, codes


def _squared_residuals(comp: CompositionSpec, n: int, rows) -> np.ndarray:
    """Squared distance of rows ``rows(s, e)``, for ``s < e <= n``, to their exact
    joint projection, projected in blocks of at most ``DRAW_BLOCK_ENTRIES`` entries."""
    out = np.empty(n)
    step = max(1, DRAW_BLOCK_ENTRIES // comp.joint_dim)
    for s in range(0, n, step):
        X = rows(s, min(s + step, n))
        projected = _joint_projection(comp, X)
        np.subtract(X, projected, out=X)
        np.sum(np.square(X, out=X), axis=1, out=out[s:s + len(X)])
    return out


def observe_magnitude_samples(comp: CompositionSpec, panel, n_draws: int = 10_000,
                              seed: int = 0) -> np.ndarray:
    """Per-draw squared residuals under uniform i.i.d. owner selection.

    Exhausts all k^m assignments when that is cheaper than sampling;
    otherwise draws ``n_draws`` (>= 1) assignment vectors from ``seed``.
    Draws are projected exactly, as certificates are
    (``composition._joint_projection``), which raises
    ``InfeasibleCouplingError`` when the joint set is empty. A panel entry
    that is NaN or infinite is refused before any projection.

    The exhaustive branch projects each row of the mixed-radix product of
    every coordinate's distinct quotes (by bit pattern, so 0.0 and -0.0 stay
    apart) once, and every assignment, in ``itertools.product`` order, gathers
    its value from its row. Rows are projected and summed on their own in
    blocks of at most ``DRAW_BLOCK_ENTRIES`` entries, so neither the blocks
    nor the repeated rows change a bit.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    P = _panel_matrix(panel)
    k, m = P.shape
    if m != comp.joint_dim:
        raise ValueError("panel quotes must live on the joint coordinates")
    if k**m > EXHAUSTIVE_LIMIT:
        rng = np.random.default_rng(np.random.SeedSequence((abs(int(seed)), 0x0B5E)))
        owners = rng.integers(0, k, size=(n_draws, m))
        return _squared_residuals(comp, n_draws, lambda s, e: P[owners[s:e], np.arange(m)])
    values, codes = _distinct_quotes(P)
    radices = [len(v) for v in values]
    distinct = _squared_residuals(comp, math.prod(radices), lambda s, e: np.stack(
        [v[d] for v, d in zip(values, np.unravel_index(np.arange(s, e), radices))], axis=1))
    index = np.zeros(1, dtype=np.intp)
    for radix, code in zip(radices, codes):
        index = (index[:, None] * radix + code).ravel()
    return distinct[index]


def observe_magnitude(comp: CompositionSpec, panel, n_draws: int = 10_000,
                      seed: int = 0) -> float:
    """Mean squared residual under uniform i.i.d. owner selection."""
    return float(np.mean(observe_magnitude_samples(comp, panel, n_draws, seed)))
