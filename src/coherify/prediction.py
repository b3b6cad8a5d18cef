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


def panel_stats(panel) -> PanelStats:
    """Panel mean and per-coordinate variance with 1/k normalization."""
    quotes = [np.asarray(q, dtype=float) for q in panel]
    k = len(quotes)
    if k < 2:
        raise ValueError("panel statistics need at least 2 quotes")
    dims = {q.shape for q in quotes}
    if len(dims) != 1:
        raise ValueError("panel quotes must share one dimension")
    P = np.stack(quotes)
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


def _draw_blocks(k: int, m: int, n_draws: int, seed: int):
    """``(start, index)`` per block of draws, ``index`` holding entry ``owner * m + j``
    of the flattened panel for each draw of the block and coordinate ``j``.

    An exhaustive block is every assignment of the trailing r owners under
    one of the rest, r the largest with ``k**r * m <= DRAW_BLOCK_ENTRIES``.
    """
    if k**m > EXHAUSTIVE_LIMIT:
        rng = np.random.default_rng(np.random.SeedSequence((abs(int(seed)), 0x0B5E)))
        index = rng.integers(0, k, size=(n_draws, m)) * m + np.arange(m)
        step = max(1, DRAW_BLOCK_ENTRIES // m)
        yield from ((start, index[start:start + step]) for start in range(0, n_draws, step))
        return
    r = max((r for r in range(m + 1) if k**r * m <= DRAW_BLOCK_ENTRIES), default=0)
    owners = np.indices((1,) * (m - r) + (k,) * r).reshape(m, k**r).T  # leading owners 0
    table = np.ascontiguousarray(owners) * m + np.arange(m)
    powers = k ** np.arange(m - 1, -1, -1)
    for start in range(0, k**m, k**r):  # the owners of draw ``start`` lead the block
        yield start, table + start // powers % k * m


def observe_magnitude_samples(comp: CompositionSpec, panel, n_draws: int = 10_000,
                              seed: int = 0) -> np.ndarray:
    """Per-draw squared residuals under uniform i.i.d. owner selection.

    Exhausts all k^m assignments when that is cheaper than sampling;
    otherwise draws ``n_draws`` (>= 1) assignment vectors from ``seed``.
    Draws are projected exactly, as certificates are
    (``composition._joint_projection``), which raises
    ``InfeasibleCouplingError`` when the joint set is empty. Each block of
    at most ``DRAW_BLOCK_ENTRIES`` entries is one ``take`` from the
    flattened panel; every row is projected and summed on its own, so the
    blocks do not change a bit.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    P = np.stack([np.asarray(q, dtype=float) for q in panel])
    k, m = P.shape
    if m != comp.joint_dim:
        raise ValueError("panel quotes must live on the joint coordinates")
    flat = P.ravel()
    out = np.empty(n_draws if k**m > EXHAUSTIVE_LIMIT else k**m)
    for start, index in _draw_blocks(k, m, n_draws, seed):
        X = flat.take(index)
        projected = _joint_projection(comp, X)
        np.subtract(X, projected, out=X)
        np.sum(np.square(X, out=X), axis=1, out=out[start:start + len(X)])
    return out


def observe_magnitude(comp: CompositionSpec, panel, n_draws: int = 10_000,
                      seed: int = 0) -> float:
    """Mean squared residual under uniform i.i.d. owner selection."""
    return float(np.mean(observe_magnitude_samples(comp, panel, n_draws, seed)))
