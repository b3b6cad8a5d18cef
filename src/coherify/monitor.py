"""Anytime-valid sequential test on a stream of squared residuals.

Each step multiplies a per-lambda e-value by
``exp(lambda * (eps_sq - m/(4K)) - lambda^2 * m/(2K))``; under a coherent
population quote this is a nonnegative supermartingale, so the uniform
mixture crossing ``1/alpha`` rejects at level ``alpha`` at any stopping
time. Everything is accumulated in the log domain because e-values span
hundreds of orders of magnitude.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

LAMBDA_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_ALPHAS = (0.05, 1e-4)

CONTINUE = "continue"
REJECT_NULL = "reject_null"


@dataclass(frozen=True)
class StreamStep:
    """One residual observation: eps_sq in [0, m], with K samples per question.

    Composed-system streams substitute the joint question count for ``m``
    and the minimum per-component sample count for ``k_samples``.
    """

    eps_sq: float
    m: int
    k_samples: int


@dataclass(frozen=True)
class EProcessState:
    """Running per-lambda log e-values plus their uniform mixture.

    Immutable; ``update`` returns a fresh state, so replaying a step
    sequence is bit-for-bit reproducible.
    """

    lambdas: tuple[float, ...] = LAMBDA_GRID
    log_e: tuple[float, ...] = ()
    t: int = 0
    log_e_mix: float = 0.0
    log_e_mix_max: float = 0.0
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    crossed_at: tuple[int | None, ...] = ()

    def __post_init__(self):
        for alpha in self.alphas:
            if not 0.0 < alpha < 1.0:
                raise ValueError(f"alpha={alpha} must be in (0, 1)")
        if not self.log_e:
            object.__setattr__(self, "log_e", tuple(0.0 for _ in self.lambdas))
        if not self.crossed_at:
            object.__setattr__(self, "crossed_at", tuple(None for _ in self.alphas))

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, payload: str) -> "EProcessState":
        fields = json.loads(payload)
        return cls(**{k: tuple(v) if type(v) is list else v for k, v in fields.items()})


def update(state: EProcessState, step: StreamStep) -> EProcessState:
    """Advance one step; malformed steps (eps_sq non-finite or outside [0, m]) are rejected."""
    m = int(step.m)
    K = int(step.k_samples)
    eps_sq = float(step.eps_sq)
    for name, n in (("m", m), ("K", K)):
        if not 1 <= n <= sys.float_info.max:  # m / (4.0 * K) reads both as floats
            raise ValueError(f"{name} must be a positive integer within float range")
    if not 0.0 <= eps_sq <= m:  # also false for NaN
        raise ValueError(f"eps_sq={eps_sq} outside the admissible range [0, {m}]")
    centered = eps_sq - m / (4.0 * K)
    spread = m / (2.0 * K)
    log_e = tuple([le + lam * centered - lam * lam * spread
                   for le, lam in zip(state.log_e, state.lambdas)])
    hi = max(log_e)  # log-sum-exp of log_e, shifted by its largest term
    if hi != -math.inf:
        hi += math.log(sum([math.exp(v - hi) for v in log_e]))
    log_mix = hi - math.log(len(log_e))
    t = state.t + 1
    crossed = tuple([t if prior is None and log_mix >= -math.log(alpha) else prior
                     for prior, alpha in zip(state.crossed_at, state.alphas)])
    return EProcessState(
        lambdas=state.lambdas,
        log_e=log_e,
        t=t,
        log_e_mix=log_mix,
        log_e_mix_max=max(state.log_e_mix_max, log_mix),
        alphas=state.alphas,
        crossed_at=crossed,
    )


def optimal_lambda(delta: float, m: int, K: int) -> float:
    """The growth-optimal bet for a mean exceedance of delta: delta*K/m."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return delta * K / m


def decide(state: EProcessState, alpha: float) -> str:
    """Reject when the mixture has ever reached 1/alpha (running supremum)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return REJECT_NULL if state.log_e_mix_max >= -math.log(alpha) else CONTINUE
