"""Anytime-valid sequential test on a stream of squared residuals.

Each step multiplies a per-lambda e-value by
``exp(lambda * (eps_sq - m/(4K)) - lambda^2 * m/(2K))``; under a coherent
population quote this is a nonnegative supermartingale, so the uniform
mixture crossing ``1/alpha`` rejects at level ``alpha`` at any stopping
time. Everything is accumulated in the log domain because e-values span
hundreds of orders of magnitude. ``EProcessState(...)`` checks a caller's
state; ``update`` checks each step and builds the next state unchecked.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

from .jsonio import _unchecked

LAMBDA_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_ALPHAS = (0.05, 1e-4)
_FLOAT_MAX = sys.float_info.max  # m / (4.0 * K) reads both counts as floats

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
        if not self.lambdas or not all(map(math.isfinite, self.lambdas)):
            raise ValueError(f"lambdas={list(self.lambdas)} must be one or more finite numbers")
        if not isinstance(self.t, int) or self.t < 0:
            raise ValueError(f"t={self.t!r} must be an integer >= 0")
        for name, values, per, noun in (("log_e", self.log_e, self.lambdas, "lambda"),
                                        ("crossed_at", self.crossed_at, self.alphas, "alpha")):
            if values and len(values) != len(per):
                raise ValueError(f"{name} has {len(values)} entries, needs one per {noun}")
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
    """Advance one step; malformed steps (m or K not a positive integer within float range,
    eps_sq non-finite or outside [0, m]) are rejected. The next state is built unchecked."""
    m, K, eps_sq = int(step.m), int(step.k_samples), float(step.eps_sq)
    if m != step.m or K != step.k_samples or not (1 <= m <= _FLOAT_MAX and 1 <= K <= _FLOAT_MAX):
        name = "m" if m != step.m or not 1 <= m <= _FLOAT_MAX else "K"
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
    crossed = state.crossed_at
    if None in crossed:  # a level that has crossed keeps its step
        crossed = tuple([t if prior is None and log_mix >= -math.log(alpha) else prior
                         for prior, alpha in zip(crossed, state.alphas)])
    peak = state.log_e_mix_max
    return _unchecked(EProcessState, lambdas=state.lambdas, log_e=log_e, t=t,
                      log_e_mix=log_mix, log_e_mix_max=log_mix if log_mix > peak else peak,
                      alphas=state.alphas, crossed_at=crossed)


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
