import dataclasses
import functools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.monitor import (
    CONTINUE,
    LAMBDA_GRID,
    REJECT_NULL,
    EProcessState,
    StreamStep,
    decide,
    optimal_lambda,
    update,
)


def test_update_increment_at_null_center():
    # eps_sq = m/(4K) zeroes the linear term; only the quadratic penalty remains
    state = EProcessState(lambdas=(1.0,), alphas=(0.05,))
    state = update(state, StreamStep(eps_sq=2 / 32, m=2, k_samples=8))
    assert state.log_e[0] == pytest.approx(-0.125, abs=1e-15)


def test_update_increment_at_zero_residual():
    state = EProcessState(lambdas=(1.0,), alphas=(0.05,))
    state = update(state, StreamStep(eps_sq=0.0, m=2, k_samples=8))
    assert state.log_e[0] == pytest.approx(-0.1875, abs=1e-15)


def test_update_rejects_out_of_range_eps():
    state = EProcessState()
    with pytest.raises(ValueError):
        update(state, StreamStep(eps_sq=2.5, m=2, k_samples=8))
    with pytest.raises(ValueError):
        update(state, StreamStep(eps_sq=-0.1, m=2, k_samples=8))


def test_update_rejects_non_finite_eps():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            update(EProcessState(), StreamStep(eps_sq=bad, m=2, k_samples=8))


def test_update_refuses_counts_beyond_float_range():
    huge = 10 ** 400
    for m, K, field in ((huge, 8, "m"), (2, huge, "K"), (0, 8, "m"), (2, 0, "K")):
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
            update(EProcessState(), StreamStep(eps_sq=0.1, m=m, k_samples=K))
    largest = int(sys.float_info.max)  # still converts, so it is taken
    assert update(EProcessState(), StreamStep(eps_sq=0.1, m=largest, k_samples=8)).t == 1


def test_optimal_lambda_values():
    assert optimal_lambda(0.1, 2, 8) == pytest.approx(0.4)
    assert optimal_lambda(0.0, 2, 8) == 0.0
    assert optimal_lambda(1.0, 8, 8) == pytest.approx(1.0)


def test_decide_fresh_state_continues():
    assert decide(EProcessState(), 0.05) == CONTINUE


def test_decide_rejects_at_threshold():
    state = EProcessState()
    object.__setattr__(state, "log_e_mix_max", math.log(1e4))
    assert decide(state, 1e-4) == REJECT_NULL


def test_decide_uses_running_supremum():
    state = EProcessState()
    object.__setattr__(state, "log_e_mix_max", math.log(30.0))
    object.__setattr__(state, "log_e_mix", 0.0)  # currently back below
    assert decide(state, 0.05) == REJECT_NULL


def test_decide_stays_continue_below_one():
    state = EProcessState()
    for _ in range(100):
        state = update(state, StreamStep(eps_sq=0.01, m=2, k_samples=8))
    assert state.log_e_mix_max <= 0.0 or state.log_e_mix_max < math.log(20)
    assert decide(state, 0.05) == CONTINUE


def test_crossing_indices_recorded_once():
    state = EProcessState(lambdas=(0.5,), alphas=(0.5,))
    hot = StreamStep(eps_sq=2.0, m=2, k_samples=8)
    s = state
    for _ in range(10):
        s = update(s, hot)
    first = s.crossed_at[0]
    assert first is not None
    again = update(s, hot)
    assert again.crossed_at[0] == first


def test_update_folded_over_steps_matches_stepwise_bit_for_bit():
    rng = np.random.default_rng(0)
    steps = [
        StreamStep(eps_sq=float(e), m=2, k_samples=8)
        for e in rng.uniform(0, 2, size=200)
    ]
    stepwise = EProcessState()
    for s in steps:
        stepwise = update(stepwise, s)
    batch = functools.reduce(update, steps, EProcessState())
    assert stepwise == batch


def test_stepwise_matches_vectorized_recomputation():
    # independent oracle: accumulate the per-lambda increments with numpy
    rng = np.random.default_rng(1)
    eps = rng.uniform(0, 2, size=300)
    state = EProcessState()
    for e in eps:
        state = update(state, StreamStep(eps_sq=float(e), m=2, k_samples=8))
    lambdas = np.array(LAMBDA_GRID)
    inc = lambdas[None, :] * (eps[:, None] - 2 / 32) - lambdas[None, :] ** 2 * (2 / 16)
    log_e = inc.sum(axis=0)
    assert np.allclose(state.log_e, log_e, atol=1e-9)
    mix = np.logaddexp.reduce(np.cumsum(inc, axis=0), axis=1) - math.log(len(lambdas))
    assert state.log_e_mix == pytest.approx(float(mix[-1]), abs=1e-9)
    assert state.log_e_mix_max == pytest.approx(float(mix.max()), abs=1e-9)


@pytest.mark.parametrize("alphas", [(1.5,), (0.0,), (0.05, 1.0), (-0.1,), (math.nan,)])
def test_state_rejects_alpha_outside_the_unit_interval(alphas):
    with pytest.raises(ValueError, match="must be in \\(0, 1\\)"):
        EProcessState(alphas=alphas)


@pytest.mark.parametrize("fields, field", [
    ({"lambdas": ()}, "lambdas"),
    ({"lambdas": (1.0, math.nan)}, "lambdas"),
    ({"lambdas": (math.inf,)}, "lambdas"),
    ({"lambdas": (1.0, 2.0), "log_e": (0.0,)}, "log_e"),
    ({"lambdas": (1.0,), "log_e": (0.0, 0.0)}, "log_e"),
    ({"alphas": (0.05, 1e-4), "crossed_at": (None,)}, "crossed_at"),
    ({"t": -3}, "t"),
    ({"t": 2.5}, "t"),
])
def test_state_refuses_what_update_cannot_advance(fields, field):
    with pytest.raises(ValueError, match=f"^{field}"):
        EProcessState(**fields)
    with pytest.raises(ValueError, match=f"^{field}"):
        EProcessState.from_json(json.dumps({k: list(v) if type(v) is tuple else v
                                            for k, v in fields.items()}))


@pytest.mark.parametrize("m, K, field", [(2.9, 8, "m"), (2, 8.5, "K"), ("2", 8, "m")])
def test_update_refuses_a_non_integral_count(m, K, field):
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
        update(EProcessState(), StreamStep(eps_sq=0.1, m=m, k_samples=K))


def test_update_takes_numpy_integer_counts_as_ints():
    step = StreamStep(eps_sq=0.1, m=np.int64(2), k_samples=np.int32(8))
    assert update(EProcessState(), step) == update(EProcessState(), StreamStep(0.1, 2, 8))


def _checked_update(state: EProcessState, step: StreamStep) -> EProcessState:
    """``update`` as it stood before it built states unchecked: every state through
    the public constructor, and every crossing level tested at every step."""
    m, K, eps_sq = int(step.m), int(step.k_samples), float(step.eps_sq)
    centered = eps_sq - m / (4.0 * K)
    spread = m / (2.0 * K)
    log_e = tuple([le + lam * centered - lam * lam * spread
                   for le, lam in zip(state.log_e, state.lambdas)])
    hi = max(log_e)
    if hi != -math.inf:
        hi += math.log(sum([math.exp(v - hi) for v in log_e]))
    log_mix = hi - math.log(len(log_e))
    t = state.t + 1
    crossed = tuple([t if prior is None and log_mix >= -math.log(alpha) else prior
                     for prior, alpha in zip(state.crossed_at, state.alphas)])
    return EProcessState(lambdas=state.lambdas, log_e=log_e, t=t, log_e_mix=log_mix,
                         log_e_mix_max=max(state.log_e_mix_max, log_mix),
                         alphas=state.alphas, crossed_at=crossed)


@pytest.mark.parametrize("seed", range(6))
def test_update_matches_the_checked_update_bit_for_bit_across_crossings(seed):
    rng = np.random.default_rng(seed)
    alphas = (0.5, 0.05, 1e-4, 1e-8)
    m, K = int(rng.integers(2, 7)), int(rng.integers(1, 17))
    drift = np.linspace(0.0, 0.8, 600) * m  # quiet first, then rising past every level
    eps = np.clip(drift * rng.uniform(0.0, 1.0, size=600) + m / (4.0 * K) * rng.uniform(size=600),
                  0.0, m)
    got = want = EProcessState(alphas=alphas)
    for e in eps:
        step = StreamStep(float(e), m, K)
        got, want = update(got, step), _checked_update(want, step)
        assert repr(got) == repr(want)  # repr tells every float bit but NaN's apart
        assert got == EProcessState(**dataclasses.asdict(got))
    assert None not in got.crossed_at
    assert len(set(got.crossed_at)) == len(alphas)  # every level, each at its own step
    assert max(got.crossed_at) < got.t - 50  # and the stream went on after the last


def test_serialization_round_trip():
    state = EProcessState()
    for e in (0.1, 0.9, 1.7):
        state = update(state, StreamStep(eps_sq=e, m=2, k_samples=8))
    assert EProcessState.from_json(state.to_json()) == state
    crossed = EProcessState(lambdas=(0.5, 1.0), alphas=(0.5, 1e-300))
    for _ in range(12):
        crossed = update(crossed, StreamStep(eps_sq=2.0, m=2, k_samples=8))
    assert crossed.crossed_at[0] is not None and crossed.crossed_at[1] is None
    assert EProcessState.from_json(crossed.to_json()) == crossed
    assert list(json.loads(state.to_json())) == [
        "lambdas", "log_e", "t", "log_e_mix", "log_e_mix_max", "alphas", "crossed_at",
    ]


@settings(max_examples=50, deadline=None)
@given(
    eps=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=50),
)
def test_per_lambda_evalues_stay_nonnegative_logspace(eps):
    state = EProcessState()
    for e in eps:
        state = update(state, StreamStep(eps_sq=float(e), m=2, k_samples=8))
    assert all(math.isfinite(v) for v in state.log_e)
    assert state.t == len(eps)


def _simulate_null_crossings(runs: int, steps: int, alphas, seed: int = 42):
    """Coherent population pairs, K-sample reads, closed-form residuals."""
    lambdas = np.array(LAMBDA_GRID)
    m, K = 2, 8
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 0.9, size=(runs, steps))
    p1 = rng.binomial(K, u) / K
    p2 = rng.binomial(K, 1 - u) / K
    eps_sq = (p1 + p2 - 1) ** 2 / 2
    inc = lambdas[None, None, :] * (eps_sq[:, :, None] - m / (4 * K)) \
        - lambdas[None, None, :] ** 2 * m / (2 * K)
    log_e = np.cumsum(inc, axis=1)
    log_mix = np.logaddexp.reduce(log_e, axis=2) - math.log(len(lambdas))
    out = {}
    for alpha in alphas:
        thr = math.log(1 / alpha)
        out[alpha] = {
            "mixture": float(np.mean(log_mix.max(axis=1) >= thr)),
            "per_lambda": float(np.mean(log_e.max(axis=(1, 2)) >= thr)),
        }
    return out


def test_null_validity_mixture_and_per_lambda():
    rates = _simulate_null_crossings(runs=300, steps=300, alphas=(0.05,))
    budget = 0.05 + 2 * math.sqrt(0.05 / 300)
    assert rates[0.05]["mixture"] <= budget
    assert rates[0.05]["per_lambda"] <= budget


def test_power_at_detectable_margin():
    # delta = 0.15 above the envelope: the grid's lambda = 0.5 bet grows at
    # ~0.044 nats/step, so crossing 1/0.05 well inside 500 steps is routine
    lambdas = np.array(LAMBDA_GRID)
    m, K, delta = 2, 8, 0.15
    rng = np.random.default_rng(7)
    eps_sq = m / (4 * K) + delta + rng.uniform(-0.05, 0.05, size=(200, 500))
    inc = lambdas[None, None, :] * (eps_sq[:, :, None] - m / (4 * K)) \
        - lambdas[None, None, :] ** 2 * m / (2 * K)
    log_mix = np.logaddexp.reduce(np.cumsum(inc, axis=1), axis=2) - math.log(len(lambdas))
    crossed = np.mean(log_mix.max(axis=1) >= math.log(1 / 0.05))
    assert crossed >= 0.95
