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
    replay,
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


def test_replay_matches_stepwise_bit_for_bit():
    rng = np.random.default_rng(0)
    steps = [
        StreamStep(eps_sq=float(e), m=2, k_samples=8)
        for e in rng.uniform(0, 2, size=200)
    ]
    stepwise = EProcessState()
    for s in steps:
        stepwise = update(stepwise, s)
    batch = replay(EProcessState(), steps)
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


def test_serialization_round_trip():
    state = EProcessState()
    for e in (0.1, 0.9, 1.7):
        state = update(state, StreamStep(eps_sq=e, m=2, k_samples=8))
    assert EProcessState.from_json(state.to_json()) == state
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
