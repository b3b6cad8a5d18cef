"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from coherify.composition import (
    CompositionSpec,
    CouplingConstraint,
    ComponentSpec,
    aggregate,
    construct_witness,
    disagreement_bound,
    free_components,
    is_product_structured,
    relation_coupling,
    residual,
)
from coherify.decision import brier, exposure
from coherify.monitor import LAMBDA_GRID, EProcessState, StreamStep, update
from coherify.polytope import (
    Clique,
    build_polytope,
    conjunction,
    disjunction,
    enumerate_vertices,
    ladder,
    negation,
    paraphrase,
    partition,
)
from coherify.prediction import (
    observe_magnitude,
    observe_magnitude_samples,
    panel_stats,
    predict_magnitude,
)
from coherify.projection import (
    project_closed_form,
    project_dykstra,
    project_oracle,
    project_relation,
)
from coherify.simharness import PanelModel, RoutingPolicy, run_ensemble, to_bet_records


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def split_composition(relation):
    m = relation.m
    return CompositionSpec(
        free_components([1] * m), relation_coupling(relation, range(m)), m
    )


# -----------------------------------------------------------------------------


def test_criterion_1_partition_golden_case():
    comp = split_composition(partition(4))
    locals_ = [np.array([v]) for v in (0.39, 0.73, 0.67, 0.71)]
    cert = residual(comp, locals_)
    ok = (
        abs(cert.epsilon_star - 0.750) <= 0.002
        and np.max(np.abs(cert.repaired - np.array([0.015, 0.355, 0.295, 0.335]))) <= 1e-9
        and abs(cert.exposure_bound - 1.500) <= 0.004
    )
    residual(comp, locals_)  # warm path before timing
    t0 = time.perf_counter()
    reps = 200
    for _ in range(reps):
        residual(comp, locals_)
    per_call_ms = (time.perf_counter() - t0) / reps * 1000
    ok = ok and per_call_ms < 1.0
    report(1, "partition golden case", ok,
           f"eps={cert.epsilon_star:.4f} bound={cert.exposure_bound:.4f} "
           f"runtime={per_call_ms:.3f}ms")


def test_criterion_2_golden_rows():
    neg = residual(split_composition(negation()), [np.array([0.84]), np.array([0.89])])
    dis = project_dykstra(build_polytope(disjunction()), np.array([0.02, 0.03, 0.92]))
    ok = abs(neg.epsilon_star - 0.517) <= 0.002 and abs(dis.residual - 0.502) <= 0.005
    report(2, "negation/disjunction golden rows", ok,
           f"neg={neg.epsilon_star:.4f} or={dis.residual:.4f}")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    relations = [negation(), conjunction(), disjunction(), partition(4), ladder(4),
                 paraphrase(4)]
    worst_oracle_gap = 0.0
    for relation in relations:
        spec = build_polytope(relation)
        V = enumerate_vertices(relation)
        for _ in range(1000):
            q = rng.uniform(size=relation.m)
            dy = project_dykstra(spec, q)
            oracle = project_oracle(V, q)
            worst_oracle_gap = max(
                worst_oracle_gap, float(np.max(np.abs(dy.projected - oracle.projected)))
            )
    worst_closed_gap = 0.0
    for relation in (negation(), partition(4)):
        spec = build_polytope(relation)
        for _ in range(1000):
            q = rng.uniform(size=relation.m)
            cf = project_closed_form(relation, q).projected
            # the gap check runs the cycle to its machine-precision fixed point
            dy = project_dykstra(spec, q, tol=1e-15).projected
            worst_closed_gap = max(worst_closed_gap, float(np.max(np.abs(cf - dy))))
    elapsed = time.perf_counter() - t0
    ok = worst_oracle_gap <= 1e-6 and worst_closed_gap <= 1e-12 and elapsed < 30.0
    report(3, "oracle equivalence", ok,
           f"dykstra-oracle={worst_oracle_gap:.2e} closed-dykstra={worst_closed_gap:.2e} "
           f"elapsed={elapsed:.1f}s")


def test_criterion_4_dichotomy_suite():
    rng = np.random.default_rng(7)
    product_specs = [
        CompositionSpec(
            (
                ComponentSpec(build_polytope(negation()), (0, 1)),
                ComponentSpec(build_polytope(partition(3)), (2, 3, 4)),
            ),
            (),
            5,
        ),
        CompositionSpec(free_components([2, 2]), (), 4),
        CompositionSpec(
            free_components([1, 1, 1]),
            (CouplingConstraint("frechet-halfspace", (0, 1, 2), 3.0, a=(1.0, 1.0, 1.0)),),
            3,
        ),
    ] + [
        CompositionSpec((ComponentSpec(build_polytope(r), tuple(range(r.m))),), (), r.m)
        for r in (negation(), conjunction(), disjunction(), partition(4))
    ]
    worst_forward = 0.0
    trials_per_spec = 10_000 // len(product_specs) + 1
    total = 0
    for comp in product_specs:
        assert is_product_structured(comp)
        for _ in range(trials_per_spec):
            locals_ = [rng.uniform(size=c.polytope.dim) for c in comp.components]
            cert = residual(comp, locals_)
            worst_forward = max(worst_forward, cert.epsilon_star)
            total += 1
    catalog = [negation(), conjunction(), disjunction(), partition(4), ladder(4),
               paraphrase(3)]
    min_witness = math.inf
    for relation in catalog:
        comp = split_composition(relation)
        assert not is_product_structured(comp)
        _, cert = construct_witness(comp)
        min_witness = min(min_witness, cert.epsilon_star)
    ok = worst_forward <= 1e-8 and min_witness > 1e-3
    report(4, "dichotomy suite", ok,
           f"forward max eps={worst_forward:.2e} over {total} inputs, "
           f"weakest witness={min_witness:.4f}")


def test_criterion_5_exposure_bound_domination():
    rng = np.random.default_rng(11)
    relations = [negation(), conjunction(), disjunction(), partition(4), ladder(4)]
    violations = 0
    worst_margin = -math.inf
    for relation in relations:
        for _ in range(2000):
            q = rng.uniform(size=relation.m)
            eps = project_relation(relation, q).residual
            margin = exposure(relation, q) - math.sqrt(relation.m) * eps
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                violations += 1
    ok = violations == 0
    report(5, "exposure bound domination", ok,
           f"10000 quotes, violations={violations}, worst margin={worst_margin:.2e}")


def test_criterion_6_disagreement_bound_domination():
    rng = np.random.default_rng(13)
    relations = [negation(), partition(4), conjunction(), disjunction(), ladder(4)]
    violations = 0
    equality_gap = 0.0
    for relation in relations:
        comp = split_composition(relation)
        V = enumerate_vertices(relation).as_array()
        for _ in range(2000):
            locals_ = [rng.uniform(size=1) for _ in range(relation.m)]
            cert = residual(comp, locals_)
            reference = rng.dirichlet(np.ones(len(V))) @ V
            bound = disagreement_bound(comp, locals_, reference)
            if bound < cert.epsilon_star - 1e-9:
                violations += 1
            equality_gap = max(
                equality_gap,
                abs(disagreement_bound(comp, locals_, cert.repaired) - cert.epsilon_star),
            )
    ok = violations == 0 and equality_gap <= 1e-9
    report(6, "disagreement bound domination", ok,
           f"violations={violations}, repaired-reference gap={equality_gap:.2e}")


def test_criterion_7_rayleigh_validation():
    t0 = time.perf_counter()
    # exhaustive two-specialist negation case
    comp = split_composition(negation())
    panel = [np.array([0.4, 0.6]), np.array([0.6, 0.4])]
    pred = predict_magnitude(panel_stats(panel), negation())
    obs = observe_magnitude(comp, panel)
    ok = abs(obs - 0.01) <= 1e-12 and abs(obs - pred.predicted_sq_residual) <= 1e-12
    # sampled symmetric partition panel (too many assignments to exhaust)
    m, k = 8, 6
    base = np.full(m, 1.0 / m)
    spreads = np.array([-0.05, -0.03, -0.01, 0.01, 0.03, 0.05])
    signs = np.array([1.0, -1.0] * (m // 2))
    panel_p = [base + s * signs for s in spreads]
    comp_p = split_composition(partition(m))
    stats_p = panel_stats(panel_p)
    pred_p = predict_magnitude(stats_p, partition(m))
    samples = observe_magnitude_samples(comp_p, panel_p, n_draws=50_000, seed=1)
    ratio = float(samples.mean()) / pred_p.predicted_sq_residual
    ok = ok and 0.9 <= ratio <= 1.1
    # interior-mean conjunction: half-Rayleigh is an upper bound
    panel_c = [
        np.array([0.7, 0.5, 0.25]),
        np.array([0.5, 0.5, 0.05]),
        np.array([0.6, 0.4, 0.05]),
        np.array([0.6, 0.6, 0.25]),
    ]
    spec_c = build_polytope(conjunction())
    from coherify.polytope import is_member

    assert all(is_member(spec_c, q, 1e-9) for q in panel_c)
    stats_c = panel_stats(panel_c)
    pred_c = predict_magnitude(stats_c, conjunction())
    assert pred_c.regime == "interior-inequality"
    samples_c = observe_magnitude_samples(comp := split_composition(conjunction()), panel_c)
    se_c = float(samples_c.std(ddof=1)) / math.sqrt(samples_c.size) if samples_c.size > 1 else 0.0
    ok = ok and float(samples_c.mean()) <= pred_c.predicted_sq_residual + 3 * se_c + 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(7, "rayleigh validation", ok,
           f"exact neg obs={obs:.6f}, partition MC ratio={ratio:.3f}, "
           f"interior obs/pred={float(samples_c.mean()) / pred_c.predicted_sq_residual:.3f}, "
           f"elapsed={elapsed:.1f}s")


def _mixture_crossing_fraction(eps_sq: np.ndarray, alpha: float) -> float:
    """Running-supremum crossing of 1/alpha by the uniform lambda mixture."""
    lambdas = np.array(LAMBDA_GRID)
    m, K = 2, 8
    inc = lambdas[None, None, :] * (eps_sq[:, :, None] - m / (4 * K)) \
        - lambdas[None, None, :] ** 2 * m / (2 * K)
    log_mix = np.logaddexp.reduce(np.cumsum(inc, axis=1), axis=2) - math.log(len(lambdas))
    return float(np.mean(np.maximum.accumulate(log_mix, axis=1)[:, -1] >= math.log(1 / alpha)))


def _module_matches_vectorized(eps_row: np.ndarray) -> bool:
    state = EProcessState()
    for e in eps_row:
        state = update(state, StreamStep(eps_sq=float(e), m=2, k_samples=8))
    lambdas = np.array(LAMBDA_GRID)
    inc = lambdas[None, :] * (eps_row[:, None] - 2 / 32) - lambdas[None, :] ** 2 / 8
    return np.allclose(state.log_e, inc.sum(axis=0), atol=1e-9)


def test_criterion_8a_eprocess_type_i():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    runs, steps, K = 1000, 600, 8
    u = rng.uniform(0.1, 0.9, size=(runs, steps))
    p1 = rng.binomial(K, u) / K
    p2 = rng.binomial(K, 1 - u) / K
    eps_sq = (p1 + p2 - 1) ** 2 / 2
    assert _module_matches_vectorized(eps_sq[0][:50])
    ok = True
    rates = {}
    for alpha in (0.05, 1e-4):
        rate = _mixture_crossing_fraction(eps_sq, alpha)
        rates[alpha] = rate
        ok = ok and rate <= alpha + 2 * math.sqrt(alpha / runs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(8, "e-process type-I control", ok,
           f"crossing rates={rates}, elapsed={elapsed:.1f}s")


def test_criterion_8b_eprocess_power_at_stated_margin():
    """Power at the stated margin: E[eps^2] = m/(4K) + 0.05, m=2, K=8.

    The growth rate of any single-lambda bet against this stream is
    lambda*delta - lambda^2*m/(2K) <= delta^2*K/(2m) = 0.005 nats/step, so
    the median of log E_500 is at most 2.5 < ln(20) for every lambda and for
    the mixture. No stream honoring the stated mean margin reaches the
    1/0.05 threshold within 500 steps in 95% of runs; the spike construction
    below (eps^2 in {0, m}) maximizes the crossing probability among
    admissible streams and still falls far short. The criterion is kept as
    stated and reported honestly.
    """
    rng = np.random.default_rng(101)
    runs, steps = 400, 500
    m, K, delta = 2, 8, 0.05
    target_mean = m / (4 * K) + delta
    eps_sq = (rng.uniform(size=(runs, steps)) < target_mean / m) * float(m)
    assert abs(eps_sq.mean() - target_mean) < 0.005
    fraction = _mixture_crossing_fraction(eps_sq, alpha=0.05)
    report(8, "e-process power at delta=0.05 within 500 steps", fraction >= 0.95,
           f"crossing fraction={fraction:.3f}, required >= 0.95")


def test_criterion_9_brier_transfer():
    rng = np.random.default_rng(17)
    relation = partition(4)
    V = enumerate_vertices(relation).as_array()
    comp = split_composition(relation)
    ok = True
    details = []
    for trial in range(4):
        w = rng.dirichlet(np.ones(len(V)))
        p_star = w @ V
        raw = np.clip(p_star + rng.normal(0, 0.2, size=4), 0, 1)
        cert = residual(comp, [[v] for v in raw])
        if cert.epsilon_star == 0.0:
            continue
        n = 20_000
        draws = V[rng.choice(len(V), p=w, size=n)]
        deltas = np.array([
            brier(cert.repaired, y) - brier(cert.composed, y) for y in draws
        ])
        se = float(deltas.std(ddof=1)) / math.sqrt(n)
        bound = -cert.epsilon_star**2 / 4 + 3 * se
        ok = ok and deltas.mean() <= bound
        details.append(f"{deltas.mean():.4f}<={bound:.4f}")
    # adversarial truth outside the coherent set: the lift must reverse somewhere
    model = PanelModel(k=4, sigma=0.15, K=8, truth_mode="adversarial")
    cliques = [Clique(id=f"adv-{i}", relation=partition(4)) for i in range(10)]
    records = run_ensemble(cliques, model, RoutingPolicy("random-uniform"), n_seeds=4)
    bets = to_bet_records(records)
    reversal = any(
        brier(b.quote_repaired, b.labels) - brier(b.quote_naive, b.labels) > 0
        for b in bets
    )
    ok = ok and reversal
    report(9, "brier transfer", ok,
           f"coherent-label bounds {details}; adversarial reversal={reversal}")


def test_criterion_10_ablation_ordering():
    model = PanelModel(k=4, sigma=0.05, bias_scale=0.15, K=8)
    # over-allocated raw panel
    model = dataclasses.replace(model, biases=np.abs(model.bias_matrix(4)) + 0.05)
    cliques = [Clique(id=f"p{i}", relation=partition(4)) for i in range(15)]
    records = run_ensemble(cliques, model, RoutingPolicy("random-uniform"), n_seeds=4)
    mean_a = float(np.mean([r.eps["A"] for r in records]))
    mean_b = float(np.mean([r.eps["B"] for r in records]))
    max_c = max(r.eps["C"] for r in records)
    max_d = max(r.eps["D"] for r in records)
    ok = mean_a >= mean_b >= 0.0 and max_c <= 1e-8 and max_d <= 1e-8
    report(10, "ablation ordering", ok,
           f"A={mean_a:.4f} >= B={mean_b:.4f} >= C={max_c:.1e} = D={max_d:.1e}")


def test_criterion_11_cli_determinism(tmp_path):
    from coherify.cli import main

    config = tmp_path / "scenario.cfg"
    config.write_text(
        "relations = partition, neg\nm = 4\nn_cliques = 6\npanel_k = 4\n"
        "sigma = 0.12\nK = 8\nn_seeds = 3\nmaster_seed = 5\n"
    )
    outs = []
    for tag in ("a", "b"):
        bets = tmp_path / f"bets-{tag}.jsonl"
        assert main(["simulate", str(config), "--out", str(bets)]) == 0
        outs.append(bets.read_bytes())
    ok = outs[0] == outs[1]
    # projection and certification streams replay byte-identically too
    proj_in = tmp_path / "proj.jsonl"
    proj_in.write_text(
        '{"id": "x", "relation": "partition", "m": 4, "quote": [0.39, 0.73, 0.67, 0.71]}\n'
    )
    p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    main(["project", str(proj_in), "--out", str(p1)])
    main(["project", str(proj_in), "--out", str(p2)])
    ok = ok and p1.read_bytes() == p2.read_bytes()
    report(11, "CLI determinism", ok, "byte-identical reruns")
