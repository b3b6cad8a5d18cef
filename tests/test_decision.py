import dataclasses
import math

import numpy as np
import pytest

from coherify.composition import CompositionSpec, free_components, relation_coupling, residual
from coherify.decision import (
    KELLY_CAP,
    AllocationRule,
    DEFAULT_LOG_FLOOR,
    BetRecord,
    _allocate_rows,
    _scores,
    allocate,
    brier,
    diebold_mariano,
    exposure,
    gate_sweep,
    log_payoff_delta,
    mann_whitney_auc,
    murphy,
    regret,
)
from coherify.polytope import (
    conjunction,
    disjunction,
    enumerate_vertices,
    ladder,
    negation,
    partition,
)
from coherify.projection import project_relation, project_simplex

OVERALLOCATED_QUOTE = (0.39, 0.73, 0.67, 0.71)
NORMALIZED_QUOTE = (0.015, 0.355, 0.295, 0.335)


# --- exposure ------------------------------------------------------------------


def test_partition_exposure_equals_mass_gap():
    assert exposure(partition(4), OVERALLOCATED_QUOTE) == pytest.approx(1.5, abs=1e-12)
    # saturates the sqrt(m) * eps bound at this quote
    eps = project_relation(partition(4), OVERALLOCATED_QUOTE).residual
    assert exposure(partition(4), OVERALLOCATED_QUOTE) == pytest.approx(2 * eps, abs=1e-9)


def test_negation_exposure_reported_case():
    assert exposure(negation(), (0.84, 0.89)) == pytest.approx(0.73, abs=1e-12)


def test_member_quote_has_zero_exposure():
    assert exposure(partition(4), NORMALIZED_QUOTE) == pytest.approx(0.0, abs=1e-9)
    assert exposure(conjunction(), (0.5, 0.5, 0.25)) == 0.0


def test_frechet_exposures():
    # conjunction: quoted joint above the min marginal
    assert exposure(conjunction(), (0.5, 0.4, 0.6)) == pytest.approx(0.2)
    # disjunction: quoted union below the max marginal
    assert exposure(disjunction(), (0.02, 0.03, 0.92)) == pytest.approx(0.87)
    # ladder: two step-ups
    assert exposure(ladder(4), (0.2, 0.5, 0.4, 0.6)) == pytest.approx(0.5)


def test_exposure_unsupported_relation():
    from coherify.polytope import paraphrase

    with pytest.raises(ValueError):
        exposure(paraphrase(3), (0.5, 0.5, 0.5))


def test_exposure_dominated_by_bound_on_random_quotes():
    rng = np.random.default_rng(0)
    for relation in (negation(), conjunction(), disjunction(), partition(5), ladder(5)):
        for _ in range(400):
            q = rng.uniform(size=relation.m)
            eps = project_relation(relation, q).residual
            assert exposure(relation, q) <= math.sqrt(relation.m) * eps + 1e-9


def test_repaired_quotes_always_have_negligible_exposure():
    rng = np.random.default_rng(1)
    for relation in (negation(), conjunction(), disjunction(), partition(5), ladder(5)):
        for _ in range(200):
            repaired = project_relation(relation, rng.uniform(size=relation.m)).projected
            assert exposure(relation, repaired) <= 1e-8


# --- allocation ------------------------------------------------------------------


def test_proportional_allocation_divides_by_mass():
    w = allocate(AllocationRule("proportional"), OVERALLOCATED_QUOTE)
    assert np.allclose(w, np.array(OVERALLOCATED_QUOTE) / 2.5)
    assert w.sum() == pytest.approx(1.0)


def test_proportional_on_repaired_quote_is_identity():
    w = allocate(AllocationRule("proportional"), NORMALIZED_QUOTE)
    assert np.allclose(w, NORMALIZED_QUOTE, atol=1e-12)


def test_all_zero_quote_falls_back_to_uniform():
    w = allocate(AllocationRule("proportional"), (0.0, 0.0, 0.0))
    assert np.allclose(w, 1 / 3)


def test_coherentising_rules_land_on_simplex():
    for kind in ("truncated-kelly", "max-entropy"):
        w = allocate(AllocationRule(kind), OVERALLOCATED_QUOTE)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w >= 0)


def test_truncated_kelly_softens_concentration():
    # cap-then-renormalize: a top weight above KELLY_CAP drops relative to the uncapped rule
    quote = (0.999, 0.0005, 0.0005)
    assert max(quote) > KELLY_CAP
    w = allocate(AllocationRule("truncated-kelly"), quote)
    uncapped = allocate(AllocationRule("max-entropy"), quote)
    assert w.max() < uncapped.max()
    assert w.sum() == pytest.approx(1.0)


# --- regret ---------------------------------------------------------------------


def overallocated_bet(labels=(0, 1, 0, 0)):
    return BetRecord(
        clique_id="p4",
        seed=0,
        quote_naive=OVERALLOCATED_QUOTE,
        quote_repaired=NORMALIZED_QUOTE,
        labels=labels,
        eps_star=0.75,
    )


def test_brier_hand_values():
    bet = overallocated_bet()
    assert brier(bet.quote_naive, bet.labels) == pytest.approx(0.2945, abs=1e-4)
    assert brier(bet.quote_repaired, bet.labels) == pytest.approx(0.1539, abs=1e-4)


def test_regret_overallocated_partition_case():
    summary = regret([overallocated_bet()] * 3, AllocationRule("proportional"))
    assert summary.mean_delta_brier == pytest.approx(-0.1406, abs=1e-4)
    assert summary.mean_delta_log == pytest.approx(
        math.log(0.355) - math.log(0.292), abs=1e-3
    )
    assert summary.n_unique_yes == 3
    assert summary.brier_normalization == "per-coordinate-mean"


def test_regret_zero_when_already_coherent():
    bet = BetRecord("c", 0, NORMALIZED_QUOTE, NORMALIZED_QUOTE, (0, 1, 0, 0), 0.0)
    summary = regret([bet], AllocationRule("proportional"))
    assert summary.mean_delta_brier == 0.0
    assert summary.mean_delta_log == 0.0


def test_regret_requires_bets():
    with pytest.raises(ValueError):
        regret([], AllocationRule("proportional"))


def test_unique_yes_derivation():
    assert overallocated_bet().unique_yes == 1
    assert overallocated_bet(labels=(1, 1, 0, 0)).unique_yes is None
    assert overallocated_bet(labels=(0, 0, 0, 0)).unique_yes is None


def test_log_payoff_floor_keeps_delta_finite():
    bet = BetRecord("c", 0, (0.0, 1.0), (0.5, 0.5), (1, 0), 0.5)
    delta = log_payoff_delta(bet, AllocationRule("proportional"))
    assert math.isfinite(delta)


def test_a_bet_needs_at_least_one_coordinate():
    with pytest.raises(ValueError, match="at least one coordinate"):
        BetRecord("c", 0, (), (), (), 0.0)


@pytest.mark.parametrize("naive, repaired", [((0.5, 0.5), (0.5,)), ((0.5,), (0.5, 0.5))],
                         ids=["repaired-short", "naive-short"])
def test_a_bet_refuses_quotes_and_labels_of_different_dimension(naive, repaired):
    with pytest.raises(ValueError, match="^quotes and labels must share one dimension$"):
        BetRecord("c", 0, naive, repaired, (1, 0), 0.0)


RULES = [AllocationRule(kind) for kind in ("proportional", "truncated-kelly", "max-entropy")]


def _allocate_one(rule, q):
    """Reference: one quote's weights, written out as a single-quote allocation."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("quote must be finite")
    if rule.kind == "proportional":
        pos = np.maximum(q, 0.0)
        total = pos.sum()
        return np.full(q.size, 1.0 / q.size) if total <= 0.0 else pos / total
    w = project_simplex(q)
    if rule.kind == "truncated-kelly":
        w = np.minimum(w, KELLY_CAP)
        w = w / w.sum()
    return w


def _delta_one(bet, rule):
    """Reference: one bet's repaired-minus-naive log payoff."""
    if bet.unique_yes is None:
        return 0.0
    i = bet.unique_yes
    w_naive = max(_allocate_one(rule, bet.quote_naive)[i], DEFAULT_LOG_FLOOR)
    w_rep = max(_allocate_one(rule, bet.quote_repaired)[i], DEFAULT_LOG_FLOOR)
    return math.log(w_rep) - math.log(w_naive)


def _random_bets(seed, n=300):
    """Bets of dimension 2-12 in mixed order: zeros, negative entries, all-nonpositive
    quotes, near-vertex quotes where the Kelly cap binds, and labels with 0, 1 or 2 YES."""
    rng = np.random.default_rng(seed)
    bets = []
    for i in range(n):
        m = int(rng.integers(2, 13))
        quotes = rng.uniform(-0.5, 1.5, size=(2, m))
        quotes[rng.uniform(size=(2, m)) < 0.2] = 0.0
        if i % 7 == 0:
            quotes[0] = -np.abs(quotes[0])
        if i % 5 == 0:
            quotes[1] = 0.0
            quotes[1, rng.integers(m)] = 1.0 + rng.uniform(0, 0.01)
        labels = np.zeros(m, dtype=int)
        labels[rng.choice(m, size=int(rng.integers(0, 3)), replace=False)] = 1
        bets.append(BetRecord(f"b{i}", i, tuple(quotes[0]), tuple(quotes[1]),
                              tuple(labels), 0.0))
    return bets


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
def test_scoring_equals_the_per_bet_scores_bit_for_bit(rule):
    bets = _random_bets(17)
    assert {b.unique_yes is None for b in bets} == {True, False}
    scores, dlog = _scores(bets, rule)
    assert scores.tolist() == [[brier(b.quote_naive, b.labels), brier(b.quote_repaired, b.labels)]
                               for b in bets]
    assert dlog.tolist() == [_delta_one(b, rule) for b in bets]
    assert [log_payoff_delta(b, rule) for b in bets] == dlog.tolist()
    for m in range(2, 13):
        Q = np.array([b.quote_naive + b.quote_repaired for b in bets
                      if len(b.labels) == m]).reshape(-1, m)
        W = _allocate_rows(rule, Q)
        assert all(np.array_equal(w, _allocate_one(rule, q)) for w, q in zip(W, Q))
        assert all(np.array_equal(allocate(rule, q), _allocate_one(rule, q)) for q in Q)
    if rule.kind == "truncated-kelly":  # the cap binds somewhere
        assert any(project_simplex(b.quote_repaired).max() > KELLY_CAP for b in bets)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scoring_refuses_a_non_finite_quote_only_where_a_bet_is_allocated(rule, bad):
    yes = BetRecord("y", 0, (0.2, bad, 0.5), (0.3, 0.3, 0.4), (0, 1, 0), 0.0)
    no_yes = BetRecord("n", 0, (0.2, bad, 0.5), (0.3, bad, 0.4), (1, 1, 0), 0.0)
    with pytest.raises(ValueError, match="quote must be finite"):
        _delta_one(yes, rule)
    for bets in ([yes], [no_yes, yes]):
        with pytest.raises(ValueError, match="quote must be finite"):
            _scores(bets, rule)
    assert _scores([no_yes], rule)[1].tolist() == [_delta_one(no_yes, rule)] == [0.0]


def test_expected_brier_identity_under_coherent_truth():
    # labels drawn from a vertex mixture with marginals p*; the mean paired
    # Brier delta matches the squared-distance difference divided by m
    rng = np.random.default_rng(3)
    relation = partition(4)
    V = enumerate_vertices(relation).as_array()
    w = rng.dirichlet(np.ones(len(V)))
    p_star = w @ V
    r = np.array(OVERALLOCATED_QUOTE)
    pi_r = project_relation(relation, r).projected
    n = 30_000
    draws = V[rng.choice(len(V), p=w, size=n)]
    deltas = np.array(
        [brier(pi_r, y) - brier(r, y) for y in draws]
    )
    expected = (np.sum((pi_r - p_star) ** 2) - np.sum((r - p_star) ** 2)) / 4
    se = deltas.std(ddof=1) / math.sqrt(n)
    assert abs(deltas.mean() - expected) <= 3 * se
    eps = project_relation(relation, r).residual
    assert deltas.mean() <= -eps**2 / 4 + 3 * se


def test_label_incoherence_can_reverse_the_lift():
    # adversarial truth far outside the coherent set: independent labels
    # with total mass 2 punish the repair on average
    rng = np.random.default_rng(4)
    relation = partition(4)
    p_star = np.array([0.5, 0.5, 0.5, 0.5])
    r = np.array([0.45, 0.55, 0.5, 0.5])
    pi_r = project_relation(relation, r).projected
    draws = (rng.uniform(size=(4000, 4)) < p_star).astype(float)
    deltas = np.array([brier(pi_r, y) - brier(r, y) for y in draws])
    assert (deltas > 0).any()
    assert deltas.mean() > 0  # repair amplifies error against incoherent labels


def test_allocation_sanity_coherentisers_absorb_incoherence():
    rng = np.random.default_rng(5)
    relation = partition(4)
    comp = CompositionSpec(
        free_components([1, 1, 1, 1]), relation_coupling(relation, range(4)), 4
    )
    V = enumerate_vertices(relation).as_array()
    bets = []
    for i in range(200):
        w = rng.dirichlet(np.ones(len(V)))
        p_star = w @ V
        raw = np.clip(p_star + rng.normal(0, 0.15, size=4), 0, 1)
        cert = residual(comp, [[v] for v in raw])
        labels = V[rng.choice(len(V), p=w)]
        bets.append(
            BetRecord("b%d" % i, 0, tuple(raw), tuple(cert.repaired),
                      tuple(int(v) for v in labels), cert.epsilon_star)
        )
    prop = regret(bets, AllocationRule("proportional"))
    kelly = regret(bets, AllocationRule("truncated-kelly"))
    maxent = regret(bets, AllocationRule("max-entropy"))
    assert abs(kelly.mean_delta_log) <= abs(prop.mean_delta_log) + 1e-9
    assert abs(maxent.mean_delta_log) <= abs(prop.mean_delta_log) + 1e-9


# --- gating ----------------------------------------------------------------------


def _synthetic_bets(n, rng, eps_fn):
    bets = []
    for i in range(n):
        eps = eps_fn(i)
        naive = np.clip(np.array([0.25, 0.25, 0.25, 0.25]) + rng.normal(0, 0.05, 4), 0, 1)
        labels = [0, 0, 0, 0]
        labels[rng.integers(0, 4)] = 1
        bets.append(
            BetRecord(f"b{i}", 0, tuple(naive), tuple(naive), tuple(labels), eps)
        )
    return bets


def test_auc_one_when_eps_orders_harm_perfectly():
    scores = np.array([0.1, 0.2, 0.3, 0.9, 1.0, 1.1])
    harm = np.array([False, False, False, True, True, True])
    assert mann_whitney_auc(scores, harm) == 1.0


def test_auc_half_when_independent():
    rng = np.random.default_rng(6)
    scores = rng.uniform(size=4000)
    harm = rng.uniform(size=4000) < 0.25
    assert mann_whitney_auc(scores, harm) == pytest.approx(0.5, abs=0.03)


def _informative_bets(n: int, rng) -> list[BetRecord]:
    """Bets whose eps tracks the realized log-payoff regret by construction."""
    bets = []
    for i in range(n):
        gap = rng.uniform(0, 0.4)
        naive = np.array([0.25 + gap, 0.25 - gap / 3, 0.25 - gap / 3, 0.25 - gap / 3])
        repaired = np.full(4, 0.25)
        labels = [0, 0, 0, 0]
        labels[1] = 1
        bets.append(
            BetRecord(f"g{i}", 0, tuple(naive), tuple(repaired), tuple(labels), gap)
        )
    return bets


def test_gate_sweep_recovers_informative_threshold():
    bets = _informative_bets(400, np.random.default_rng(7))
    report = gate_sweep(bets, AllocationRule("proportional"), capture_targets=(0.9, 0.5))
    assert report.auc > 0.95
    by_target = {p.capture_target: p for p in report.operating_points}
    assert by_target[0.9].capture >= 0.9
    assert by_target[0.5].capture >= 0.5
    assert by_target[0.9].alert_rate >= by_target[0.5].alert_rate
    assert by_target[0.9].tau <= by_target[0.5].tau
    for cv in report.cv:
        assert cv.mean_capture >= cv.capture_target - 0.15


@pytest.mark.parametrize("target", [1.5, 0.0, -0.5, float("nan")])
def test_gate_sweep_refuses_a_capture_target_outside_the_unit_interval(target):
    bets = _informative_bets(100, np.random.default_rng(7))
    assert gate_sweep(bets, capture_targets=(1.0,)).operating_points[0].capture == 1.0
    with pytest.raises(ValueError, match=r"capture target .* is outside \(0, 1\]"):
        gate_sweep(bets, capture_targets=(0.9, target))


def test_gate_sweep_needs_enough_bets():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        gate_sweep(_synthetic_bets(10, rng, lambda i: 0.1))


def test_gate_sweep_degenerate_harm():
    rng = np.random.default_rng(9)
    bets = _synthetic_bets(50, rng, lambda i: 0.1)
    # identical quotes: all deltas zero -> degenerate harm labels
    with pytest.raises(ValueError):
        gate_sweep(bets)


def test_gate_sweep_harm_labels_ignore_round_off_at_the_threshold():
    rng = np.random.default_rng(10)
    harmful = _informative_bets(12, rng)
    tied = _synthetic_bets(48, rng, lambda i: 0.002 * i)  # repaired is naive: regret exactly 0
    base = gate_sweep(harmful + tied)
    assert base.harm_threshold == 0.0 and base.harm_rate == 12 / 60
    nudged = []
    for k, bet in enumerate(tied):
        repaired = list(bet.quote_repaired)
        repaired[bet.unique_yes] += 1e-12 if k % 2 else -1e-12
        nudged.append(BetRecord(bet.clique_id, bet.seed, bet.quote_naive, tuple(repaired),
                                bet.labels, bet.eps_star))
    moved = gate_sweep(harmful + nudged)
    assert abs(moved.harm_threshold) < 1e-10  # the reported quantile itself is the raw one
    assert dataclasses.replace(moved, harm_threshold=base.harm_threshold) == base


# --- murphy ---------------------------------------------------------------------


def test_murphy_constant_calibrated_forecast_has_zero_reliability():
    labels = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    quotes = np.full(8, 0.5)
    decomp = murphy(quotes, labels, n_bins=10)
    assert decomp.rel == pytest.approx(0.0, abs=1e-15)
    assert decomp.res == pytest.approx(0.0, abs=1e-15)
    assert decomp.unc == pytest.approx(0.25)


def test_murphy_on_perfect_forecasts():
    labels = np.array([1, 0, 1, 1, 0])
    decomp = murphy(labels.astype(float), labels, n_bins=10)
    assert decomp.brier == pytest.approx(0.0, abs=1e-15)
    assert decomp.rel == pytest.approx(0.0, abs=1e-15)
    assert decomp.res == pytest.approx(decomp.unc, abs=1e-15)


def test_murphy_identity_on_random_forecasts():
    rng = np.random.default_rng(10)
    quotes = rng.uniform(size=5000)
    labels = (rng.uniform(size=5000) < quotes).astype(int)
    decomp = murphy(quotes, labels, n_bins=12)
    assert decomp.rel - decomp.res + decomp.unc == pytest.approx(decomp.brier, abs=1e-12)


def test_murphy_validations():
    with pytest.raises(ValueError):
        murphy([0.5], [1], n_bins=1)
    with pytest.raises(ValueError):
        murphy([0.5], [2], n_bins=5)


def test_murphy_refuses_an_empty_forecast_list():
    with pytest.raises(ValueError, match="no forecasts to decompose"):
        murphy([], [])


@pytest.mark.parametrize("quotes, labels, message", [
    ([0.5, 0.5], [1], "quotes and labels must align"),
    ([-0.5], [1], r"forecasts must be numbers in \[0, 1\]"),  # would fall in bin -5
    ([0.2, 1.5], [0, 1], r"forecasts must be numbers in \[0, 1\]"),
    ([np.nan], [0], r"forecasts must be numbers in \[0, 1\]"),
    ([np.inf], [1], r"forecasts must be numbers in \[0, 1\]"),
], ids=["misaligned", "below-0", "above-1", "nan", "inf"])
def test_murphy_refuses_misaligned_and_out_of_range_forecasts(quotes, labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        murphy(quotes, labels)


# --- Diebold-Mariano --------------------------------------------------------------


def test_dm_identical_series():
    series = np.linspace(0.1, 0.9, 40)
    result = diebold_mariano(series, series)
    assert result.stat == 0.0
    assert result.p == 1.0
    assert not result.degenerate


def test_dm_degenerate_constant_differential():
    a = np.full(40, 0.5)
    b = np.full(40, 0.4)
    result = diebold_mariano(a, b)
    assert result.degenerate
    assert result.p == 0.0


def test_dm_needs_thirty_points():
    with pytest.raises(ValueError):
        diebold_mariano(np.zeros(10), np.zeros(10))


def test_dm_close_to_paired_t_on_shifted_losses():
    rng = np.random.default_rng(11)
    n = 500
    a = rng.normal(0.5, 0.1, size=n)
    b = a - 0.01 + rng.normal(0, 0.05, size=n)
    result = diebold_mariano(a, b)
    # oracle: paired t statistic with the same lag-0 variance
    d = a - b
    t_stat = d.mean() / (d.std(ddof=1) / math.sqrt(n))
    assert result.stat == pytest.approx(t_stat, rel=1e-12)
    t_p = math.erfc(abs(t_stat) / math.sqrt(2))
    assert result.p == pytest.approx(t_p, rel=0.1)
