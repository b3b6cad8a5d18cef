import itertools
import math

import numpy as np
import pytest

from coherify.composition import (
    ComponentSpec,
    CompositionSpec,
    CouplingConstraint,
    free_components,
    relation_coupling,
)
from coherify.polytope import (
    Clique,
    build_polytope,
    conjunction,
    disjunction,
    is_member,
    ladder,
    negation,
    paraphrase,
    partition,
)
from coherify.projection import InfeasibleCouplingError, project_polytope_batch, project_relation
from coherify.simharness import composition_for
from coherify.prediction import (
    REGIME_BOUNDARY,
    REGIME_EQUALITY,
    REGIME_GENERIC,
    REGIME_INTERIOR,
    observe_magnitude,
    observe_magnitude_samples,
    panel_stats,
    predict_magnitude,
)


def split_composition(relation):
    m = relation.m
    return CompositionSpec(
        free_components([1] * m), relation_coupling(relation, range(m)), m
    )


NEGATION_PANEL = [np.array([0.4, 0.6]), np.array([0.6, 0.4])]


# --- panel statistics ----------------------------------------------------------


def test_identical_panel_has_zero_covariance():
    stats = panel_stats([np.array([0.2, 0.8])] * 3)
    assert np.allclose(stats.diag_cov, 0.0)


def test_panel_stats_hand_computed():
    stats = panel_stats(NEGATION_PANEL)
    assert np.allclose(stats.panel_mean, [0.5, 0.5])
    assert np.allclose(stats.diag_cov, [0.01, 0.01])
    assert stats.k == 2


def test_panel_stats_against_elementwise_variance_oracle():
    rng = np.random.default_rng(0)
    panel = [rng.dirichlet(np.ones(4)) for _ in range(4)]
    stats = panel_stats(panel)
    P = np.stack(panel)
    # oracle: elementwise population variance, written out
    expected = np.array(
        [np.mean((P[:, j] - P[:, j].mean()) ** 2) for j in range(4)]
    )
    assert np.allclose(stats.diag_cov, expected, atol=1e-15)


def test_panel_stats_needs_two_quotes():
    with pytest.raises(ValueError):
        panel_stats([np.array([0.5, 0.5])])


@pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
@pytest.mark.parametrize("m", [4, 9], ids=["exhaustive", "sampled"])  # 4^9 > EXHAUSTIVE_LIMIT
def test_a_non_finite_panel_entry_is_refused_before_any_projection(monkeypatch, bad, shown, m):
    import coherify.prediction as prediction

    def unreachable(comp, X):
        raise AssertionError("a draw was projected")

    monkeypatch.setattr(prediction, "_joint_projection", unreachable)
    panel = [np.full(m, 0.1 + 0.01 * s) for s in range(4)]
    panel[1][2] = bad
    comp = split_composition(partition(m))
    message = f"panel quote 1 holds {shown} at coordinate 2: entries must be finite"
    for call in (lambda: observe_magnitude_samples(comp, panel),
                 lambda: observe_magnitude(comp, panel), lambda: panel_stats(panel)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda comp: panel_stats([np.full(4, 0.25), np.full(3, 0.25)]),
     "panel quotes must share one dimension"),
    (lambda comp: observe_magnitude_samples(comp, [np.full(5, 0.2)] * 2),
     "panel quotes must live on the joint coordinates"),
], ids=["ragged", "other-coordinates"])
def test_a_ragged_panel_or_one_on_other_coordinates_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(split_composition(partition(4)))


def test_an_empty_panel_is_refused():
    comp = split_composition(partition(4))
    for call in (lambda: observe_magnitude_samples(comp, []),
                 lambda: observe_magnitude(comp, [])):
        with pytest.raises(ValueError, match="panel holds no quotes"):
            call()


def test_panel_mean_of_coherent_quotes_is_coherent():
    # convexity: the mean of polytope members is a member
    rng = np.random.default_rng(21)
    from coherify.projection import project_relation

    for relation in (negation(), partition(4), conjunction()):
        panel = [
            project_relation(relation, rng.uniform(size=relation.m)).projected
            for _ in range(4)
        ]
        stats = panel_stats(panel)
        assert is_member(build_polytope(relation), stats.panel_mean, 1e-8)


# --- magnitude prediction --------------------------------------------------------


def test_negation_prediction_hand_value():
    pred = predict_magnitude(panel_stats(NEGATION_PANEL), negation())
    assert pred.predicted_sq_residual == pytest.approx(0.01, abs=1e-12)
    assert pred.kappa == 1.0
    assert pred.regime == REGIME_EQUALITY
    assert np.allclose(pred.normal, [1.0, 1.0])


def test_zero_covariance_prediction_is_zero():
    stats = panel_stats([np.array([0.3, 0.7])] * 4)
    assert predict_magnitude(stats, negation()).predicted_sq_residual == 0.0


def test_partition_isotropic_prediction():
    d = 0.004
    rng = np.random.default_rng(1)
    base = np.full(4, 0.25)
    offsets = np.array([1.0, -1.0, 1.0, -1.0]) * np.sqrt(d)
    panel = [base + o * np.array([1, 1, -1, -1]) * 0 + o for o in offsets]
    stats = panel_stats(panel)
    assert np.allclose(stats.diag_cov, d)
    pred = predict_magnitude(stats, partition(4))
    assert pred.predicted_sq_residual == pytest.approx(d, abs=1e-12)
    assert pred.regime == REGIME_EQUALITY


def test_paraphrase_falls_back_to_generic_trace_bound():
    stats = panel_stats([np.array([0.4, 0.4, 0.4]), np.array([0.6, 0.6, 0.6])])
    pred = predict_magnitude(stats, paraphrase(3))
    assert pred.regime == REGIME_GENERIC
    assert pred.predicted_sq_residual == pytest.approx(float(stats.diag_cov.sum()), abs=1e-15)


def conjunction_boundary_panel():
    # all quotes coherent and on the r1+r2-r3 <= 1 boundary, symmetric spread
    return [
        np.array([0.7, 0.5, 0.2]),
        np.array([0.5, 0.5, 0.0]),
        np.array([0.6, 0.4, 0.0]),
        np.array([0.6, 0.6, 0.2]),
    ]


def test_conjunction_boundary_panel_is_coherent():
    spec = build_polytope(conjunction())
    for q in conjunction_boundary_panel():
        assert is_member(spec, q, 1e-12)


def test_conjunction_boundary_regime_and_kappa():
    pred = predict_magnitude(panel_stats(conjunction_boundary_panel()), conjunction())
    assert pred.regime == REGIME_BOUNDARY
    assert pred.kappa == 0.5
    assert np.allclose(pred.normal, [1.0, 1.0, -1.0])


def test_conjunction_interior_regime_flag():
    panel = [q - np.array([0.0, 0.0, -0.05]) for q in conjunction_boundary_panel()]
    pred = predict_magnitude(panel_stats(panel), conjunction())
    assert pred.regime == REGIME_INTERIOR


def test_ladder_prediction_uses_tightest_chain_cut():
    from coherify.polytope import ladder

    # panel rides the r2 <= r1 boundary; the other chain cut has slack
    panel = [
        np.array([0.6, 0.6, 0.1]),
        np.array([0.5, 0.5, 0.3]),
        np.array([0.7, 0.7, 0.2]),
        np.array([0.6, 0.6, 0.2]),
    ]
    pred = predict_magnitude(panel_stats(panel), ladder(3))
    assert pred.regime == REGIME_BOUNDARY
    assert pred.kappa == 0.5
    assert np.allclose(pred.normal, [-1.0, 1.0, 0.0])


def test_prediction_never_exceeds_trace_bound():
    rng = np.random.default_rng(5)
    for relation in (negation(), partition(4), conjunction()):
        for _ in range(50):
            panel = [np.clip(rng.uniform(size=relation.m), 0, 1) for _ in range(4)]
            stats = panel_stats(panel)
            pred = predict_magnitude(stats, relation)
            assert pred.predicted_sq_residual <= float(stats.diag_cov.sum()) + 1e-12


# --- observed magnitude -----------------------------------------------------------


def test_exhaustive_negation_matches_prediction_exactly():
    comp = split_composition(negation())
    obs = observe_magnitude(comp, NEGATION_PANEL)
    pred = predict_magnitude(panel_stats(NEGATION_PANEL), negation())
    assert obs == pytest.approx(0.01, abs=1e-12)
    assert obs == pytest.approx(pred.predicted_sq_residual, abs=1e-12)


def test_identical_panel_observes_zero():
    comp = split_composition(negation())
    assert observe_magnitude(comp, [np.array([0.4, 0.6])] * 2) == pytest.approx(0.0, abs=1e-18)


def test_equality_relation_exactness_partition():
    # no-clipping symmetric partition panel: observed equals predicted
    base = np.full(4, 0.25)
    panel = [base + s * 0.05 for s in (-1.5, -0.5, 0.5, 1.5)]
    panel = [np.clip(p, 0, 1) for p in panel]
    comp = split_composition(partition(4))
    stats = panel_stats(panel)
    pred = predict_magnitude(stats, partition(4))
    obs = observe_magnitude(comp, panel)  # exhaustive: 4^4 = 256 assignments
    assert obs == pytest.approx(pred.predicted_sq_residual, rel=1e-9)


def test_conjunction_boundary_ratio_is_half_rayleigh():
    panel = conjunction_boundary_panel()
    comp = split_composition(conjunction())
    stats = panel_stats(panel)
    pred = predict_magnitude(stats, conjunction())
    obs = observe_magnitude(comp, panel)  # exhaustive: 4^3 = 64
    assert obs / pred.predicted_sq_residual == pytest.approx(1.0, abs=1e-6)


def test_interior_panel_observes_below_half_rayleigh():
    panel = [q + np.array([0.0, 0.0, 0.05]) for q in conjunction_boundary_panel()]
    spec = build_polytope(conjunction())
    assert all(is_member(spec, q, 1e-12) for q in panel)
    comp = split_composition(conjunction())
    stats = panel_stats(panel)
    pred = predict_magnitude(stats, conjunction())
    assert pred.regime == REGIME_INTERIOR
    obs = observe_magnitude(comp, panel)
    assert obs <= pred.predicted_sq_residual + 1e-12


def test_partition_clipping_makes_prediction_a_lower_bound():
    # big spread drives the repaired mass into the nonnegativity wall
    panel = [
        np.array([0.9, 0.05, 0.02, 0.03]),
        np.array([0.02, 0.9, 0.05, 0.03]),
        np.array([0.03, 0.02, 0.9, 0.05]),
        np.array([0.05, 0.03, 0.02, 0.9]),
    ]
    comp = split_composition(partition(4))
    stats = panel_stats(panel)
    pred = predict_magnitude(stats, partition(4))
    obs = observe_magnitude(comp, panel)
    assert obs >= pred.predicted_sq_residual - 1e-9


def test_generic_trace_bound_holds_observed():
    rng = np.random.default_rng(8)
    for relation in (negation(), partition(4)):
        comp = split_composition(relation)
        V = build_polytope(relation)
        from coherify.projection import project_relation

        panel = [
            project_relation(relation, rng.uniform(size=relation.m)).projected
            for _ in range(4)
        ]
        stats = panel_stats(panel)
        obs = observe_magnitude(comp, panel)
        assert obs <= float(stats.diag_cov.sum()) + 1e-9


def test_samples_shape_and_determinism():
    comp = split_composition(partition(4))
    panel = [np.full(4, 0.25) + 0.01 * s for s in (-3, -1, 1, 3)]
    s1 = observe_magnitude_samples(comp, panel, n_draws=100, seed=3)
    s2 = observe_magnitude_samples(comp, panel, n_draws=100, seed=3)
    assert np.array_equal(s1, s2)


def _samples_by_joint_dykstra(comp, panel):
    """Reference: every assignment in itertools order through the joint Dykstra batch."""
    P = np.stack(panel)
    k, m = P.shape
    sigma = np.array(list(itertools.product(range(k), repeat=m)))
    X = P[sigma, np.arange(m)]
    return np.sum((X - project_polytope_batch(comp.joint_polytope, X)) ** 2, axis=1)


@pytest.mark.parametrize(
    "relation",
    [negation(), conjunction(), disjunction(), partition(4), ladder(4), paraphrase(4)],
    ids=lambda r: r.kind.value,
)
def test_exact_route_samples_match_joint_dykstra(relation):
    rng = np.random.default_rng(31)
    m = relation.m
    panel = [project_relation(relation, rng.uniform(size=m)).projected + rng.normal(0, 0.05, m)
             for _ in range(3)]
    panel = [np.clip(q, 0.0, 1.0) for q in panel]
    reversed_split = CompositionSpec(
        free_components([1] * m), relation_coupling(relation, tuple(reversed(range(m)))), m
    )
    for comp in (split_composition(relation), reversed_split,
                 composition_for(Clique(id="c", relation=relation), np.zeros(m, dtype=int)).comp):
        assert [block.kind for block in comp.system.blocks] == ["catalog"]
        samples = observe_magnitude_samples(comp, panel)
        assert np.max(np.abs(samples - _samples_by_joint_dykstra(comp, panel))) <= 1e-8


def _samples_by_product(comp, panel):
    """Reference: every assignment in ``itertools.product`` order, each projected alone."""
    from coherify.composition import _joint_projection

    P = np.stack(panel)
    k, m = P.shape
    out = []
    for owners in itertools.product(range(k), repeat=m):
        x = np.array([[P[o, j] for j, o in enumerate(owners)]])
        out.append(float(np.sum(np.square(x - _joint_projection(comp, x)[0]))))
    return out


def _tied(P, ties):
    """The panel matrix with owners made to agree bit for bit at some coordinates."""
    P = P.copy()
    k, m = P.shape
    if ties == "partial":  # at coordinate j one more owner copies owner 0
        for j in range(m):
            P[1 + j % (k - 1), j] = P[0, j]
    elif ties == "agree":  # every owner quotes one value at coordinate 0
        P[:, 0] = P[0, 0]
    elif ties == "all-agree":  # every owner quotes owner 0's row: one distinct row
        P[:] = P[0]
    elif ties == "signed-zero":  # 0.0 and -0.0 are two quotes, never one
        P[0::2, m - 1] = 0.0
        P[1::2, m - 1] = -0.0
    return P


@pytest.mark.parametrize(
    "relation, k, entries, ties",
    [(partition(4), 3, 5, None),          # entries // m = 1: blocks of one row
     (ladder(5), 3, 50, None),            # blocks of 10 rows, 3^5 no multiple of 10
     (conjunction(), 4, 8192, None),      # every row in one block
     (paraphrase(3), 5, 40, None),        # blocks of 13 rows, 5^3 no multiple of 13
     (partition(4), 3, 5, "partial"),
     (ladder(5), 3, 50, "partial"),
     (conjunction(), 4, 8192, "partial"),
     (paraphrase(3), 5, 40, "partial"),
     (partition(4), 3, 5, "agree"),
     (ladder(5), 3, 50, "agree"),
     (paraphrase(3), 5, 40, "agree"),
     (partition(4), 3, 5, "signed-zero"),
     (ladder(5), 3, 50, "signed-zero"),
     (conjunction(), 4, 8192, "signed-zero"),
     (ladder(5), 3, 50, "all-agree")],
    ids=["rows-1", "rows-10", "one-block", "rows-13", "rows-1-partial-ties",
         "rows-10-partial-ties", "one-block-partial-ties", "rows-13-partial-ties",
         "rows-1-one-agreeing-coordinate", "rows-10-one-agreeing-coordinate",
         "rows-13-one-agreeing-coordinate", "rows-1-signed-zeros", "rows-10-signed-zeros",
         "one-block-signed-zeros", "rows-10-one-distinct-row"],
)
def test_exhaustive_blocks_equal_the_product_order_bit_for_bit(monkeypatch, relation, k,
                                                               entries, ties):
    import coherify.prediction as prediction

    monkeypatch.setattr(prediction, "DRAW_BLOCK_ENTRIES", entries)
    project = prediction._joint_projection
    sizes = []
    monkeypatch.setattr(prediction, "_joint_projection",
                        lambda comp, X: sizes.append(X.size) or project(comp, X))
    rng = np.random.default_rng(23)
    m = relation.m
    P = _tied(np.stack([rng.uniform(-0.1, 1.1, size=m) for _ in range(k)]), ties)
    panel = list(P)
    comp = split_composition(relation)
    assert observe_magnitude_samples(comp, panel).tolist() == _samples_by_product(comp, panel)
    # each distinct row is projected once: u_j distinct quotes (by bits) at coordinate j
    distinct = [len({float(v).hex() for v in P[:, j]}) for j in range(m)]
    assert sum(sizes) == math.prod(distinct) * m and max(sizes) <= entries
    if ties is None:
        assert math.prod(distinct) == k**m


def test_the_exhaustive_limit_is_the_last_exhaustive_size(monkeypatch):
    import coherify.prediction as prediction

    project = prediction._joint_projection
    sizes = []
    monkeypatch.setattr(prediction, "_joint_projection",
                        lambda comp, X: sizes.append(X.size) or project(comp, X))
    # 4^8 == EXHAUSTIVE_LIMIT: exhaustive. Owners agree but at coordinates 0 and 5,
    # so 4 * 2 = 8 rows are distinct.
    P = np.tile(np.linspace(0.05, 0.4, 8), (4, 1))
    P[:, 0] = [0.1, 0.2, 0.3, 0.4]
    P[:, 5] = [0.7, 0.7, 0.2, 0.7]
    comp = split_composition(partition(8))
    samples = observe_magnitude_samples(comp, list(P), n_draws=1, seed=0)
    assert samples.shape == (65_536,) and sum(sizes) == 8 * 8
    assert samples.tolist() == observe_magnitude_samples(comp, list(P), n_draws=9,
                                                         seed=4).tolist()
    for a in (0, 1, 4 ** 5 + 3, 40_000, 65_535):
        owners = np.unravel_index(a, (4,) * 8)  # itertools.product order, first slowest
        x = P[owners, np.arange(8)][None, :]
        assert samples[a] == np.sum(np.square(x - project(comp, x)))
    # 2^17 > EXHAUSTIVE_LIMIT: sampled
    comp = split_composition(partition(17))
    panel = [np.full(17, 0.03), np.linspace(0.0, 0.1, 17)]
    drawn = [observe_magnitude_samples(comp, panel, n_draws=50, seed=s) for s in (0, 1)]
    assert [d.shape for d in drawn] == [(50,), (50,)]
    assert drawn[0].tolist() != drawn[1].tolist()


def test_sampled_draws_take_each_owner_entry():
    comp = split_composition(partition(9))
    rng = np.random.default_rng(4)
    panel = [rng.uniform(size=9) for _ in range(4)]
    samples = observe_magnitude_samples(comp, panel, n_draws=700, seed=9)
    rng = np.random.default_rng(np.random.SeedSequence((9, 0x0B5E)))
    X = np.stack(panel)[rng.integers(0, 4, size=(700, 9)), np.arange(9)]
    assert samples.tolist() == [float(np.sum(np.square(x - project_relation(partition(9), x)
                                                        .projected))) for x in X]


@pytest.mark.parametrize("n_draws", [0, -1])
def test_a_draw_count_below_one_is_refused(n_draws):
    comp = split_composition(partition(9))  # 4^9 assignments: past the exhaustive limit
    panel = [np.full(9, 0.1 + 0.01 * s) for s in range(4)]
    with pytest.raises(ValueError, match=f"n_draws must be >= 1, got {n_draws}"):
        observe_magnitude_samples(comp, panel, n_draws=n_draws)


def two_negations():
    """Two negation cliques whose first coordinates must agree: no single relation."""
    return CompositionSpec(
        (ComponentSpec(build_polytope(negation()), (0, 1)),
         ComponentSpec(build_polytope(negation()), (2, 3))),
        (CouplingConstraint("equality", (0, 2)),),
        4,
    )


def test_fallback_samples_match_joint_dykstra():
    comp = two_negations()
    assert "generic" in [block.kind for block in comp.system.blocks]
    rng = np.random.default_rng(5)
    panel = [rng.uniform(size=4) for _ in range(3)]
    samples = observe_magnitude_samples(comp, panel)
    assert np.max(np.abs(samples - _samples_by_joint_dykstra(comp, panel))) <= 1e-8


def test_fallback_raises_on_an_empty_coupling():
    # x1 + x2 = 1 and x1 + x2 <= 0.3 over two free boxes: no point meets both
    comp = CompositionSpec(
        free_components([1, 1]),
        (CouplingConstraint("partition-sum", (0, 1), 1.0),
         CouplingConstraint("frechet-halfspace", (0, 1), 0.3, a=(1.0, 1.0))),
        2,
    )
    assert "generic" in [block.kind for block in comp.system.blocks]
    with pytest.raises(InfeasibleCouplingError):
        observe_magnitude_samples(comp, [np.array([0.2, 0.9]), np.array([0.6, 0.1])])


def test_only_non_catalog_draws_reach_the_solver(monkeypatch):
    import coherify.composition as composition

    def unreachable(spec, X, *args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(composition, "project_active_set", unreachable)
    rng = np.random.default_rng(8)
    for relation in (negation(), conjunction(), partition(4), ladder(4), paraphrase(4)):
        m = relation.m
        panel = [rng.uniform(-0.1, 1.1, size=m) for _ in range(3)]
        for comp in (split_composition(relation), composition_for(
                Clique(id="c", relation=relation), np.zeros(m, dtype=int)).comp):
            assert observe_magnitude_samples(comp, panel).shape == (3**m,)
    with pytest.raises(AssertionError, match="the solver ran"):
        observe_magnitude_samples(two_negations(), [rng.uniform(size=4) for _ in range(3)])
