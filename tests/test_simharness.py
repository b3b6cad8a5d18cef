import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.polytope import (
    Clique,
    PolytopeSpec,
    build_polytope,
    conjunction,
    disjunction,
    enumerate_vertices,
    is_member,
    ladder,
    negation,
    paraphrase,
    partition,
)
from coherify.composition import (
    ComponentSpec,
    CompositionSpec,
    constraint_system,
    relation_coupling,
    residual,
    shared_component,
)
from coherify.decision import BetRecord
from coherify.jsonio import dump_columns
from coherify.projection import (
    COLUMN_ROWS,
    RESIDUAL_FLOOR,
    project_hierarchical,
    project_relation,
)
from coherify.simharness import (
    OPERATORS,
    ConfigError,
    PanelModel,
    RoutingPolicy,
    SimConfig,
    TruthDraw,
    _clique_truths,
    _routes,
    _skeleton,
    composition_for,
    generate_panel,
    generate_panels,
    hardness_experiment,
    population_quotes,
    run_ensemble,
    sample_k_marginals,
    sample_truth,
    to_bet_records,
)


def neg_clique(i=0):
    return Clique(id=f"neg-{i}", relation=negation())


def route(policy, k, relation, clique_index, seed):
    """The owners of one cell: ``_routes`` on it alone."""
    return _routes(policy, k, [(relation, clique_index, seed)])[0]


def part_clique(i=0, m=4):
    return Clique(id=f"part-{i}", relation=partition(m))


# --- panels -------------------------------------------------------------------


def test_noiseless_panel_reproduces_truth():
    model = PanelModel(k=3, sigma=0.0, bias_scale=0.0, K=None)
    clique = part_clique()
    panel = generate_panel(model, clique, seed=5)
    for row in panel.repaired:
        assert np.allclose(row, panel.truth.p_star, atol=1e-12)


def test_negation_bias_panel_population_stats():
    # +-0.1 coherence-aligned offsets around (0.5, 0.5)
    biases = np.array([[0.1, -0.1], [-0.1, 0.1]])
    model = PanelModel(k=2, sigma=0.0, biases=biases, K=None)
    V = enumerate_vertices(negation()).as_array()
    truth = TruthDraw(np.array([0.5, 0.5]), None, V, coherent=True)
    panel = generate_panel(model, neg_clique(), seed=1, truth=truth)
    assert np.allclose(panel.population, [[0.6, 0.4], [0.4, 0.6]])
    D = np.mean((panel.population - panel.population.mean(axis=0)) ** 2, axis=0)
    assert np.allclose(D, [0.01, 0.01])
    # offsets keep each specialist on the sum=1 line, so repair is a no-op
    assert np.allclose(panel.repaired, panel.population)


@pytest.mark.parametrize("settings, name", [
    ({"K": 0}, "K"), ({"K": -1}, "K"), ({"k": 0}, "k"), ({"sigma": -0.1}, "sigma"),
    ({"sigma": float("nan")}, "sigma"), ({"sigma": float("inf")}, "sigma"),
], ids=["K=0", "K=-1", "k=0", "sigma=-0.1", "sigma=nan", "sigma=inf"])
def test_panel_model_refuses_settings_without_a_panel(settings, name):
    with pytest.raises(ValueError, match=f"^{name}="):
        PanelModel(**settings)


@pytest.mark.parametrize("settings", [
    {"bias_scale": float("inf")}, {"bias_scale": float("nan")},
    {"k": 2, "biases": np.array([[0.1, np.nan], [0.0, 0.0]])},
], ids=["bias_scale=inf", "bias_scale=nan", "biases-nan"])
def test_panel_model_refuses_non_finite_biases(settings):
    # a NaN offset would reach the certificates, where a NaN distance reads as 0
    with pytest.raises(ValueError, match="^bias_scale and biases must be finite"):
        PanelModel(**settings)


@pytest.mark.parametrize("shape", [(2, 3), (3, 4)], ids=["off-arity", "off-panel"])
def test_bias_matrix_refuses_offsets_of_another_shape(shape):
    with pytest.raises(ValueError, match=r"^biases must have shape \(2, 4\)$"):
        PanelModel(k=2, biases=np.zeros(shape)).bias_matrix(4)


def test_generate_panel_is_deterministic():
    model = PanelModel(k=4, sigma=0.1, K=8)
    a = generate_panel(model, part_clique(), seed=(3, 1))
    b = generate_panel(model, part_clique(), seed=(3, 1))
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.repaired, b.repaired)


def test_panel_rows_are_locally_coherent_after_repair():
    model = PanelModel(k=4, sigma=0.2, K=8)
    clique = part_clique()
    panel = generate_panel(model, clique, seed=9)
    spec = build_polytope(clique.relation)
    for row in panel.repaired:
        assert is_member(spec, row, 1e-8)


@pytest.mark.parametrize(
    "relation",
    [negation(), conjunction(), disjunction(), partition(4), ladder(5), paraphrase(3)],
    ids=lambda r: r.kind.value,
)
def test_batched_panel_repair_matches_per_row_projection(relation):
    # generate_panel repairs its k rows in one batched call; each row must be
    # exactly what project_relation gives that specialist alone
    model = PanelModel(k=6, sigma=0.3, K=8)
    panel = generate_panel(model, Clique(id="c", relation=relation), seed=(4, 2))
    per_row = np.stack([project_relation(relation, q).projected for q in panel.raw])
    assert panel.repaired.shape == panel.raw.shape
    assert np.array_equal(panel.repaired, per_row)


def test_k_sampling_population_limit():
    rng = np.random.default_rng(0)
    pop = rng.uniform(size=(3, 4))
    assert np.array_equal(sample_k_marginals(pop, None, rng), pop)
    sampled = sample_k_marginals(pop, 8, rng)
    assert np.all((sampled * 8) % 1 == 0)


def test_sample_truth_modes():
    rng = np.random.default_rng(1)
    coherent = sample_truth(partition(4), rng, "coherent")
    assert is_member(build_polytope(partition(4)), coherent.p_star, 1e-9)
    adversarial = sample_truth(partition(4), rng, "adversarial")
    assert not is_member(build_polytope(partition(4)), adversarial.p_star, 1e-3)


# --- random streams ------------------------------------------------------------


# parts 0, 2**32 - 1, 2**32 and 2**64 + 5 span one to three 32-bit words and negative
# parts are taken by abs, so these keys hold 1 to 9 words: short of SeedSequence's
# pool of 4, filling it, and running past it, with several word counts in one call
SEED_KEYS = [(0,), (2**32 - 1,), (2**32,), (2**64 + 5,), (3, -5), (2**32, 2**64 + 5),
             (7, 0, 2**32 - 1), (1, 2, 3, 4), (-1, 2**32, 3, 4), (1, 2, 3, 4, 5),
             (2**64 + 5, 0, 2**32 - 1, 9, -1), (1, 2**32, 2**64 + 5, 4, 5, 2**32 - 1),
             (6, 5, 4, 3, 2, 1), (0, 7, 0x72)]


def test_streams_seeded_in_one_pass_are_the_seed_sequence_streams():
    from coherify.simharness import _rngs

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a uint32 scalar overflow would warn
        rngs = _rngs(SEED_KEYS)
        ones = [_rngs([key])[0] for key in SEED_KEYS]
    for key, rng, one in zip(SEED_KEYS, rngs, ones):
        for got in (rng, one):
            ref = np.random.default_rng(np.random.SeedSequence(tuple(abs(p) for p in key)))
            assert got.normal(size=5).tolist() == ref.normal(size=5).tolist(), key
            assert got.integers(0, 4, size=7).tolist() == ref.integers(0, 4, size=7).tolist()
            assert (got.binomial(8, [0.1, 0.5, 0.9]).tolist()
                    == ref.binomial(8, [0.1, 0.5, 0.9]).tolist())


def test_importing_coherify_leaves_numpy_random_unimported():
    code = "import sys, coherify, coherify.cli; print('numpy.random' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


# --- routing -------------------------------------------------------------------


def test_random_uniform_owner_marginals():
    policy = RoutingPolicy("random-uniform", seed=0)
    k, n = 4, 8000
    counts = np.zeros(k)
    for i in range(n):
        owners = route(policy, k, negation(), i, 0)
        for o in owners:
            counts[o] += 1
    total = counts.sum()
    p_hat = counts / total
    se = np.sqrt((1 / k) * (1 - 1 / k) / total)
    assert np.all(np.abs(p_hat - 1 / k) <= 3 * se)


def test_single_owner_policy():
    owners = route(RoutingPolicy("single-owner"), 4, partition(4), 0, seed=2)
    assert set(owners) == {2}


def test_structured_routing_is_deterministic_and_split():
    a = route(RoutingPolicy("structured-by-relation"), 4, partition(4), 0, 0)
    b = route(RoutingPolicy("structured-by-relation"), 4, partition(4), 5, 3)
    assert np.array_equal(a, b)
    assert len(set(a)) > 1


def test_composition_for_full_owner_gets_relation_polytope():
    routed = composition_for(part_clique(), np.zeros(4, dtype=int))
    assert len(routed.comp.components) == 1
    assert routed.comp.components[0].polytope.relation == partition(4)
    routed2 = composition_for(part_clique(), np.array([0, 1, 0, 1]))
    assert all(c.polytope.relation is None for c in routed2.comp.components)


def _composition_by_nonzero(relation, owners):
    """``composition_for``'s parts built with one ``np.nonzero`` per specialist."""
    owners = np.asarray(owners, dtype=int)
    specialists = tuple(sorted(set(owners.tolist())))
    components = []
    for s in specialists:
        coords = tuple(np.nonzero(owners == s)[0].tolist())
        whole = len(coords) == relation.m
        components.append(ComponentSpec(
            build_polytope(relation) if whole else PolytopeSpec(dim=len(coords)), coords))
    coupling = relation_coupling(relation, range(relation.m))
    return specialists, tuple(components), coupling, tuple(owners.tolist())


OWNER_FORMS = {
    "list": lambda o: o,
    "numpy int64": lambda o: np.array(o, dtype=np.int64),
    "numpy int32 scalars": lambda o: [np.int32(s) for s in o],
    "float": lambda o: [s + 0.75 for s in o],  # truncated, as np.asarray(..., dtype=int) does
    "float array": lambda o: np.array(o, dtype=float) + 0.25,
}


@settings(max_examples=150, deadline=None)
@given(relation=st.sampled_from([negation(), conjunction(), disjunction(), partition(4),
                                 partition(7), ladder(4), ladder(6), paraphrase(3)]),
       data=st.data(), form=st.sampled_from(sorted(OWNER_FORMS)))
def test_composition_for_builds_what_a_nonzero_construction_builds(relation, data, form):
    k = data.draw(st.integers(1, 6))
    owners = OWNER_FORMS[form](
        data.draw(st.lists(st.integers(0, k - 1), min_size=relation.m, max_size=relation.m)))
    _skeleton.cache_clear()  # the skeleton's systems are then the system cache's newest
    routed = composition_for(Clique(id="c", relation=relation), owners)
    specialists, components, coupling, owner_tuple = _composition_by_nonzero(relation, owners)
    comp = routed.comp
    assert routed.specialists == specialists
    assert routed.owners == owner_tuple
    assert all(type(s) is int for s in routed.specialists + routed.owners)
    assert comp.joint_dim == relation.m
    assert [c.coords for c in comp.components] == [c.coords for c in components]
    assert [c.polytope for c in comp.components] == [c.polytope for c in components]
    assert comp.coupling.constraints == coupling
    assert comp.constrained == tuple((a, c) for a, c in enumerate(comp.components)
                                     if len(c.coords) == relation.m)
    # the checked constructor, from the same parts, builds the same spec
    checked = CompositionSpec(comp.components, coupling, relation.m)
    assert comp == checked
    assert comp._gather == checked._gather
    assert comp.constrained == checked.constrained
    assert comp.system is checked.system
    again = composition_for(Clique(id="d", relation=relation), owners).comp
    assert again._gather == comp._gather and again.system is comp.system
    quote = st.floats(-0.5, 1.5, allow_nan=False)
    locals_ = [np.array(data.draw(st.lists(quote, min_size=len(c.coords), max_size=len(c.coords))))
               for c in comp.components]
    cert, want = residual(comp, locals_), residual(checked, locals_)
    assert cert.composed.tobytes() == want.composed.tobytes()
    assert cert.repaired.tobytes() == want.repaired.tobytes()
    assert (cert.epsilon_star, cert.inputs_locally_coherent, cert.binding) \
        == (want.epsilon_star, want.inputs_locally_coherent, want.binding)


@pytest.mark.parametrize("owners, shape", [([0, 1, 0], "(3,)"), ([0, 1, 0, 1, 2], "(5,)"),
                                           ([[0, 1], [1, 0]], "(2, 2)"), (0, "()")],
                         ids=["short", "long", "2-D", "scalar"])
def test_composition_for_refuses_owners_of_the_wrong_shape_before_any_cache(owners, shape):
    _skeleton.cache_clear()
    caches = [cache.cache_info() for cache in (_skeleton, shared_component, constraint_system)]
    want = f"owners have shape {shape}, the relation needs (4,)"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        composition_for(part_clique(), owners)
    assert [cache.cache_info() for cache in (_skeleton, shared_component, constraint_system)] \
        == caches


# --- ensembles ------------------------------------------------------------------


def test_single_owner_ensemble_is_coherent():
    model = PanelModel(k=4, sigma=0.1, K=8)
    cliques = [part_clique(i) for i in range(4)]
    records = run_ensemble(cliques, model, RoutingPolicy("single-owner"), n_seeds=2)
    for r in records:
        assert r.eps["B"] == 0.0
        assert r.eps["D"] == 0.0


def test_operator_ordering_on_partitions():
    # positive offsets give every specialist an over-allocated raw quote
    model = PanelModel(k=4, sigma=0.05, bias_scale=0.15, K=8)
    model = dataclasses.replace(model, biases=np.abs(model.bias_matrix(4)) + 0.05)
    cliques = [part_clique(i) for i in range(12)]
    records = run_ensemble(cliques, model, RoutingPolicy("random-uniform"), n_seeds=4)
    eps_a = np.mean([r.eps["A"] for r in records])
    eps_b = np.mean([r.eps["B"] for r in records])
    eps_c = max(r.eps["C"] for r in records)
    eps_d = max(r.eps["D"] for r in records)
    assert eps_a >= eps_b >= 0.0
    assert eps_c <= 1e-8 and eps_d <= 1e-8


def test_ensemble_records_are_deterministic():
    model = PanelModel(k=3, sigma=0.05, K=8)
    cliques = [neg_clique(0)]
    a = run_ensemble(cliques, model, RoutingPolicy("random-uniform"), 2, master_seed=7)
    b = run_ensemble(cliques, model, RoutingPolicy("random-uniform"), 2, master_seed=7)
    assert [r.quotes for r in a] == [r.quotes for r in b]
    assert [r.eps for r in a] == [r.eps for r in b]


def assert_equals_per_cell_reference(records, cliques, model, policy, n_seeds, master_seed):
    """Every record equals its cell run alone: ``generate_panel`` and one ``residual`` each."""
    assert [(r.clique_index, r.seed) for r in records] == [
        (i, s) for i in range(len(cliques)) for s in range(n_seeds)]
    for r in records:
        clique = cliques[r.clique_index]
        [(truth, labels)] = _clique_truths(model, [(clique, r.clique_index)], master_seed)
        panel = generate_panel(model, clique, (master_seed, r.clique_index, r.seed), truth=truth)
        routed = composition_for(clique, route(policy, model.k, clique.relation,
                                               r.clique_index, r.seed))

        def restrict(rows):
            return [rows[s][list(c.coords)] for s, c in zip(routed.specialists, routed.comp.components)]

        def repair_eps(quote):
            eps = project_hierarchical(routed.comp, quote).residual
            return eps if eps >= RESIDUAL_FLOOR else 0.0

        raw = residual(routed.comp, restrict(panel.raw), repair_locals=False)
        cert = residual(routed.comp, restrict(panel.repaired))
        assert (r.clique_id, r.owners, r.labels) == (clique.id, routed.owners, tuple(labels))
        assert r.quotes == {"A": tuple(raw.composed.tolist()), "B": tuple(cert.composed.tolist()),
                            "C": tuple(raw.repaired.tolist()), "D": tuple(cert.repaired.tolist())}
        assert r.eps == {"A": raw.epsilon_star, "B": cert.epsilon_star,
                         "C": repair_eps(raw.repaired), "D": repair_eps(cert.repaired)}
        assert r.certificate.binding == cert.binding
        assert r.certificate.repaired.tobytes() == cert.repaired.tobytes()


@pytest.mark.parametrize("policy", ["random-uniform", "single-owner"])
def test_run_ensemble_equals_per_cell_reference(policy):
    model = PanelModel(k=3, sigma=0.1, K=8)
    relations = [negation(), conjunction(), disjunction(), partition(4), ladder(4), paraphrase(3)]
    cliques = [Clique(id=f"{r.kind.value}-{i}", relation=r) for i, r in enumerate(relations)]
    policy = RoutingPolicy(policy, seed=5)
    records = run_ensemble(cliques, model, policy, n_seeds=3, master_seed=5)
    assert_equals_per_cell_reference(records, cliques, model, policy, 3, 5)


ALL_KINDS = [negation(), conjunction(), disjunction(), partition(4), ladder(4), paraphrase(3)]
ARITY_3 = [conjunction(), disjunction(), partition(3), ladder(3), paraphrase(3)]
BATCHED_PANEL_CASES = {
    # 4 cliques x 4 seeds x k=4 rows = 64 ladder rows: the coordinate-major kernel
    "ladder-16-cells": (PanelModel(k=4), "random-uniform", [ladder(5)] * 4, 4),
    "population-limit": (PanelModel(k=3, K=None), "random-uniform", ALL_KINDS, 2),
    "noiseless": (PanelModel(k=3, sigma=0.0), "random-uniform", ALL_KINDS, 2),
    "explicit-biases": (PanelModel(k=2, biases=np.array([[0.2, -0.1, 0.05], [-0.15, 0.1, 0.0]])),
                        "random-uniform", ARITY_3, 2),
    "adversarial-truth": (PanelModel(k=3, truth_mode="adversarial"), "random-uniform",
                          ALL_KINDS, 2),
    "structured-by-relation": (PanelModel(k=4), "structured-by-relation", ALL_KINDS, 2),
}


@pytest.mark.parametrize("case", BATCHED_PANEL_CASES)
def test_batched_panels_equal_the_one_cell_panel_bit_for_bit(case):
    model, kind, relations, n_seeds = BATCHED_PANEL_CASES[case]
    cliques = [Clique(id=f"{r.kind.value}-{i}", relation=r) for i, r in enumerate(relations)]
    cells = [(clique, (3, ci, seed), _clique_truths(model, [(clique, ci)], 3)[0][0]
              if seed % 2 else None)
             for ci, clique in enumerate(cliques) for seed in range(n_seeds)]
    if case == "ladder-16-cells":
        assert len(cells) * model.k >= COLUMN_ROWS
    for (clique, seed, truth), panel in zip(cells, generate_panels(model, cells)):
        alone = generate_panel(model, clique, seed, truth=truth)
        for name in ("population", "raw", "repaired"):
            assert getattr(panel, name).tobytes() == getattr(alone, name).tobytes()
        assert panel.truth.p_star.tobytes() == alone.truth.p_star.tobytes()
    policy = RoutingPolicy(kind, seed=3)
    records = run_ensemble(cliques, model, policy, n_seeds, master_seed=3)
    assert_equals_per_cell_reference(records, cliques, model, policy, n_seeds, 3)


def test_run_ensemble_repairs_panels_in_one_call_per_relation(monkeypatch):
    import coherify.simharness as simharness

    calls = []
    repair = simharness.project_relation_batch

    def counted(relation, X):
        calls.append((relation, len(X)))
        return repair(relation, X)

    monkeypatch.setattr(simharness, "project_relation_batch", counted)
    model = PanelModel(k=3)
    relations = [negation(), ladder(4), partition(4), ladder(4), negation(), paraphrase(3)]
    cliques = [Clique(id=f"{r.kind.value}-{i}", relation=r) for i, r in enumerate(relations)]
    run_ensemble(cliques, model, RoutingPolicy("random-uniform"), n_seeds=5)
    # the panel repair only: joint projections call it from the composition module
    assert calls == [(negation(), 2 * 5 * 3), (ladder(4), 2 * 5 * 3), (partition(4), 5 * 3),
                     (paraphrase(3), 5 * 3)]


def never_solve(spec, X, *args):
    raise AssertionError("the active-set solver ran")


@pytest.mark.parametrize("op", ["C", "D"])
def test_run_ensemble_runs_one_cycle_per_constraint_system_until_c_or_d_eps_is_read(monkeypatch,
                                                                                     op):
    import coherify.composition as composition

    runs = {}
    project = composition._joint_projection

    def counted(comp, X):
        system = (comp.joint_dim, comp.constrained, comp.coupling.constraints)
        runs.setdefault(system, []).append(len(X))
        return project(comp, X)

    monkeypatch.setattr(composition, "_joint_projection", counted)
    # every cell is one catalog polytope, projected by its own route: none reaches the solver
    monkeypatch.setattr(composition, "project_active_set", never_solve)
    model = PanelModel(k=3, sigma=0.1, K=8)
    cliques = [neg_clique(0), part_clique(1), Clique(id="and-2", relation=conjunction())]
    records = run_ensemble(cliques, model, RoutingPolicy("random-uniform", seed=2), n_seeds=6)
    to_bet_records(records)  # simulate's default bets: B against D
    assert len(runs) >= 4  # sole owners get systems of their own
    assert all(len(rows) == 1 for rows in runs.values())  # the B pass alone
    assert sum(rows[0] for rows in runs.values()) == len(records)
    records[-1].eps[op]
    for rows in runs.values():
        # then A, then the C and D re-projections of the same cells together
        assert len(rows) == 3 and rows[2] == 2 * rows[0] == 2 * rows[1]


def test_reading_d_eps_then_a_quotes_first_equals_the_per_cell_reference():
    model = PanelModel(k=3, sigma=0.1, K=8)
    cliques = [Clique(id=f"{r.kind.value}-{i}", relation=r) for i, r in enumerate(ALL_KINDS)]
    policy = RoutingPolicy("random-uniform", seed=4)
    records = run_ensemble(cliques, model, policy, n_seeds=3, master_seed=4)
    [r.eps["D"] for r in records]
    [r.quotes["A"] for r in records]
    assert_equals_per_cell_reference(records, cliques, model, policy, 3, 4)


def test_each_lazy_pass_runs_at_most_once_per_run_ensemble_call(monkeypatch):
    import coherify.simharness as simharness

    passes = []
    certify = simharness._certify_rows

    def counted(blocks, n, repair_locals=True):
        passes.append((n, repair_locals))
        return certify(blocks, n, repair_locals)

    monkeypatch.setattr(simharness, "_certify_rows", counted)
    model = PanelModel(k=3, sigma=0.1, K=8)
    cliques = [neg_clique(0), part_clique(1), Clique(id="or-2", relation=disjunction())]
    calls = [run_ensemble(cliques, model, RoutingPolicy("random-uniform"), 4, master_seed=s)
             for s in (1, 2)]
    assert passes == [(12, True)] * 2  # the B pass of each call
    for records in calls + calls:
        for r in records:
            dict(r.eps), dict(r.quotes), dict(r.eps)
        for naive in OPERATORS:
            to_bet_records(records, naive, naive)
    # each call: B, then A (repair_locals=False), then the C/D pass over both
    assert passes == [(12, True)] * 2 + [(12, False), (24, False)] * 2


def test_to_bet_records_of_every_operator_pair_equals_the_eager_values():
    model = PanelModel(k=3, sigma=0.1, K=8)
    cliques = [Clique(id=f"{r.kind.value}-{i}", relation=r) for i, r in enumerate(ALL_KINDS)]
    policy = RoutingPolicy("random-uniform", seed=6)
    eager = [(dict(r.quotes), dict(r.eps), r)
             for r in run_ensemble(cliques, model, policy, 2, master_seed=6)]
    for naive in OPERATORS:
        for repaired in OPERATORS:
            bets = to_bet_records(run_ensemble(cliques, model, policy, 2, master_seed=6),
                                  naive, repaired)
            want = [BetRecord(r.clique_id, r.seed, quotes[naive], quotes[repaired], r.labels,
                              eps[naive]) for quotes, eps, r in eager]
            assert dump_columns(BetRecord.columns(bets)) == dump_columns(BetRecord.columns(want))


def test_ensemble_values_are_read_only_mappings_keyed_by_operator():
    records = run_ensemble([neg_clique()], PanelModel(k=2), RoutingPolicy("random-uniform"), 1)
    quotes, eps = records[0].quotes, records[0].eps
    assert list(quotes) == list(eps) == list(OPERATORS) and len(quotes) == 4
    assert "A" in eps and "E" not in eps
    assert eps == dict(eps) and dict(quotes) == quotes
    with pytest.raises(KeyError):
        quotes["E"]
    with pytest.raises(TypeError):
        quotes["A"] = (0.5, 0.5)


def test_to_bet_records_carries_naive_eps():
    model = PanelModel(k=4, sigma=0.1, K=8)
    records = run_ensemble([part_clique()], model, RoutingPolicy("random-uniform"), 2)
    bets = to_bet_records(records)
    assert len(bets) == 2
    for bet, record in zip(bets, records):
        assert bet.quote_naive == record.quotes["B"]
        assert bet.quote_repaired == record.quotes["D"]
        assert bet.eps_star == record.eps["B"]
    with pytest.raises(ValueError):
        to_bet_records(records, naive_op="X")


def test_labels_respect_clique_resolution():
    clique = Clique(id="fixed", relation=partition(3), labels=(0, 1, 0))
    model = PanelModel(k=2, sigma=0.05, K=8)
    records = run_ensemble([clique], model, RoutingPolicy("random-uniform"), 2)
    assert all(r.labels == (0, 1, 0) for r in records)


def test_coherent_labels_satisfy_relation():
    model = PanelModel(k=3, sigma=0.1, K=8)
    records = run_ensemble(
        [part_clique(i) for i in range(6)], model, RoutingPolicy("random-uniform"), 2
    )
    for r in records:
        assert sum(r.labels) == 1


def test_k_sweep_flatness_with_fixed_population():
    # same population quotes; only the K-sample read-out varies. Flatness is
    # a statement about structural disagreement dominating sampling noise,
    # so the panel spread must sit well above the K=8 Bernoulli floor.
    clique = part_clique()
    model = PanelModel(k=4, sigma=0.45, K=None)
    rng = np.random.default_rng(0)
    truth = sample_truth(clique.relation, rng)
    pop = population_quotes(model, clique, truth, rng, model.bias_matrix(clique.relation.m))
    from coherify.projection import project_relation
    from coherify.composition import residual as comp_residual

    means = {}
    for K in (8, 16, 32):
        eps_values = []
        sample_rng = np.random.default_rng(123)
        for draw in range(250):
            raw = sample_k_marginals(pop, K, sample_rng)
            repaired = np.stack(
                [project_relation(clique.relation, q).projected for q in raw]
            )
            owners = sample_rng.integers(0, 4, size=4)
            routed = composition_for(clique, owners)
            locals_ = [
                repaired[s][list(c.coords)]
                for s, c in zip(routed.specialists, routed.comp.components)
            ]
            cert = comp_residual(routed.comp, locals_)
            eps_values.append(cert.epsilon_star)
        means[K] = (np.mean(eps_values), np.std(eps_values) / np.sqrt(len(eps_values)))
    values = [m for m, _ in means.values()]
    ses = [s for _, s in means.values()]
    assert max(values) - min(values) <= 3 * max(ses)


# --- hardness -------------------------------------------------------------------


def test_hardness_equality_relations_dominate():
    # population limit: continuous noise satisfies an equality cut only on a
    # measure-zero set, so every genuinely split routing of an equality
    # relation is incoherent (K-sample readouts are lattice-valued and can
    # satisfy the equality by chance, which is why K=None here)
    model = PanelModel(k=4, sigma=0.08, K=None)
    rows = {row.relation: row for row in hardness_experiment(
        model, [negation(), partition(4), conjunction()], n_cliques=10, n_seeds=2
    )}
    assert rows["neg"].prevalence_split >= 0.95
    assert rows["partition"].prevalence_split >= 0.95
    assert min(rows["neg"].prevalence, rows["partition"].prevalence) >= rows["and"].prevalence


def test_hardness_zero_noise_is_all_zero():
    model = PanelModel(k=4, sigma=0.0, bias_scale=0.0, K=None)
    rows = hardness_experiment(model, [negation(), partition(4)], n_cliques=5, n_seeds=2)
    for row in rows:
        assert row.mean_eps == 0.0
        assert row.prevalence == 0.0


def test_hardness_conjunction_interior_panel_not_always_positive():
    model = PanelModel(k=4, sigma=0.02, bias_scale=0.01, K=None)
    rows = hardness_experiment(model, [conjunction()], n_cliques=20, n_seeds=2)
    assert rows[0].prevalence < 1.0


# --- configs -------------------------------------------------------------------


def test_config_parse_round_trip():
    text = """
    # scenario
    relations = neg, partition
    m = 4
    n_cliques = 3
    panel_k = 4
    sigma = 0.1
    bias_scale = 0.02
    K = 8
    n_seeds = 2
    policy = random-uniform
    master_seed = 11
    truth = coherent
    """
    config = SimConfig.parse(text)
    assert config.relations == ("neg", "partition")
    assert config.master_seed == 11
    cliques = config.build_cliques()
    assert len(cliques) == 6
    assert cliques[0].relation == negation()
    model = config.build_model()
    assert model.K == 8


def test_config_k_zero_means_population_limit():
    config = SimConfig.parse("K = 0")
    assert config.build_model().K is None


def test_config_explicit_bias_rows():
    config = SimConfig.parse("panel_k = 2\nm = 2\nbiases = 0.1,-0.1; -0.1,0.1\n")
    model = config.build_model()
    assert np.allclose(model.bias_matrix(2), [[0.1, -0.1], [-0.1, 0.1]])
    with pytest.raises(ConfigError):
        SimConfig.parse("panel_k = 3\nbiases = 0.1,-0.1; -0.1,0.1\n")


def test_config_rejects_non_finite_numbers():
    for text in ("sigma = nan\n", "bias_scale = inf\n",
                 "panel_k = 2\nm = 2\nbiases = 0.1,nan; 0,0\n"):
        with pytest.raises(ConfigError) as err:
            SimConfig.parse(text)
        assert "finite" in err.value.problems[0]


def test_config_reports_all_problems():
    bad = """
    relations = neg, nonsense
    panel_k = -1
    policy = bogus
    truth = wrong
    K = x
    """
    with pytest.raises(ConfigError) as err:
        SimConfig.parse(bad)
    problems = err.value.problems
    assert len(problems) >= 5


@pytest.mark.parametrize(
    "text, problem",
    [
        ("relations = partition\nm = 12\nn_draws = 0\n", "n_draws: must be >= 1"),
        ("n_draws = -3\n", "n_draws: must be >= 1"),
        ("relations = ladder\nm = 13\n", "m: must be between 2 and 12"),
        ("relations = neg, paraphrase\nm = 1\n", "m: must be between 2 and 12"),
        ("relations =\n", "relations: need at least one kind"),
        ("relations = neg, and\npanel_k = 2\nbiases = 0.1, -0.1; -0.1, 0.1\n",
         "biases: rows have 2 entries, the relations need [2, 3]"),
        ("relations = neg\npanel_k = 2\nbiases = 0.1, -0.1, 0.0; -0.1, 0.1, 0.0\n",
         "biases: rows have 3 entries, the relations need [2]"),
        ("panel_k = 2\nbiases = 0.1, -0.1; 0.1\n", "biases: rows must share one length"),
        ("naive_operator = E\n", "naive_operator: must be one of ('A', 'B', 'C', 'D')"),
        ("sigma = -0.5\n", "sigma: must be >= 0"),
        ("K = -1\n", "K: must be >= 0 (0 means population limit)"),
    ],
    ids=["draws-0", "draws-negative", "ladder-m13", "paraphrase-m1", "no-relations",
         "biases-fit-no-arity", "biases-off-arity", "biases-ragged", "unknown-operator",
         "sigma-negative", "K-negative"],
)
def test_config_lists_draw_count_and_arity_problems(text, problem):
    with pytest.raises(ConfigError) as err:
        SimConfig.parse(text)
    assert err.value.problems == [problem]


def test_config_ignores_m_when_every_relation_has_a_fixed_arity():
    assert SimConfig.parse("relations = neg, and, or\nm = 13\n").m == 13
    assert SimConfig.parse("relations = ladder\nm = 12\nn_draws = 1\n").n_draws == 1


EVERY_KEY = """\
relations = neg, ladder
m = 2
n_cliques = 3
panel_k = 2
sigma = 0.2
bias_scale = 0.1
biases = 0.1,-0.1; -0.1,0.1
K = 0
n_seeds = 2
policy = single-owner
master_seed = 9
truth = adversarial
naive_operator = A
repaired_operator = C
n_draws = 7
"""


def test_config_keys_are_the_dataclass_fields():
    keys = [line.split("=")[0].strip() for line in EVERY_KEY.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(SimConfig)]
    config, default = SimConfig.parse(EVERY_KEY), SimConfig()
    assert all(getattr(config, key) != getattr(default, key) for key in keys)
    assert config.biases == ((0.1, -0.1), (-0.1, 0.1))


def test_config_reports_unknown_keys_and_bad_values_in_order():
    with pytest.raises(ConfigError) as err:
        SimConfig.parse("bogus = 1\nm = x\nno equals sign\nbiases = 1\n")
    assert err.value.problems == ["line 1: unknown key 'bogus'",
                                  "line 3: expected 'key = value'",
                                  "m: expected an integer",
                                  "biases: need one row per specialist (panel_k)"]


def test_config_reports_a_repeated_key_at_its_line():
    with pytest.raises(ConfigError) as err:
        SimConfig.parse("m = 4\nbogus = 1\n# m = 5\nm = 6\nn_seeds = 2\nn_seeds = 2\n")
    assert err.value.problems == ["line 2: unknown key 'bogus'",
                                  "line 4: duplicate key 'm' (first on line 1)",
                                  "line 6: duplicate key 'n_seeds' (first on line 5)"]


@pytest.mark.parametrize("token", ["1_0", "+10", "١٠", "0x10", "1e1", "10.0"])
def test_config_integers_take_only_plain_decimal_literals(token):
    # int() reads the first three as 10
    with pytest.raises(ConfigError) as err:
        SimConfig.parse(f"n_cliques = {token}\n")
    assert err.value.problems == ["n_cliques: expected an integer"]
    assert SimConfig.parse("n_cliques = 10\nmaster_seed = -3\n").master_seed == -3
