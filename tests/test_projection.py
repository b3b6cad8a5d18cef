import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.composition import (
    ComponentSpec,
    CompositionSpec,
    CouplingConstraint,
    free_components,
    relation_coupling,
    residual_batch,
)
from coherify.polytope import (
    PolytopeSpec,
    RelationKind,
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
from coherify import projection
from coherify.projection import (
    InfeasibleCouplingError,
    _hierarchical_cycle,
    _simplex_faces,
    _unconverged,
    project_closed_form,
    project_dykstra,
    project_hierarchical,
    project_local,
    project_oracle,
    project_polytope_batch,
    project_relation,
    project_relation_batch,
    project_simplex,
)

ALL_RELATIONS = [
    negation(),
    conjunction(),
    disjunction(),
    partition(4),
    ladder(4),
    paraphrase(3),
]


# --- closed forms ------------------------------------------------------------


def test_negation_closed_form_midpoint():
    res = project_closed_form(negation(), (0.6, 0.6))
    assert np.allclose(res.projected, (0.5, 0.5))
    assert res.residual == pytest.approx(0.2 / np.sqrt(2), abs=1e-12)


def test_partition_closed_form_matches_reported_case():
    # inputs sum to 2.50; repair subtracts 0.375 everywhere
    res = project_closed_form(partition(4), (0.39, 0.73, 0.67, 0.71))
    assert np.allclose(res.projected, (0.015, 0.355, 0.295, 0.335), atol=1e-12)
    assert res.residual == pytest.approx(0.750, abs=0.002)


def test_negation_closed_form_matches_reported_case():
    res = project_closed_form(negation(), (0.84, 0.89))
    assert np.allclose(res.projected, (0.475, 0.525), atol=1e-12)
    assert res.residual == pytest.approx(0.517, abs=0.002)


def test_negation_closed_form_clips_to_box():
    # the shift onto r1 + r2 = 1 alone gives (1.15, -0.15), outside the box
    res = project_closed_form(negation(), (1.5, 0.2))
    assert np.array_equal(res.projected, (1.0, 0.0))
    dykstra = project_dykstra(build_polytope(negation()), (1.5, 0.2))
    assert np.max(np.abs(res.projected - dykstra.projected)) <= 1e-9
    oracle = project_oracle(enumerate_vertices(negation()), (-0.4, 0.1))
    assert np.max(np.abs(project_closed_form(negation(), (-0.4, 0.1)).projected
                         - oracle.projected)) <= 1e-12


def test_closed_form_rejects_frechet_relations():
    with pytest.raises(ValueError):
        project_closed_form(conjunction(), (0.5, 0.5, 0.25))


def test_simplex_projection_identity_on_members():
    q = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(project_simplex(q), q)


def _pav_reference(y):
    """Pool-adjacent-violators fit of a non-increasing sequence, uniform weights."""
    values, weights = [], []
    for v in y:
        values.append(float(v))
        weights.append(1)
        while len(values) > 1 and values[-2] < values[-1]:
            v1, w1 = values.pop(), weights.pop()
            v0, w0 = values.pop(), weights.pop()
            values.append((v0 * w0 + v1 * w1) / (w0 + w1))
            weights.append(w0 + w1)
    return np.repeat(values, weights)


def test_pav_nonincreasing_against_brute_force():
    # oracle: exhaustive search over level quantization is overkill; use the
    # vertex-hull oracle on the ladder polytope instead
    rng = np.random.default_rng(3)
    rel = ladder(5)
    V = enumerate_vertices(rel)
    Q = rng.uniform(size=(100, 5))
    batch = project_relation_batch(rel, Q)
    for q, row in zip(Q, batch):
        oracle = project_oracle(V, q)
        assert np.max(np.abs(row - oracle.projected)) < 1e-9


def test_pav_handles_flat_and_sorted_inputs():
    assert np.array_equal(project_relation_batch(ladder(3), [[0.9, 0.5, 0.1]]), [[0.9, 0.5, 0.1]])
    assert np.allclose(project_relation_batch(ladder(2), [[0.2, 0.8]]), [[0.5, 0.5]])


# row counts on both sides of the isotonic kernel's switch to the column layout
LADDER_ROW_COUNTS = (0, 1, projection.COLUMN_ROWS - 1, projection.COLUMN_ROWS, 4096)


def _ladder_rows(m: int) -> np.ndarray:
    """4,096 ladder quotes cycling through five kinds, so any five rows in a row hold each:
    in order, flat, tied, ties on the box edges, and plain draws out of the box too."""
    rng = np.random.default_rng(m)
    X = rng.uniform(-0.3, 1.3, size=(LADDER_ROW_COUNTS[-1], m))
    X[0::5] = -np.sort(-X[0::5], axis=1)  # chains already in order
    X[1::5, 1:] = X[1::5, :1]  # flat rows
    X[2::5] = np.round(X[2::5], 1)  # tied entries
    X[3::5] = rng.choice([-0.0, 0.0, 0.5, 1.0], size=X[3::5].shape)  # ties on the box edges
    return X


@pytest.mark.parametrize("m", [2, 3, 6, 12, 20])
def test_ladder_route_matches_pool_adjacent_violators(m):
    X = _ladder_rows(m)
    expected = np.array([np.clip(_pav_reference(x), 0.0, 1.0) for x in X])
    for n in LADDER_ROW_COUNTS:
        batch = project_relation_batch(ladder(m), X[:n])
        assert batch.shape == (n, m)
        assert np.max(np.abs(batch - expected[:n]), initial=0.0) <= 1e-12


# --- Dykstra -----------------------------------------------------------------


def test_dykstra_member_is_fixed_point():
    q = np.array([0.5, 0.5, 0.25])
    res = project_dykstra(build_polytope(conjunction()), q)
    assert res.converged
    assert res.residual <= 1e-12
    assert np.max(np.abs(res.projected - q)) <= 1e-12
    assert res.active_constraint is None


def test_dykstra_matches_oracle_on_conjunction():
    q = np.array([0.5, 0.5, 0.9])
    res = project_dykstra(build_polytope(conjunction()), q)
    oracle = project_oracle(enumerate_vertices(conjunction()), q)
    assert np.max(np.abs(res.projected - oracle.projected)) <= 1e-6
    assert res.residual > 0


def test_dykstra_disjunction_reported_case():
    res = project_dykstra(build_polytope(disjunction()), (0.02, 0.03, 0.92))
    assert res.residual == pytest.approx(0.502, abs=0.005)
    assert res.converged


def test_dykstra_reports_nonconvergence():
    res = project_dykstra(build_polytope(conjunction()), (0.9, 0.9, 0.05), max_iter=1)
    assert not res.converged


@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_dykstra_agrees_with_oracle_randomly(relation):
    spec = build_polytope(relation)
    V = enumerate_vertices(relation)
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.uniform(size=relation.m)
        res = project_dykstra(spec, q)
        oracle = project_oracle(V, q)
        assert np.max(np.abs(res.projected - oracle.projected)) <= 1e-6


def test_closed_form_vs_dykstra_machine_precision_gap():
    rng = np.random.default_rng(5)
    for relation in (negation(), partition(4)):
        spec = build_polytope(relation)
        worst = 0.0
        for _ in range(200):
            q = rng.uniform(size=relation.m)
            cf = project_closed_form(relation, q).projected
            dy = project_dykstra(spec, q, tol=1e-15).projected
            worst = max(worst, float(np.max(np.abs(cf - dy))))
        assert worst <= 1e-12


# --- oracle ------------------------------------------------------------------


def test_oracle_matches_negation_closed_form():
    res = project_oracle(enumerate_vertices(negation()), (0.6, 0.6))
    assert np.allclose(res.projected, (0.5, 0.5), atol=1e-12)


def test_oracle_matches_partition_closed_form_on_reported_case():
    q = np.array([0.39, 0.73, 0.67, 0.71])
    oracle = project_oracle(enumerate_vertices(partition(4)), q)
    closed = project_closed_form(partition(4), q)
    assert np.max(np.abs(oracle.projected - closed.projected)) <= 1e-9


def test_oracle_positive_residual_outside_hull():
    res = project_oracle(enumerate_vertices(conjunction()), (1.0, 1.0, 0.0))
    assert res.residual > 0


def test_oracle_vertex_limit():
    with pytest.raises(ValueError):
        project_oracle(np.zeros((5000, 2)), np.zeros(2))


# --- hierarchical ------------------------------------------------------------


def test_hierarchical_identity_without_coupling():
    comp = CompositionSpec(free_components([1, 1, 1]), (), 3)
    q = np.array([0.2, 0.9, 0.4])
    res = project_hierarchical(comp, q)
    assert np.max(np.abs(res.projected - q)) <= 1e-12
    assert res.residual <= 1e-12


def test_hierarchical_partition_matches_closed_form():
    comp = CompositionSpec(
        free_components([1, 1, 1, 1]), relation_coupling(partition(4), range(4)), 4
    )
    q = np.array([0.39, 0.73, 0.67, 0.71])
    res = project_hierarchical(comp, q)
    closed = project_closed_form(partition(4), q)
    assert np.max(np.abs(res.projected - closed.projected)) <= 1e-9


def test_hierarchical_negation_split_matches_joint_closed_form():
    comp = CompositionSpec(
        free_components([1, 1]), relation_coupling(negation(), range(2)), 2
    )
    res = project_hierarchical(comp, np.array([0.84, 0.89]))
    assert np.allclose(res.projected, (0.475, 0.525), atol=1e-9)


@pytest.mark.parametrize(
    "relation",
    [negation(), conjunction(), disjunction(), partition(4), ladder(4), paraphrase(3),
     partition(8), ladder(6)],
    ids=lambda r: f"{r.kind.value}{r.m}",
)
def test_hierarchical_equals_direct_joint_projection(relation):
    m = relation.m
    comp = CompositionSpec(
        free_components([1] * m), relation_coupling(relation, range(m)), m
    )
    joint = comp.joint_polytope
    rng = np.random.default_rng(13)
    for _ in range(25):
        q = rng.uniform(size=m)
        hier = project_hierarchical(comp, q, tol=1e-10)
        direct = project_dykstra(joint, q, tol=1e-10)
        exact = project_relation(relation, q)
        assert np.max(np.abs(hier.projected - direct.projected)) <= 10 * 1e-10 + 1e-8
        assert np.max(np.abs(hier.projected - exact.projected)) <= 1e-8
        assert np.max(np.abs(direct.projected - exact.projected)) <= 1e-8


def test_hierarchical_with_relation_components_and_equality_coupling():
    # two full negation cliques whose first coordinates must agree
    comps = [
        ComponentSpec(build_polytope(negation()), (0, 1)),
        ComponentSpec(build_polytope(negation()), (2, 3)),
    ]
    comp = CompositionSpec(tuple(comps), (CouplingConstraint("equality", (0, 2)),), 4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(size=4)
        hier = project_hierarchical(comp, q)
        direct = project_dykstra(comp.joint_polytope, q)
        assert np.max(np.abs(hier.projected - direct.projected)) <= 1e-8
        assert is_member(comp.joint_polytope, hier.projected, 1e-8)


def test_hierarchical_soak_on_random_mixed_compositions():
    # random mixes of relation-backed and free components with random
    # coupling cuts; hierarchical must agree with the direct joint cycle and
    # satisfy the projection laws against integral feasible points
    rng = np.random.default_rng(99)
    attempts = 0
    accepted = 0
    while accepted < 25 and attempts < 200:
        attempts += 1
        blocks = []
        dim = 0
        for _ in range(int(rng.integers(2, 4))):
            choice = rng.integers(0, 3)
            if choice == 0:
                poly = build_polytope(negation())
            elif choice == 1:
                poly = build_polytope(partition(3))
            else:
                poly = None  # free box
            width = poly.dim if poly is not None else int(rng.integers(1, 3))
            coords = tuple(range(dim, dim + width))
            from coherify.composition import ComponentSpec as CS
            from coherify.polytope import PolytopeSpec

            blocks.append(CS(poly if poly is not None else PolytopeSpec(dim=width), coords))
            dim += width
        if dim > 8:
            continue
        cuts = []
        for _ in range(int(rng.integers(1, 3))):
            pair = tuple(int(v) for v in rng.choice(dim, size=2, replace=False))
            kind = ["equality", "negation-sum", "ladder-chain"][int(rng.integers(0, 3))]
            cuts.append(CouplingConstraint(kind, pair))
        comp = CompositionSpec(tuple(blocks), tuple(cuts), dim)
        if comp.has_feasible_point() is not True:
            continue  # keep only visibly feasible systems
        accepted += 1
        joint = comp.joint_polytope
        feasible_points = [
            v for v in comp.product_vertices
            if is_member(joint, v, 1e-9)
        ]
        for _ in range(5):
            q = rng.uniform(size=dim)
            hier = project_hierarchical(comp, q, tol=1e-11)
            direct = project_dykstra(joint, q, tol=1e-11)
            assert hier.converged and direct.converged
            assert np.max(np.abs(hier.projected - direct.projected)) <= 1e-7
            assert is_member(joint, hier.projected, 1e-7)
            for p_star in feasible_points[:4]:
                lhs = float(np.sum((hier.projected - p_star) ** 2))
                rhs = float(np.sum((q - p_star) ** 2) - hier.residual**2)
                assert lhs <= rhs + 1e-9
    assert accepted >= 25


def test_hierarchical_detects_empty_intersection():
    coupling = (
        CouplingConstraint("partition-sum", (0, 1), 1.0),
        CouplingConstraint("frechet-halfspace", (0, 1), 0.3, a=(1.0, 1.0)),
    )
    comp = CompositionSpec(free_components([1, 1]), coupling, 2)
    with pytest.raises(InfeasibleCouplingError):
        project_hierarchical(comp, np.array([0.5, 0.5]), max_iter=2000)


def paraphrase_split() -> CompositionSpec:
    return CompositionSpec(free_components([2, 3, 3]), relation_coupling(paraphrase(8), range(8)), 8)


def test_hierarchical_batch_rows_stop_on_their_own_bit_for_bit():
    comp = paraphrase_split()
    rng = np.random.default_rng(3)
    X = np.vstack([np.full(8, 0.4), rng.uniform(size=(3, 8))])  # a member, then far rows
    cycles = [project_hierarchical(comp, q).iterations for q in X]
    assert cycles[0] == 1 and min(cycles[1:]) >= 100
    max_iter = max(cycles) - 1  # the slowest row no longer converges
    x, iterations, converged = _hierarchical_cycle(comp, X, max_iter=max_iter)
    assert converged.tolist().count(False) == 1
    for q, p, k, c in zip(X, x, iterations.tolist(), converged.tolist()):
        one, one_k, one_c = _hierarchical_cycle(comp, q[None, :], max_iter=max_iter)
        assert (one[0].tobytes(), int(one_k[0]), bool(one_c[0])) == (p.tobytes(), k, c)
        if c:
            got = project_hierarchical(comp, q, max_iter=max_iter)
            assert (got.projected.tobytes(), got.iterations) == (p.tobytes(), k)
        else:
            with pytest.raises(RuntimeError):
                project_hierarchical(comp, q, max_iter=max_iter)


def test_hierarchical_batch_rows_that_stop_together_equal_their_one_row_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    box_split = CompositionSpec(free_components([2, 3]), relation_coupling(partition(5), range(5)))
    sole_owner = CompositionSpec((ComponentSpec(build_polytope(ladder(3)), (0, 1, 2)),
                                  ComponentSpec(build_polytope(negation()), (3, 4))),
                                 relation_coupling(ladder(3), range(3)), 5)
    for comp, X in [(box_split, 0.2 + rng.uniform(-0.05, 0.05, size=(6, 5))),  # clip locally
                    (sole_owner, rng.uniform(-0.2, 1.2, size=(6, 5)))]:  # components' own routes
        x, iterations, converged = _hierarchical_cycle(comp, X)
        assert set(iterations.tolist()) == {2} and converged.all()  # every row in one cycle
        for q, p in zip(X, x):
            one, one_k, one_c = _hierarchical_cycle(comp, q[None, :])
            assert (one[0].tobytes(), int(one_k[0]), bool(one_c[0])) == (p.tobytes(), 2, True)


def test_hierarchical_raises_past_the_cap_when_a_feasible_point_is_known():
    comp = paraphrase_split()
    X = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.4] * 8])
    _, _, converged = _hierarchical_cycle(comp, X, max_iter=4)
    assert comp.has_feasible_point() is True
    assert converged.tolist() == [False, True]
    with pytest.raises(RuntimeError) as exc:
        project_hierarchical(comp, X[0], max_iter=4)
    expected = _unconverged(comp)
    assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
    assert project_hierarchical(comp, X[1], max_iter=4).converged


def test_hierarchical_batch_raises_on_empty_intersection():
    coupling = (
        CouplingConstraint("partition-sum", (0, 1), 1.0),
        CouplingConstraint("frechet-halfspace", (0, 1), 0.3, a=(1.0, 1.0)),
    )
    comp = CompositionSpec(free_components([1, 1]), coupling, 2)
    X = np.array([[0.5, 0.5], [0.1, 0.9], [1.0, 0.0]])
    with pytest.raises(InfeasibleCouplingError):
        residual_batch([(comp, q[:, None]) for q in X])
    for q in X:
        with pytest.raises(InfeasibleCouplingError):
            project_hierarchical(comp, q, max_iter=2000)


def test_hierarchical_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        project_hierarchical(paraphrase_split(), np.zeros((1, 8)))
    with pytest.raises(ValueError):
        project_hierarchical(paraphrase_split(), np.zeros(7))


def test_empty_batches_run_no_cycle(monkeypatch):
    comp = paraphrase_split()
    cycles = []
    clip = projection._clip  # every cycle's local projector starts with it
    monkeypatch.setattr(projection, "_clip", lambda Y: cycles.append(len(Y)) or clip(Y))
    x, iterations, converged = _hierarchical_cycle(comp, np.empty((0, 8)))
    assert x.shape == (0, 8) and iterations.shape == converged.shape == (0,)
    assert project_polytope_batch(comp.joint_polytope, np.empty((0, 8))).shape == (0, 8)
    assert cycles == []
    assert _hierarchical_cycle(comp, np.full((1, 8), 0.4))[0].shape == (1, 8)
    assert cycles == [1]  # the counter sees the cycles there are


# --- pair cuts and sweep blocks ----------------------------------------------


def _blocks(*cuts: CouplingConstraint, dim: int = 5) -> list:
    """Each sweep step of the coupling ``cuts``: None for a dense row, else the
    block's ``(j columns, k columns, sign)``, after checking that its rows are
    ``e_j + sign * e_k`` in that column order."""
    comp = CompositionSpec(free_components([1] * dim), cuts, dim)
    columns = np.arange(dim)
    steps = []
    for a, _, _, _, _, block, _ in comp.system.cuts:
        if block is None:
            steps.append(None)
            continue
        js, ks, sign = block
        assert type(js) is slice and type(ks) is slice and type(sign) is float
        rows = np.zeros((len(columns[js]), dim))
        rows[np.arange(len(rows)), columns[js]] = 1.0
        rows[np.arange(len(rows)), columns[ks]] = sign
        assert a.tobytes() == rows.tobytes()
        steps.append((columns[js].tolist(), columns[ks].tolist(), sign))
    return steps


def _dense(rows: list, dim: int) -> tuple:
    """Dense sweep steps, one per ``(a, b, a . a, max|a|, is_halfspace)`` row, in order."""
    return tuple(r + (None, slice(dim + i, dim + i + 1)) for i, r in enumerate(rows))


def _one_cut_at_a_time(cuts: tuple, dim: int) -> tuple:
    """The sweep ``cuts`` with every block unrolled into dense steps, in the block's order."""
    return _dense([(row, b, aa, a_max, halfspace) for a, b, aa, a_max, halfspace, block, _ in cuts
                   for row in (a if block is not None else [a])], dim)


def _spec_order(spec) -> tuple:
    """A dense sweep over ``spec``'s rows in the order of ``spec.A``, one cut at a time."""
    halfspace = [False] * len(spec.equalities) + [True] * len(spec.halfspaces)
    return _dense([(a, b, float(a @ a), float(np.abs(a).max()), h)
                   for a, b, h in zip(spec.A, spec.b.tolist(), halfspace)], spec.dim)


def test_cut_table_marks_two_coordinate_unit_rows_as_pairs():
    # rows read e_j + sign * e_k, with j the coordinate whose coefficient is +1;
    # a chain over evenly spaced coordinates is swept as its even links, then
    # its odd links; every other pair row is a block of one
    assert _blocks(CouplingConstraint("equality", (3, 0, 4))) == [([3], [0], -1.0),
                                                                 ([0], [4], -1.0)]
    assert _blocks(CouplingConstraint("ladder-chain", (2, 0, 3))) == [([0], [2], -1.0),
                                                                     ([3], [0], -1.0)]
    assert _blocks(CouplingConstraint("negation-sum", (4, 1))) == [([1], [4], 1.0)]
    assert _blocks(CouplingConstraint("partition-sum", (2, 0))) == [([0], [2], 1.0)]
    assert _blocks(*relation_coupling(conjunction(), (0, 1, 2))) == [([2], [0], -1.0),
                                                                    ([2], [1], -1.0), None]
    assert _blocks(*relation_coupling(disjunction(), (0, 1, 2))) == [([0], [2], -1.0),
                                                                    ([1], [2], -1.0), None]
    assert _blocks(*relation_coupling(paraphrase(3), (0, 1, 2))) == [([0], [1], -1.0),
                                                                    ([1], [2], -1.0)]
    assert _blocks(*relation_coupling(paraphrase(6), range(6)), dim=6) == [
        ([0, 2, 4], [1, 3, 5], -1.0), ([1, 3], [2, 4], -1.0)]
    assert _blocks(*relation_coupling(ladder(5), range(5))) == [([1, 3], [0, 2], -1.0),
                                                               ([2, 4], [1, 3], -1.0)]
    assert _blocks(CouplingConstraint("equality", (5, 4, 3, 2, 1, 0)), dim=6) == [
        ([1, 3, 5], [0, 2, 4], -1.0), ([2, 4], [1, 3], -1.0)]
    assert _blocks(CouplingConstraint("ladder-chain", (0, 2, 4, 6, 8)), dim=9) == [
        ([2, 6], [0, 4], -1.0), ([4, 8], [2, 6], -1.0)]
    # two chains back to back stay two chains; equal chains do not merge
    first = CouplingConstraint("equality", (0, 1, 2))
    second = CouplingConstraint("equality", (3, 4, 5))
    assert _blocks(first, second, dim=6) == [([0], [1], -1.0), ([1], [2], -1.0),
                                             ([3], [4], -1.0), ([4], [5], -1.0)]
    twice = CouplingConstraint("equality", (0, 1))
    assert _blocks(twice, twice) == [([0], [1], -1.0), ([0], [1], -1.0)]


@pytest.mark.parametrize("cut", [
    CouplingConstraint("partition-sum", (0, 1, 2)),
    CouplingConstraint("partition-sum", (0, 1, 2, 3, 4)),
    CouplingConstraint("frechet-halfspace", (0, 1, 2), 1.0, a=(1.0, 1.0, -1.0)),
    CouplingConstraint("frechet-halfspace", (0, 1), 0.0, a=(2.0, -1.0)),
    CouplingConstraint("frechet-halfspace", (0, 1), 0.5, a=(1.0, 0.5)),
    CouplingConstraint("frechet-halfspace", (0, 1), 0.5, a=(-1.0, -2.0)),
    CouplingConstraint("frechet-halfspace", (3, 1), 0.5, a=(-1.0, -1.0)),  # no +1 coefficient
])
def test_cut_table_keeps_other_rows_dense(cut):
    assert _blocks(cut) == [None]


def test_cut_table_is_built_once_per_spec_and_read_only():
    spec = build_polytope(ladder(12))
    table = projection._cut_table(spec)
    assert projection._cut_table(spec) is table
    assert projection._cut_table(dataclasses.replace(spec)) is table  # an equal spec
    assert all(not step[0].flags.writeable for step in table)
    assert projection._cut_table.cache_info().maxsize == projection.CUT_TABLE_CACHE_SIZE
    # project_dykstra and project_local's generic branch read the cached table
    generic = PolytopeSpec(dim=12, halfspaces=spec.halfspaces)
    q = np.random.default_rng(3).uniform(size=12)
    before = projection._cut_table.cache_info()
    project_dykstra(spec, q)
    project_local(generic, q)
    project_local(generic, q)
    after = projection._cut_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) in ((3, 0), (2, 1))


def _cycle_both_ways(comp: CompositionSpec, X: np.ndarray, max_iter: int):
    """The block sweep of ``comp``, and the dense sweep over the same cuts in the same order."""
    local = lambda Y: projection._project_locals(comp, Y)  # noqa: E731
    cuts = comp.system.cuts
    return (projection._cyclic(X, local, cuts, projection.DYKSTRA_TOL, max_iter),
            projection._cyclic(X, local, _one_cut_at_a_time(cuts, comp.joint_dim),
                               projection.DYKSTRA_TOL, max_iter))


def _same_bits(got, want) -> bool:
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@st.composite
def pair_and_dense_systems(draw):
    """A composition over 2..8 coordinates with random pair and dense coupling cuts,
    chains over evenly spaced coordinates among them, and 1..5 quotes, some
    entries exactly 0, -0.0 or 1."""
    dim = draw(st.integers(2, 8))
    widths = []
    while sum(widths) < dim:
        widths.append(draw(st.integers(1, dim - sum(widths))))
    components = list(free_components(widths))
    if widths[0] == 2 and draw(st.booleans()):  # a relation's own local route too
        components[0] = ComponentSpec(build_polytope(negation()), (0, 1))
    cuts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["equality", "negation-sum", "partition-sum",
                                     "ladder-chain", "frechet-halfspace"]))
        size = 2 if kind == "negation-sum" else draw(st.integers(2, min(dim, 6)))
        if kind in ("equality", "ladder-chain") and draw(st.booleans()):  # evenly spaced
            stride = draw(st.integers(1, (dim - 1) // (size - 1)))
            start = draw(st.integers(0, dim - 1 - stride * (size - 1)))
            coords = tuple(range(start, start + stride * size, stride))
            coords = coords[::-1] if draw(st.booleans()) else coords
        else:
            coords = tuple(draw(st.permutations(range(dim)))[:size])
        if kind == "frechet-halfspace":
            a = [draw(st.sampled_from([1.0, -1.0])) for _ in coords]
            if draw(st.booleans()):
                a[draw(st.integers(0, size - 1))] = draw(st.sampled_from([0.5, 2.0, -2.0]))
            b = draw(st.sampled_from([-0.5, 0.0, 0.5, 1.0]))
            cuts.append(CouplingConstraint(kind, coords, b, a=tuple(a)))
        elif kind in ("negation-sum", "partition-sum"):
            cuts.append(CouplingConstraint(kind, coords, draw(st.sampled_from([1.0, 0.5]))))
        else:
            cuts.append(CouplingConstraint(kind, coords))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                      st.floats(-0.25, 1.25, allow_nan=False, allow_subnormal=False))
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=5))
    return CompositionSpec(tuple(components), tuple(cuts), dim), np.array(rows)


@settings(max_examples=80, deadline=None)
@given(system=pair_and_dense_systems())
def test_pair_kernel_matches_every_cut_dense_bit_for_bit(system):
    comp, X = system
    blocks, dense = _cycle_both_ways(comp, X, max_iter=300)
    assert _same_bits(blocks, dense)


def test_pair_kernel_matches_dense_on_rows_that_stop_apart():
    rng = np.random.default_rng(8)
    X = np.vstack([np.full(8, 0.4), rng.uniform(size=(3, 8)), [-0.0, 0.5, 1.0, 0, 0, 0, 0, 1]])
    ladder_split = CompositionSpec(free_components([3, 5]), relation_coupling(ladder(8), range(8)))
    and_split = CompositionSpec(free_components([2, 2]), relation_coupling(conjunction(), (0, 1, 3)))
    for comp in (paraphrase_split(), ladder_split, and_split):
        Y = X[:, :comp.joint_dim]
        blocks, dense = _cycle_both_ways(comp, Y, max_iter=10_000)
        assert _same_bits(blocks, dense)
        assert len(set(blocks[1].tolist())) >= 2  # rows stopped at different cycles
    assert [len(a) for a, *_ in ladder_split.system.cuts] == [4, 3]  # blocks of several cuts
    cert = residual_batch([(paraphrase_split(), [X[4, :2], X[4, 2:5], X[4, 5:]])])[0]
    assert np.signbit(cert.composed[0])  # the -0.0 entry reaches the cycle ...
    assert not np.signbit(cert.repaired).any()  # ... and the first cycle's y = x + P drops its sign


def test_pair_kernel_keeps_a_signed_zero_off_its_support():
    # a local set that hands back -0.0 in a column no cut reads: the dense axpy
    # adds step * 0.0 = +0.0 there when step >= 0, which clears the sign; a
    # block step never touches the column
    def local(Y):
        x = Y.clip(0.0, 1.0)
        x[:, 2] = -0.0
        return x

    comp = CompositionSpec(free_components([1, 1, 1]), relation_coupling(negation(), (0, 1)), 3)
    cuts = comp.system.cuts
    X = np.array([[0.1, 0.1, 0.0]])
    blocks = projection._cyclic(X, local, cuts, projection.DYKSTRA_TOL, 100)
    dense = projection._cyclic(X, local, _one_cut_at_a_time(cuts, 3), projection.DYKSTRA_TOL, 100)
    assert blocks[0][:, :2].tobytes() == dense[0][:, :2].tobytes()
    assert _same_bits(blocks[1:], dense[1:])
    assert np.signbit(blocks[0][0, 2]) and not np.signbit(dense[0][0, 2])


def _chain_compositions(relation) -> list[CompositionSpec]:
    """``relation``'s coupling over ``range(m)`` with split owners and with a sole owner."""
    m = relation.m
    coupling = relation_coupling(relation, range(m))
    return [CompositionSpec(free_components([m // 2, m - m // 2]), coupling, m),
            CompositionSpec((ComponentSpec(build_polytope(relation), tuple(range(m))),), coupling,
                            m)]


CHAINS = [make(m) for make in (paraphrase, ladder) for m in range(3, 13)]


@pytest.mark.parametrize("relation", CHAINS, ids=lambda r: f"{r.kind.value}{r.m}")
def test_chain_certificates_match_the_exact_route(relation):
    # the block sweep reorders the cuts of a chain: its certificates stay
    # within 1e-9 of the exact projection, and its mean cycle count over a
    # fixed batch stays within 2 of the spec-order dense sweep's. One row's
    # count moves by dozens of cycles either way (Dykstra's stop point), so
    # the batch is large enough that its mean moves by well under one cycle
    rng = np.random.default_rng([17, relation.m])
    X = rng.uniform(-0.1, 1.1, size=(256, relation.m))
    for comp in _chain_compositions(relation):
        certs = residual_batch([(comp, [q[list(c.coords)] for c in comp.components]) for q in X])
        composed = np.array([c.composed for c in certs])
        exact = project_relation_batch(relation, composed)
        assert np.abs(np.array([c.repaired for c in certs]) - exact).max() <= 1e-9
        assert max(abs(c.epsilon_star - float(np.linalg.norm(q - p)))
                   for c, q, p in zip(certs, composed, exact)) <= 1e-9
        local = lambda Y: projection._project_locals(comp, Y)  # noqa: E731
        _, blocks, _ = projection._cyclic(composed, local, comp.system.cuts,
                                          projection.DYKSTRA_TOL, 10_000)
        _, dense, _ = projection._cyclic(composed, local, _spec_order(comp.coupling_polytope),
                                         projection.DYKSTRA_TOL, 10_000)
        assert blocks.mean() <= dense.mean() + 2


# --- projection laws ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data(), relation=st.sampled_from(ALL_RELATIONS))
def test_pythagorean_inequality(data, relation):
    V = enumerate_vertices(relation).as_array()
    rng_seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    q = rng.uniform(size=relation.m)
    w = rng.dirichlet(np.ones(len(V)))
    member = w @ V
    res = project_relation(relation, q)
    lhs = float(np.sum((res.projected - member) ** 2))
    rhs = float(np.sum((q - member) ** 2) - res.residual**2)
    assert lhs <= rhs + 1e-9


@settings(max_examples=40, deadline=None)
@given(data=st.data(), relation=st.sampled_from(ALL_RELATIONS))
def test_idempotence_and_nonexpansiveness(data, relation):
    rng_seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    q1 = rng.uniform(size=relation.m)
    q2 = rng.uniform(size=relation.m)
    p1 = project_relation(relation, q1).projected
    p2 = project_relation(relation, q2).projected
    again = project_relation(relation, p1)
    assert again.residual <= 1e-9
    assert np.linalg.norm(p1 - p2) <= np.linalg.norm(q1 - q2) + 1e-9


def test_batch_projection_matches_scalar():
    rng = np.random.default_rng(17)
    for relation in ALL_RELATIONS + [partition(12), ladder(12), paraphrase(12)]:
        spec = build_polytope(relation)
        X = rng.uniform(-0.3, 1.3, size=(40, relation.m))
        batch = project_polytope_batch(spec, X)
        exact_batch = project_relation_batch(relation, X)
        assert np.max(np.abs(exact_batch - batch)) <= 1e-7
        for i in range(X.shape[0]):
            scalar = project_dykstra(spec, X[i]).projected
            exact = project_relation(relation, X[i]).projected
            assert np.max(np.abs(batch[i] - scalar)) <= 1e-7
            assert np.max(np.abs(batch[i] - exact)) <= 1e-7
            assert np.max(np.abs(exact_batch[i] - exact)) <= 1e-12


FRECHET = [conjunction(), disjunction()]


@pytest.mark.parametrize("relation", FRECHET, ids=lambda r: r.kind.value)
def test_frechet_face_route_matches_oracle(relation):
    V = enumerate_vertices(relation).as_array()
    rng = np.random.default_rng(23)
    X = np.vstack([
        rng.uniform(-0.5, 1.5, size=(1500, 3)),
        rng.uniform(0.0, 1.0, size=(1500, 3)),
        rng.dirichlet(np.ones(len(V)), size=500) @ V,
    ])
    batch = project_relation_batch(relation, X)
    for q, row in zip(X, batch):
        assert np.max(np.abs(row - project_oracle(V, q).projected)) <= 1e-12


@pytest.mark.parametrize("relation", FRECHET, ids=lambda r: r.kind.value)
def test_frechet_face_route_fixes_vertices_edge_midpoints_and_facet_centroids(relation):
    V = enumerate_vertices(relation).as_array()
    points = np.array([V[list(face)].mean(axis=0)
                       for r in (1, 2, 3) for face in itertools.combinations(range(len(V)), r)])
    assert len(points) == 4 + 6 + 4
    assert np.array_equal(project_relation_batch(relation, points), points)


@pytest.mark.parametrize(
    "relation",
    ALL_RELATIONS + [partition(12), paraphrase(12), ladder(2), ladder(3), ladder(12), ladder(20)],
    ids=lambda r: f"{r.kind.value}{r.m}",
)
def test_batch_rows_equal_one_row_calls_bit_for_bit(relation):
    if relation.kind is RelationKind.LADDER:  # both isotonic layouts
        X, counts = _ladder_rows(relation.m), LADDER_ROW_COUNTS
    else:
        rng = np.random.default_rng(29)
        X = rng.uniform(-0.5, 1.5, size=(700, relation.m))  # more rows than one face-route block
        counts = (0, 1, 700)
    batch = project_relation_batch(relation, X)
    for n in counts:
        strided = np.zeros((2 * n, 2 * relation.m))[::2, ::2]
        strided[:] = X[:n]
        for layout in (X[:n], np.asfortranarray(X[:n]), strided):
            assert project_relation_batch(relation, layout).tobytes() == batch[:n].tobytes()
    for i, row in enumerate(batch):
        assert row.tobytes() == project_relation_batch(relation, X[i:i + 1])[0].tobytes()


def test_face_table_refuses_affinely_dependent_vertices():
    square = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="affinely independent"):
        _simplex_faces(square)
    with pytest.raises(ValueError, match="affinely independent"):
        _simplex_faces(np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]]))
    G, h = _simplex_faces(enumerate_vertices(conjunction()).as_array())
    assert G.shape == (15, 4 + 3, 3) and h.shape == (15, 4 + 3)


@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_project_relation_is_the_batched_route_on_one_row(relation):
    rng = np.random.default_rng(31)
    for q in rng.uniform(-0.5, 1.5, size=(50, relation.m)):
        res = project_relation(relation, q)
        assert np.array_equal(res.projected, project_relation_batch(relation, q[None])[0])
        assert res.iterations == 1 and res.converged


def test_batch_route_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        project_relation_batch(partition(4), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        project_relation_batch(partition(4), np.zeros(4))
    assert project_relation_batch(ladder(4), np.zeros((0, 4))).shape == (0, 4)


def test_result_residual_matches_norm():
    q = np.array([0.9, 0.9])
    res = project_closed_form(negation(), q)
    assert res.residual == pytest.approx(float(np.linalg.norm(q - res.projected)), abs=1e-12)


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def _non_finite_routes():
    spec = build_polytope(partition(3))
    vertices = enumerate_vertices(partition(3))
    comp = CompositionSpec(free_components([1, 1, 1]),
                           relation_coupling(partition(3), range(3)), 3)
    return {
        "dykstra": lambda q: project_dykstra(spec, q),
        "polytope_batch": lambda q: project_polytope_batch(spec, np.stack([[0.2, 0.3, 0.5], q])),
        "relation": lambda q: project_relation(partition(3), q),
        "closed_form": lambda q: project_closed_form(partition(3), q),
        "oracle": lambda q: project_oracle(vertices, q),
        "hierarchical": lambda q: project_hierarchical(comp, q),
    }


@pytest.mark.parametrize("route", ["dykstra", "polytope_batch", "relation", "closed_form",
                                   "oracle", "hierarchical"])
@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_public_routes_refuse_non_finite_quotes_before_any_arithmetic(route, bad):
    project = _non_finite_routes()[route]
    q = np.array([bad, 0.5, 0.2])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^quotes have non-finite entries$"):
        project(q)
    assert time.perf_counter() - start < 0.010  # no cycle ran to the iteration cap
