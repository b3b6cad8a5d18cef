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
    residual,
    residual_batch,
)
from coherify.polytope import (
    Clique,
    LinearConstraint,
    PolytopeSpec,
    Relation,
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
    _simplex_faces,
    project_active_set,
    project_closed_form,
    project_dykstra,
    project_hierarchical,
    project_local,
    project_oracle,
    project_polytope_batch,
    project_relation,
    project_relation_batch,
)
from coherify.simharness import composition_for

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
    assert np.array_equal(project_relation_batch(partition(3), q[None, :])[0], q)


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
        hier = project_hierarchical(comp, q)
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
        joint = comp.joint_polytope
        feasible_points = [
            v for v in np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
            if is_member(joint, v, 1e-9)
        ]
        if not feasible_points:
            continue  # keep only visibly feasible systems
        accepted += 1
        for _ in range(5):
            q = rng.uniform(size=dim)
            hier = project_hierarchical(comp, q)
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
        project_hierarchical(comp, np.array([0.5, 0.5]))


def test_an_empty_generic_local_set_raises_within_a_second():
    # no point of the box meets x1 + x2 = 3: that must raise at once, not hand the
    # joint projection a point off the box
    empty = PolytopeSpec(dim=2, equalities=(LinearConstraint((1.0, 1.0), 3.0, "x1+x2=3"),))
    with pytest.raises(InfeasibleCouplingError):
        project_local(empty, np.array([0.2, 0.3]))
    comp = CompositionSpec((ComponentSpec(empty, (0, 1)), ComponentSpec(PolytopeSpec(dim=1), (2,))),
                           (CouplingConstraint("equality", (1, 2)),), 3)
    fine = [np.full(2, 0.4), np.full(3, 0.4), np.full(3, 0.4)]
    start = time.perf_counter()
    with pytest.raises(InfeasibleCouplingError) as exc:
        residual_batch([(paraphrase_split(), fine), (comp, [np.full(2, 0.5), np.full(1, 0.5)]),
                        (comp, [np.full(2, 0.1), np.full(1, 0.9)])])
    assert time.perf_counter() - start < 1.0
    assert exc.value.index == 1  # the system's earliest item


def paraphrase_split() -> CompositionSpec:
    return CompositionSpec(free_components([2, 3, 3]), relation_coupling(paraphrase(8), range(8)), 8)


def test_polytope_batch_rows_stop_on_their_own_bit_for_bit():
    comp = paraphrase_split()
    spec = comp.joint_polytope
    rng = np.random.default_rng(3)
    X = np.vstack([np.full(8, 0.4), rng.uniform(size=(3, 8))])  # a member, then far rows
    ones = [project_dykstra(spec, q) for q in X]
    assert ones[0].iterations == 1 and min(one.iterations for one in ones[1:]) >= 100
    batch = project_polytope_batch(spec, X)
    for p, one in zip(batch, ones):
        assert one.converged and p.tobytes() == one.projected.tobytes()
    signed = np.array([-0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    cert = residual_batch([(comp, [signed[:2], signed[2:5], signed[5:]])])[0]
    assert np.signbit(cert.composed[0])  # the -0.0 entry survives the local repair ...
    assert not np.signbit(cert.repaired).any()  # ... but not the joint projection
    # nor the cycle, whose first y = x + P adds 0.0 to it
    assert not np.signbit(project_polytope_batch(spec, signed[None, :])).any()


def tight_rows(spec: PolytopeSpec, p: np.ndarray) -> int:
    """How many of ``spec``'s constraints and box faces ``p`` meets with equality."""
    return int((np.abs(spec.A @ p - spec.b) <= 1e-9).sum() + (p <= 1e-12).sum()
               + (p >= 1.0 - 1e-12).sum())


def split_row(comp: CompositionSpec, q: np.ndarray) -> list:
    """The local quotes of ``comp``'s components that assemble to the joint row ``q``."""
    return [q[list(c.coords)] for c in comp.components]


def tied_split() -> CompositionSpec:
    """A partition component on 0..2 tied to a free coordinate 3 by a ladder cut: one
    generic block, solved by ``project_active_set``."""
    return CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),
                            ComponentSpec(PolytopeSpec(dim=1), (3,))),
                           relation_coupling(ladder(2), (2, 3)), 4)


def test_hierarchical_batch_rows_stop_on_their_own_bit_for_bit():
    rng = np.random.default_rng(3)
    for comp, X in [(paraphrase_split(), np.vstack([np.full(8, 0.4), rng.uniform(size=(3, 8))])),
                    (tied_split(), np.vstack([[0.2, 0.3, 0.5, 0.1], rng.uniform(-0.3, 1.3, (7, 4))]))]:
        spec = comp.joint_polytope
        batch = residual_batch([(comp, split_row(comp, q)) for q in X], repair_locals=False)
        ones = [project_hierarchical(comp, q) for q in X]
        assert ones[0].residual == 0.0  # a member, then far rows
        if comp.system.blocks[0].kind == "generic":  # each row's solve ends on its own active set
            assert len({tight_rows(spec, one.projected) for one in ones}) > 1
        for q, cert, one in zip(X, batch, ones):
            assert is_member(spec, one.projected, tol=1e-9)
            assert cert.repaired.tobytes() == one.projected.tobytes()
            assert (one.iterations, one.converged) == (1, True)
    comp = paraphrase_split()
    signed = np.array([-0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    cert = residual_batch([(comp, [signed[:2], signed[2:5], signed[5:]])])[0]
    assert np.signbit(cert.composed[0])  # the -0.0 entry survives the local repair ...
    assert not np.signbit(cert.repaired).any()  # ... but not the joint projection
    assert not np.signbit(project_hierarchical(comp, signed).projected).any()


def test_hierarchical_batch_rows_that_stop_together_equal_their_one_row_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    box_split = CompositionSpec(free_components([2, 3]), relation_coupling(partition(5), range(5)))
    sole_owner = CompositionSpec((ComponentSpec(build_polytope(ladder(3)), (0, 1, 2)),
                                  ComponentSpec(build_polytope(negation()), (3, 4))),
                                 relation_coupling(ladder(3), range(3)), 5)
    for comp, X in [(box_split, 0.2 + rng.uniform(-0.05, 0.05, size=(6, 5))),  # clip locally
                    (sole_owner, rng.uniform(-0.2, 1.2, size=(6, 5))),  # components' own routes
                    (tied_split(), [0.3, 0.3, 0.2, 0.6] + rng.uniform(-0.05, 0.05, size=(6, 4)))]:
        spec = comp.joint_polytope
        batch = residual_batch([(comp, split_row(comp, q)) for q in X], repair_locals=False)
        if comp is not sole_owner:  # the rows stop on one active set
            assert len({tight_rows(spec, cert.repaired) for cert in batch}) == 1
        for q, cert in zip(X, batch):
            one = project_hierarchical(comp, q)
            alone = residual_batch([(comp, split_row(comp, q))], repair_locals=False)[0]
            assert cert.repaired.tobytes() == one.projected.tobytes() == alone.repaired.tobytes()


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
            project_hierarchical(comp, q)


def test_hierarchical_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        project_hierarchical(paraphrase_split(), np.zeros((1, 8)))
    with pytest.raises(ValueError):
        project_hierarchical(paraphrase_split(), np.zeros(7))


def test_empty_batches_run_no_cycle(monkeypatch):
    spec = paraphrase_split().joint_polytope
    cycles = []
    clip = projection._clip  # every cycle starts with it
    monkeypatch.setattr(projection, "_clip", lambda y: cycles.append(y.shape) or clip(y))
    assert project_polytope_batch(spec, np.empty((0, 8))).shape == (0, 8)
    assert project_active_set(spec, np.empty((0, 8))).shape == (0, 8)
    assert cycles == []
    assert project_polytope_batch(spec, np.full((1, 8), 0.4)).shape == (1, 8)
    assert cycles == [(8,)]  # the counter sees the cycles there are: one, of one quote


# --- active-set solver ---------------------------------------------------------


CUT_KINDS = ("equality", "negation-sum", "ladder-chain", "partition-sum", "frechet-halfspace")


def random_system(rng) -> CompositionSpec:
    """Negation, partition, ladder, capped and free components on 2-8 coordinates, tied
    by 1-3 random cuts: sums to any level, equalities, chains and halfspaces."""
    capped = PolytopeSpec(dim=2, halfspaces=(LinearConstraint((1.0, 1.0), 1.2, "cap"),))
    dim = int(rng.integers(2, 9))
    components, start = [], 0
    while start < dim:
        choice = int(rng.integers(0, 5))
        width = min(dim - start, 2 if choice in (0, 3) else int(rng.integers(1, 4)))
        local = PolytopeSpec(dim=width)
        if width == 2 and choice == 0:
            local = build_polytope(negation())
        elif width == 2 and choice == 3:
            local = capped
        elif width >= 2 and choice in (1, 2):
            local = build_polytope((partition, ladder)[choice - 1](width))
        components.append(ComponentSpec(local, tuple(range(start, start + width))))
        start += width
    cuts = []
    for _ in range(int(rng.integers(1, 4))):
        kind = CUT_KINDS[int(rng.integers(0, len(CUT_KINDS)))]
        size = 2 if kind == "negation-sum" else int(rng.integers(2, min(dim, 4) + 1))
        coords = tuple(int(j) for j in rng.choice(dim, size=size, replace=False))
        if kind == "partition-sum":
            cuts.append(CouplingConstraint(kind, coords, float(rng.uniform(0.3, 2.5))))
        elif kind == "frechet-halfspace":
            cuts.append(CouplingConstraint(kind, coords, float(rng.uniform(-0.5, 1.5)),
                                           a=tuple(rng.uniform(-2.0, 2.0, size=size).round(2))))
        else:
            cuts.append(CouplingConstraint(kind, coords, 1.0 if kind == "negation-sum" else 0.0))
    return CompositionSpec(tuple(components), tuple(cuts), dim)


@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_active_set_matches_the_oracle_on_random_catalog_layouts(relation):
    # the joint rows of split and sole-owner layouts, redundant rows included
    rng = np.random.default_rng([61, relation.m])
    vertices = enumerate_vertices(relation)
    for _ in range(6):
        comp = composition_for(Clique(id="c", relation=relation),
                               rng.integers(0, 3, size=relation.m)).comp
        X = rng.uniform(-0.3, 1.3, size=(8, relation.m))
        for q, z in zip(X, project_active_set(comp.joint_polytope, X)):
            assert np.max(np.abs(z - project_oracle(vertices, q).projected)) <= 1e-12


def test_active_set_matches_a_tight_cycle_on_random_generic_blocks():
    rng = np.random.default_rng(62)
    checked = 0
    for _ in range(80):
        comp = random_system(rng)
        for block in comp.system.blocks:
            if block.kind != "generic":
                continue
            X = rng.uniform(-0.3, 1.3, size=(3, len(block.coords)))
            try:
                solved = project_active_set(block.spec, X, block.coords)
            except InfeasibleCouplingError as exc:
                assert_proves_empty(exc, comp.joint_polytope)
                continue
            for q, z in zip(X, solved):
                cycled = project_dykstra(block.spec, q, tol=1e-15)
                assert cycled.converged
                assert np.max(np.abs(z - cycled.projected)) <= 1e-12
                checked += 1
    assert checked >= 100


def named_rows(spec: PolytopeSpec) -> dict:
    """``name -> (a, b, is_halfspace)`` for each row of ``spec`` and of its box, the box
    rows read as ``-r_i <= 0`` and ``r_i <= 1``."""
    rows = {c.name: (np.array(c.a), c.b, False) for c in spec.equalities}
    rows.update({c.name: (np.array(c.a), c.b, True) for c in spec.halfspaces})
    for i, e in enumerate(np.eye(spec.dim)):
        rows[f"box:r{i + 1}>=0"] = (-e, 0.0, True)
        rows[f"box:r{i + 1}<=1"] = (e, 1.0, True)
    return rows


def assert_proves_empty(exc: InfeasibleCouplingError, spec: PolytopeSpec) -> None:
    """The multipliers on ``exc``, checked against the rows of ``spec`` they name: no
    point meets ``y . (a r) <= y . b`` when ``sum(y a)`` vanishes and ``y . b < 0``."""
    rows = named_rows(spec)
    names = list(exc.multipliers)
    assert names and str(exc) == f"empty constraint set: no point meets {', '.join(names)}"
    y = np.array([exc.multipliers[name] for name in names])
    A = np.array([rows[name][0] for name in names])
    b = np.array([rows[name][1] for name in names])
    halfspace = np.array([rows[name][2] for name in names])
    assert (y[halfspace] > 0).all()
    assert np.max(np.abs(y @ A)) <= 1e-12
    assert y @ b < 0


INFEASIBLE_CUTS = [  # each over free boxes of one coordinate
    (("partition-sum", (0, 1), 3.0),),
    (("negation-sum", (0, 1), 2.5),),
    (("partition-sum", (0, 1, 2), 4.0),),
    (("partition-sum", (0, 1, 2), 1.0), ("partition-sum", (0, 1, 2), 2.0)),
    (("partition-sum", (0, 1, 2, 3), 1.0), ("partition-sum", (0, 1, 2, 3), 2.5)),
    (("partition-sum", (0, 1, 2, 3), 5.0),),
    (("partition-sum", (0, 1), 1.0), ("equality", (0, 1), 0.0), ("ladder-chain", (2, 0), 0.0),
     ("partition-sum", (1, 2), 1.9)),
]


@pytest.mark.parametrize("cuts", INFEASIBLE_CUTS, ids=range(len(INFEASIBLE_CUTS)))
def test_every_farkas_vector_proves_its_set_empty(cuts):
    dim = 1 + max(j for _, coords, _ in cuts for j in coords)
    comp = CompositionSpec(free_components([1] * dim),
                           tuple(CouplingConstraint(kind, coords, b) for kind, coords, b in cuts),
                           dim)
    rng = np.random.default_rng(63)
    for q in rng.uniform(-0.3, 1.3, size=(5, dim)):
        with pytest.raises(InfeasibleCouplingError) as exc:
            project_hierarchical(comp, q)
        assert_proves_empty(exc.value, comp.joint_polytope)
    empty = PolytopeSpec(dim=2, equalities=(LinearConstraint((1.0, 1.0), 3.0, "x1+x2=3"),))
    with pytest.raises(InfeasibleCouplingError) as exc:
        project_local(empty, np.array([0.2, 0.3]))
    assert_proves_empty(exc.value, empty)


def test_random_empty_systems_carry_checked_farkas_vectors():
    rng = np.random.default_rng(64)
    rejected = 0
    for _ in range(150):
        comp = random_system(rng)
        q = rng.uniform(-0.3, 1.3, size=comp.joint_dim)
        try:
            project_hierarchical(comp, q)
        except InfeasibleCouplingError as exc:
            assert_proves_empty(exc, comp.joint_polytope)
            rejected += 1
    assert rejected >= 10


# --- chain certificates ------------------------------------------------------


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
    # certificates, and the active-set solver on the same locally repaired quotes,
    # stay within 1e-9 of the exact projection
    rng = np.random.default_rng([17, relation.m])
    X = rng.uniform(-0.1, 1.1, size=(256, relation.m))
    for comp in _chain_compositions(relation):
        certs = residual_batch([(comp, [q[list(c.coords)] for c in comp.components]) for q in X])
        composed = np.array([c.composed for c in certs])
        exact = project_relation_batch(relation, composed)
        assert np.abs(np.array([c.repaired for c in certs]) - exact).max() <= 1e-9
        assert max(abs(c.epsilon_star - float(np.linalg.norm(q - p)))
                   for c, q, p in zip(certs, composed, exact)) <= 1e-9
        solved = project_active_set(comp.joint_polytope, composed[:32])
        assert np.abs(solved - exact[:32]).max() <= 1e-12


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


def _face_maps_one_by_one(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_simplex_faces``'s table built by one solve per face, in combinations order."""
    k, d = V.shape
    faces = [list(S) for r in range(1, k + 1) for S in itertools.combinations(range(k), r)]
    G = np.zeros((len(faces), k + d, d))
    h = np.zeros((len(faces), k + d))
    for f, S in enumerate(faces):
        base = V[S[0]]
        E = V[S[1:]] - base
        L = np.linalg.solve(E @ E.T, E)
        M = np.vstack([-L.sum(axis=0), L])
        P = np.eye(d) if len(S) == d + 1 else E.T @ L
        G[f, S] = M
        h[f, S] = -M @ base
        h[f, S[0]] += 1.0
        G[f, k:] = P
        h[f, k:] = base - P @ base
    return G, h


def test_face_table_is_the_per_face_solves_bit_for_bit():
    simplices = [enumerate_vertices(conjunction()).as_array(),
                 enumerate_vertices(disjunction()).as_array()]
    rng = np.random.default_rng(47)
    while len(simplices) < 200:
        d = int(rng.integers(1, 5))
        V = rng.normal(size=(int(rng.integers(1, d + 2)), d)) * rng.choice([0.1, 1.0, 10.0])
        if len(V) == 1 or abs(np.linalg.det((V[1:] - V[0]) @ (V[1:] - V[0]).T)) > 1e-6:
            simplices.append(V)
    for V in simplices:
        G, h = _simplex_faces(V)
        want_G, want_h = _face_maps_one_by_one(V)
        assert G.tobytes() == want_G.tobytes() and h.tobytes() == want_h.tobytes()
        assert not G.flags.writeable and not h.flags.writeable
    dependent = rng.normal(size=(3, 2)) @ np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(ValueError, match="affinely independent"):
        _simplex_faces(np.vstack([np.zeros(3), dependent]))


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
    assert time.perf_counter() - start < 0.010  # refused before any route ran


# --- numpy's C entry points against its Python-level wrappers ---------------
# The projection kernels, ``_assembled`` and ``_composed`` call the ufunc reductions
# and array methods that numpy's wrapper functions resolve to. The wrapper forms
# stay here as the reference, and every swap must keep every bit.


def _wrapper_simplex(X):
    n, m = X.shape
    U = -np.sort(-X, axis=1)
    css = np.cumsum(U, axis=1)
    active = U * np.arange(1, m + 1) > (css - 1.0)
    rho = m - 1 - np.argmax(active[:, ::-1], axis=1)
    theta = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(X - theta[:, None], 0.0)


def _wrapper_nonincreasing(X):
    n, m = X.shape
    if n >= projection.COLUMN_ROWS:  # coordinate-major: only its prefix sums changed form
        S = np.zeros((m + 1, n))
        np.cumsum(np.ascontiguousarray(X.T), axis=0, out=S[1:])
        fit = np.full((m, n), np.inf)
        for s in range(m):
            upper = np.full(n, -np.inf)
            for t in range(m - 1, s - 1, -1):
                mean = X[:, s] if t == s else (S[t + 1] - S[s]) / (t - s + 1)
                np.maximum(upper, mean, out=upper)
                np.minimum(fit[t], upper, out=fit[t])
        return fit.T.copy()
    length, below = projection._segment_grid(m)
    S = np.zeros((n, m + 1))
    np.cumsum(X, axis=1, out=S[:, 1:])
    means = (S[:, None, 1:] - S[:, :-1, None]) / length + below
    means[:, np.arange(m), np.arange(m)] = X
    upper = np.maximum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
    return np.diagonal(np.minimum.accumulate(upper, axis=1), axis1=1, axis2=2)


def _wrapper_faces(relation, X):
    G, h = projection._face_table(relation)
    k = G.shape[1] - X.shape[1]
    Y = np.einsum("fod,nd->nfo", G, X) + h
    candidates = Y[:, :, k:]
    dist2 = np.sum((candidates - X[:, None, :]) ** 2, axis=2)
    dist2[np.any(Y[:, :, :k] < 0.0, axis=2)] = np.inf
    return candidates[np.arange(len(X)), np.argmin(dist2, axis=1)]


def _wrapper_batch(relation, X):
    """``project_relation_batch`` as its wrapper functions wrote it."""
    kind = relation.kind
    if kind is RelationKind.NEGATION:
        s = X[:, 0] + X[:, 1] - 1.0
        return np.clip(X - 0.5 * s[:, None], 0.0, 1.0)
    if kind is RelationKind.PARTITION:
        return _wrapper_simplex(X)
    if kind is RelationKind.PARAPHRASE:
        return np.repeat(np.clip(np.mean(X, axis=1), 0.0, 1.0)[:, None], relation.m, axis=1)
    if kind is RelationKind.LADDER:
        return np.clip(_wrapper_nonincreasing(X), 0.0, 1.0)
    return _wrapper_faces(relation, X)


def _awkward_rows(rng, n: int, m: int) -> np.ndarray:
    """Rows in and around the box with -0.0, exact 0 and 1, ties within a row, and
    whole rows of one value."""
    X = rng.uniform(-0.3, 1.3, size=(n, m))
    pick = rng.integers(0, 7, size=(n, m))
    X[pick == 0] = -0.0
    X[pick == 1] = 0.0
    X[pick == 2] = 1.0
    X[pick == 3] = np.broadcast_to(X[:, :1], X.shape)[pick == 3]  # ties with the row's first
    X[::5] = X[::5, :1]
    X[1::7] = -0.0
    return X


ALL_RELATIONS_EVERY_M = [negation(), conjunction(), disjunction()] + [
    Relation(kind, m) for kind in (RelationKind.PARTITION, RelationKind.LADDER,
                                   RelationKind.PARAPHRASE) for m in range(2, 13)]


@pytest.mark.parametrize("relation", ALL_RELATIONS_EVERY_M, ids=lambda r: f"{r.kind.value}{r.m}")
def test_batch_route_is_its_wrapper_form_bit_for_bit(relation):
    rng = np.random.default_rng(34 + relation.m)
    for n in (1, 63, 64):  # 64 rows: the coordinate-major isotonic layout
        X = _awkward_rows(rng, n, relation.m)
        want = _wrapper_batch(relation, X)
        assert project_relation_batch(relation, X).tobytes() == want.tobytes()


@pytest.mark.parametrize("swap", [
    (lambda x: np.sum(x ** 2, axis=2), lambda x: np.add.reduce(np.square(x), axis=2)),
    (lambda x: np.mean(x[0], axis=1), lambda x: np.add.reduce(x[0], axis=1) / x.shape[2]),
    (lambda x: np.any(x < 0.0, axis=2), lambda x: np.logical_or.reduce(x < 0.0, axis=2)),
    (lambda x: np.isfinite(x).all(), lambda x: np.logical_and.reduce(np.isfinite(x), axis=None)),
    (lambda x: x.max(axis=2), lambda x: np.maximum.reduce(x, axis=2)),
    (lambda x: np.clip(x, 0.0, 1.0), lambda x: x.clip(0.0, 1.0)),
    (lambda x: np.cumsum(x, axis=2), lambda x: x.cumsum(axis=2)),
    (lambda x: np.argmax(x > 0.5, axis=2), lambda x: (x > 0.5).argmax(axis=2)),
    (lambda x: np.argmin(x, axis=2), lambda x: x.argmin(axis=2)),
    (lambda x: np.diagonal(x, axis1=1, axis2=2), lambda x: x.diagonal(axis1=1, axis2=2)),
    (lambda x: np.repeat(x[0, :, :1], 5, axis=1), lambda x: x[0, :, :1].repeat(5, axis=1)),
    (lambda x: -np.sort(-x[0], axis=1), lambda x: _sorted_in_place(x[0])),
], ids=["sum-square", "mean", "any", "all", "max", "clip", "cumsum", "argmax", "argmin",
        "diagonal", "repeat", "sort"])
def test_each_wrapper_and_its_entry_point_agree_bit_for_bit(swap):
    wrapper, entry = swap
    rng = np.random.default_rng(35)
    for m in range(2, 13):
        x = _awkward_rows(rng, 6 * m, m).reshape(6, m, m)
        x[1, -1, 0] = np.nan
        assert np.asarray(entry(x)).tobytes() == np.asarray(wrapper(x)).tobytes()


def _sorted_in_place(X):
    U = -X
    U.sort(axis=1)
    return np.negative(U, out=U)


def test_a_stream_of_fresh_layouts_certifies_as_its_batch_and_its_relation():
    """Gate-online's loop: each quote is routed afresh, then certified alone."""
    rng = np.random.default_rng(36)
    items, relations = [], []
    for n in range(400):
        relation = ALL_RELATIONS_EVERY_M[rng.integers(len(ALL_RELATIONS_EVERY_M))]
        m = relation.m
        owners = rng.integers(0, rng.integers(1, 5), size=m)
        comp = composition_for(Clique(id=f"g{n}", relation=relation), owners).comp
        locals_ = [_awkward_rows(rng, 1, len(c.coords))[0] for c in comp.components]
        items.append((comp, locals_))
        relations.append(relation)
    batch = residual_batch(items)
    for (comp, locals_), relation, together in zip(items, relations, batch):
        cert = residual(comp, locals_)
        exact = project_relation(relation, cert.composed)
        assert cert.repaired.tobytes() == together.repaired.tobytes() \
            == exact.projected.tobytes()
        eps = exact.residual if exact.residual >= projection.RESIDUAL_FLOOR else 0.0
        assert cert.epsilon_star == together.epsilon_star == eps
        assert cert.composed.tobytes() == together.composed.tobytes()
