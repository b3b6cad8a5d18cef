import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.composition import (
    Certificate,
    Block,
    ComponentSpec,
    CompositionSpec,
    CouplingConstraint,
    ProductStructuredError,
    _assembled,
    _assembled_row,
    _certificate,
    _certify_rows,
    aggregate,
    attribute,
    construct_witness,
    disagreement_bound,
    free_components,
    is_product_structured,
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
from coherify.projection import (
    project_active_set,
    COLUMN_ROWS,
    RESIDUAL_FLOOR,
    InfeasibleCouplingError,
    _vertex_array,
    project_dykstra,
    project_hierarchical,
    project_local,
    project_oracle,
    project_relation,
    project_relation_batch,
)
from coherify.simharness import composition_for

ALL_RELATIONS = [negation(), conjunction(), disjunction(), partition(5), ladder(4), paraphrase(3)]


def negation_split() -> CompositionSpec:
    return CompositionSpec(free_components([1, 1]), relation_coupling(negation(), range(2)), 2)


def partition_split(m: int = 4) -> CompositionSpec:
    return CompositionSpec(
        free_components([1] * m), relation_coupling(partition(m), range(m)), m
    )


# --- aggregation --------------------------------------------------------------


def test_aggregate_single_component_identity():
    comp = CompositionSpec((ComponentSpec(build_polytope(negation()), (0, 1)),), (), 2)
    q = np.array([0.3, 0.7])
    assert np.array_equal(aggregate(comp, [q]), q)


def test_aggregate_partition_case():
    comp = partition_split()
    x = aggregate(comp, [[0.39], [0.73], [0.67], [0.71]])
    assert np.allclose(x, [0.39, 0.73, 0.67, 0.71])


def test_aggregate_negation_case():
    x = aggregate(negation_split(), [[0.84], [0.89]])
    assert np.allclose(x, [0.84, 0.89])


def test_aggregate_dimension_mismatch():
    with pytest.raises(ValueError):
        aggregate(negation_split(), [[0.84, 0.2], [0.89]])


def test_aggregate_places_scattered_owners_in_joint_order():
    comp = CompositionSpec((ComponentSpec(PolytopeSpec(dim=2), (3, 0)),
                            ComponentSpec(build_polytope(negation()), (1, 4)),
                            ComponentSpec(PolytopeSpec(dim=1), (2,))), (), 5)
    x = aggregate(comp, [[0.1, 0.2], np.array([0.3, 0.4]), [-0.0]])
    assert x.tobytes() == np.array([0.2, 0.3, -0.0, 0.1, 0.4]).tobytes()


@pytest.mark.parametrize("locals_, message", [
    ([[0.1]], "expected 3 local quotes, got 1"),
    ([[0.1, np.nan], [0.2, 0.3], [0.4]], "component 0 quote has non-finite entries"),
    ([[0.1, 0.2], [0.2, 0.3], [np.inf]], "component 2 quote has non-finite entries"),
    # component by component: shape, then finiteness, as a quote-by-quote pass meets them
    ([[np.nan, 0.2], [0.3], [0.4]], "component 0 quote has non-finite entries"),
    ([[0.1, 0.2], [0.3], [np.nan]], r"component 1 quote has shape \(1,\), needs \(2,\)"),
    ([[0.1, 0.2], [0.2, np.inf], [0.4, 0.5]], "component 1 quote has non-finite entries"),
    ([[0.1, 0.2], [0.2, 0.3], 0.4], r"component 2 quote has shape \(\), needs \(1,\)"),
])
def test_aggregate_refuses_the_first_bad_component(locals_, message):
    comp = CompositionSpec((ComponentSpec(PolytopeSpec(dim=2), (3, 0)),
                            ComponentSpec(build_polytope(negation()), (1, 4)),
                            ComponentSpec(PolytopeSpec(dim=1), (2,))), (), 5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        aggregate(comp, locals_)


def test_items_sharing_a_spec_assemble_to_their_own_rows_bit_for_bit():
    comp = CompositionSpec((ComponentSpec(PolytopeSpec(dim=2), (3, 0)),
                            ComponentSpec(build_polytope(negation()), (1, 4)),
                            ComponentSpec(PolytopeSpec(dim=1), (2,))), (), 5)
    quotes = [[[0.1, 0.2], np.array([0.3, 0.4]), [-0.0]],
              [(1, 0), [True, False], np.array([0.5], dtype=np.float32)],
              [["0.25", "0.5"], [0.3, 0.4], [0.1]],  # strings convert only item by item
              [np.array([1e300, 5e-324]), [0.3, 0.4], [2.5]]]
    rows = np.array([aggregate(comp, q) for q in quotes])
    assert _assembled(comp, quotes).tobytes() == rows.tobytes()
    assert rows.tobytes() == np.array([_assembled_row(comp, q) for q in quotes]).tobytes()
    in_order = CompositionSpec(free_components([2, 1]), (), 3)  # no gather needed
    assert _assembled(in_order, [[[0.1, 0.2], [0.3]]] * 2).tolist() == [[0.1, 0.2, 0.3]] * 2


def test_ownership_map_total():
    comp = CompositionSpec((ComponentSpec(PolytopeSpec(dim=2), (2, 0)),
                            ComponentSpec(PolytopeSpec(dim=1), (3,)),
                            ComponentSpec(PolytopeSpec(dim=1), (1,))), (), 4)
    x = aggregate(comp, [[0.1, 0.2], [0.3], [0.4]])
    assert x.tolist() == [0.2, 0.4, 0.1, 0.3]  # every coordinate takes its one owner's value


@pytest.mark.parametrize("layout, joint_dim, message", [
    (((0, 1), (1, 2)), 3, "joint coordinate 1 owned twice"),
    (((0,), (0,)), 2, "joint coordinate 0 owned twice"),
    (((0,), (3,)), 4, r"joint coordinates \[1, 2\] have no owner"),
    (((0, 1), (4,)), 3, "coordinate 4 outside the joint space"),
    (((0, -1),), 2, "coordinate -1 outside the joint space"),
    (((1, 1), (0, 2)), 0, "joint coordinate 1 owned twice"),  # joint_dim 0: the owned count
    ((), 0, "a composition needs at least one joint coordinate, got joint_dim=0"),
    ((), -3, "a composition needs at least one joint coordinate, got joint_dim=-3"),
    (((0,),), -1, "a composition needs at least one joint coordinate, got joint_dim=-1"),
])
def test_ownership_refuses_a_coordinate_owned_twice_or_by_none(layout, joint_dim, message):
    components = tuple(ComponentSpec(PolytopeSpec(dim=len(c)), c) for c in layout)
    with pytest.raises(ValueError, match=f"^{message}$"):
        CompositionSpec(components, (), joint_dim)


# --- residual certificates ----------------------------------------------------


def test_residual_zero_for_locally_coherent_without_coupling():
    comp = CompositionSpec(
        (
            ComponentSpec(build_polytope(negation()), (0, 1)),
            ComponentSpec(build_polytope(partition(3)), (2, 3, 4)),
        ),
        (),
        5,
    )
    cert = residual(comp, [[0.3, 0.7], [0.2, 0.5, 0.3]])
    assert cert.epsilon_star == 0.0
    assert cert.exposure_bound == 0.0
    assert cert.inputs_locally_coherent
    assert cert.binding == ()


def test_residual_partition_golden_case():
    cert = residual(partition_split(), [[0.39], [0.73], [0.67], [0.71]])
    assert cert.epsilon_star == pytest.approx(0.750, abs=0.002)
    assert cert.exposure_bound == pytest.approx(1.500, abs=0.004)
    assert np.allclose(cert.repaired, [0.015, 0.355, 0.295, 0.335], atol=1e-9)
    assert cert.exposure_bound == pytest.approx(2.0 * cert.epsilon_star, abs=1e-12)
    assert any("partition-sum" in name for name in cert.binding)


def test_residual_negation_golden_case():
    cert = residual(negation_split(), [[0.84], [0.89]])
    assert cert.epsilon_star == pytest.approx(0.517, abs=0.002)
    assert cert.exposure_bound == pytest.approx(0.730, abs=0.003)


def test_residual_flags_unrepaired_locals():
    comp = CompositionSpec((ComponentSpec(build_polytope(negation()), (0, 1)),), (), 2)
    cert = residual(comp, [[0.8, 0.9]])
    assert not cert.inputs_locally_coherent
    assert cert.epsilon_star == 0.0  # local repair runs first, empty coupling


def test_residual_raw_path_keeps_violation():
    comp = CompositionSpec((ComponentSpec(build_polytope(negation()), (0, 1)),), (), 2)
    cert = residual(comp, [[0.8, 0.9]], repair_locals=False)
    assert cert.epsilon_star > 0.1
    assert not cert.inputs_locally_coherent


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_residual_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    def items():
        raise AssertionError("read an item before checking tol")
        yield

    with pytest.raises(ValueError, match="must be a finite number >= 0"):
        residual(partition_split(), [[0.39], [0.73], [0.67], [0.71]], tol=tol)
    with pytest.raises(ValueError, match="must be a finite number >= 0"):
        residual_batch(items(), tol=tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_residual_rejects_non_finite_locals(bad):
    with pytest.raises(ValueError, match="component 1 quote has non-finite entries"):
        residual(negation_split(), [[0.84], [bad]])


def test_a_nan_distance_is_never_certified_as_zero():
    # _certify_rows is the core run_ensemble feeds gathered rows to, without aggregate's check
    for repair_locals in (True, False):
        [cert] = _certify_rows([(partition_split(), [0], np.array([[np.nan, 0.2, 0.3, 0.4]]))],
                               1, repair_locals=repair_locals)
        assert np.isnan(cert.epsilon_star)
        assert np.isnan(cert.exposure_bound)


def test_repaired_quote_is_member_of_joint_set():
    from coherify.polytope import is_member

    rng = np.random.default_rng(15)
    for relation in (negation(), partition(4), conjunction(), ladder(4)):
        m = relation.m
        comp = CompositionSpec(
            free_components([1] * m), relation_coupling(relation, range(m)), m
        )
        joint = comp.joint_polytope
        for _ in range(50):
            cert = residual(comp, [[v] for v in rng.uniform(size=m)])
            assert is_member(joint, cert.repaired, 1e-8)


def test_residual_raises_on_empty_intersection():
    from coherify.projection import InfeasibleCouplingError

    coupling = (
        CouplingConstraint("partition-sum", (0, 1), 1.0),
        CouplingConstraint("frechet-halfspace", (0, 1), 0.3, a=(1.0, 1.0)),
    )
    comp = CompositionSpec(free_components([1, 1]), coupling, 2)
    with pytest.raises(InfeasibleCouplingError):
        residual(comp, [[0.5], [0.5]])


def test_exposure_bound_is_sqrt_m_times_eps_exactly():
    rng = np.random.default_rng(0)
    comp = partition_split(5)
    for _ in range(50):
        cert = residual(comp, [[v] for v in rng.uniform(size=5)])
        assert cert.exposure_bound == pytest.approx(
            np.sqrt(5) * cert.epsilon_star, abs=1e-15
        )


# --- product structure and witnesses -------------------------------------------


def test_empty_coupling_is_product_structured():
    comp = CompositionSpec(free_components([2, 2]), (), 4)
    assert is_product_structured(comp)


def test_partition_coupling_is_not_product_structured():
    assert not is_product_structured(partition_split())


def test_redundant_halfspace_is_product_structured():
    comp = CompositionSpec(
        free_components([1, 1, 1]),
        (CouplingConstraint("frechet-halfspace", (0, 1, 2), 3.0, a=(1.0, 1.0, 1.0)),),
        3,
    )
    assert is_product_structured(comp)


def test_witness_negation():
    locals_, cert = construct_witness(negation_split())
    assert [list(v) for v in locals_] == [[1.0], [1.0]]
    assert cert.epsilon_star == pytest.approx(1.0 / np.sqrt(2), abs=1e-9)


def test_witness_partition():
    locals_, cert = construct_witness(partition_split(4))
    assert all(list(v) == [1.0] for v in locals_)
    assert cert.epsilon_star == pytest.approx(1.5, abs=1e-9)


def test_witness_refused_on_product_structured():
    comp = CompositionSpec(free_components([2, 2]), (), 4)
    with pytest.raises(ProductStructuredError):
        construct_witness(comp)


def generic_component_split(local: PolytopeSpec) -> CompositionSpec:
    """``local`` on coordinates 0 and 1, a free box on 2, and x0 + x1 + x2 <= 2."""
    return CompositionSpec((ComponentSpec(local, (0, 1)), ComponentSpec(PolytopeSpec(dim=1), (2,))),
                           (CouplingConstraint("frechet-halfspace", (0, 1, 2), 2.0,
                                               a=(1.0, 1.0, 1.0)),), 3)


CAPPED = PolytopeSpec(dim=2, halfspaces=(LinearConstraint((1.0, 1.0), 1.5, "cap"),))
LEVEL = PolytopeSpec(dim=2, equalities=(LinearConstraint((1.0, 1.0), 1.5, "level"),))


@pytest.mark.parametrize("local", [CAPPED, LEVEL], ids=["capped", "level"])
def test_dichotomy_refuses_a_component_whose_hull_vertices_are_unknown(local):
    # not product-structured: (1, 0.5, 1) in the product hull violates the
    # cut, but the 0/1 points of CAPPED miss (1, 0.5) and LEVEL has none
    comp = generic_component_split(local)
    cert = residual(comp, [[1.0, 0.5], [1.0]])
    assert cert.inputs_locally_coherent and cert.epsilon_star > 0.28
    for decide in (is_product_structured, construct_witness):
        with pytest.raises(ValueError, match="component 0 is neither a catalog relation"):
            decide(comp)
    assert is_product_structured(CompositionSpec(comp.components, (), 3))


COHERENCE_TOL = 1e-4


def near_tolerance_items() -> list:
    """Locals whose worst gap lies just below, then just above, ``COHERENCE_TOL``.

    Each constrained component is joined by a free box on one coordinate
    under a cut that never binds; each item nudges the component off its
    polytope, or the box coordinate past 1 or below 0.
    """
    items = []
    for local, base, nudge in ((build_polytope(negation()), [0.4, 0.6], [0.0, 1.0]),
                               (build_polytope(ladder(3)), [0.5, 0.5, 0.2], [0.0, 1.0, 0.0]),
                               (CAPPED, [0.8, 0.7], [0.0, 1.0])):
        d = local.dim
        comp = CompositionSpec(
            (ComponentSpec(local, tuple(range(d))), ComponentSpec(PolytopeSpec(dim=1), (d,))),
            (CouplingConstraint("frechet-halfspace", tuple(range(d + 1)), d + 1.0,
                                a=(1.0,) * (d + 1)),), d + 1)
        for scale in (0.9, 1.1):
            step = scale * COHERENCE_TOL
            base_q = np.array(base)
            items += [(comp, [base_q + step * np.array(nudge), [0.5]]),
                      (comp, [base_q, [1.0 + step]]),
                      (comp, [base_q, [-step]])]
    return items


@pytest.mark.parametrize("batched", [False, True], ids=["residual", "residual_batch"])
def test_inputs_locally_coherent_is_membership_of_every_local_quote(batched):
    items = near_tolerance_items()
    if batched:
        certs = residual_batch(items, tol=COHERENCE_TOL)
    else:
        certs = [residual(comp, locals_, tol=COHERENCE_TOL) for comp, locals_ in items]
    reference = [all(is_member(component.polytope, q, COHERENCE_TOL)
                     for component, q in zip(comp.components, locals_))
                 for comp, locals_ in items]
    assert reference == ([True] * 3 + [False] * 3) * 3
    assert [cert.inputs_locally_coherent for cert in certs] == reference


def test_product_test_decides_beyond_the_old_vertex_bound():
    # 2^13 and 2^20 product vertices, past the 4,096 that enumerating the whole product allowed
    comp = partition_split(13)
    assert not is_product_structured(comp)
    locals_, cert = construct_witness(comp)
    assert all(list(v) == [1.0] for v in locals_)
    assert cert.epsilon_star == pytest.approx(12 / np.sqrt(13), abs=1e-9)
    assert not is_product_structured(
        CompositionSpec(free_components([1] * 20), relation_coupling(ladder(20), range(20)), 20))
    # a catalog component's own vertices are still enumerated
    sole = CompositionSpec((ComponentSpec(build_polytope(partition(13)), tuple(range(13))),),
                           (CouplingConstraint("equality", (0, 1)),), 13)
    with pytest.raises(ValueError, match="exceeds the enumeration bound"):
        is_product_structured(sole)


def reference_dichotomy(comp: CompositionSpec, tol: float = 1e-8):
    """The dichotomy decided on the whole product of the component hulls' vertices.

    Returns whether ``comp`` is product-structured and, when it is not, the
    witness vertex: among the vertices within 1e-12 of the worst coupling
    gap, the one with the largest sum, the first in product order on ties.
    """
    per_component = [enumerate_vertices(c.polytope.relation).as_array()
                     if c.polytope.relation is not None
                     else np.array(list(itertools.product((0.0, 1.0), repeat=c.polytope.dim)))
                     for c in comp.components]
    vertices = np.array([np.concatenate(combo) for combo in itertools.product(*per_component)])
    vertices[:, [j for c in comp.components for j in c.coords]] = vertices.copy()
    per_point = comp.coupling_polytope.gaps(vertices).max(axis=1)
    best = per_point.max()
    if best <= tol:
        return True, None
    candidates = np.nonzero(per_point >= best - 1e-12)[0]
    return False, vertices[candidates[np.argmax(vertices[candidates].sum(axis=1))]]


def random_dichotomy_layout(rng) -> CompositionSpec:
    """Catalog and free components on scattered coordinates, under 1-2 random cuts."""
    catalog = [negation(), conjunction(), disjunction(), partition(3), ladder(3), paraphrase(2)]
    components, widths = [], []
    while sum(widths) < 3 or (len(widths) < 4 and rng.random() < 0.5):
        relation = catalog[rng.integers(len(catalog))] if rng.random() < 0.5 else None
        components.append(relation)
        widths.append(relation.m if relation is not None else int(rng.integers(1, 4)))
    dim = sum(widths)
    owned = np.split(rng.permutation(dim), np.cumsum(widths)[:-1])
    specs = tuple(ComponentSpec(build_polytope(r) if r is not None else PolytopeSpec(dim=len(c)),
                                tuple(c))
                  for r, c in zip(components, owned))
    cuts = []
    for _ in range(int(rng.integers(1, 3))):
        coords = tuple(int(j) for j in rng.choice(dim, size=int(rng.integers(2, 4)),
                                                  replace=False))
        kind = rng.choice(["equality", "partition-sum", "ladder-chain", "frechet-halfspace"])
        if kind == "equality" or kind == "ladder-chain":
            cuts.append(CouplingConstraint(str(kind), coords))
        elif kind == "partition-sum":  # b = 3.5 is out of reach of 2-3 coordinates
            cuts.append(CouplingConstraint("partition-sum", coords,
                                           float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.5]))))
        else:  # mixed signs, on a grid (exact ties) or drawn (none)
            a = (rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=len(coords)) if rng.random() < 0.5
                 else rng.normal(size=len(coords)))
            a[0] = a[0] or 1.0  # a zero normal is refused
            b = float(rng.choice([-0.5, 0.0, 0.5, 1.0, 1.5, 2.5])) if rng.random() < 0.5 \
                else float(rng.normal(1.0))
            cuts.append(CouplingConstraint("frechet-halfspace", coords, b, a=tuple(a)))
    return CompositionSpec(specs, tuple(cuts), dim)


def test_dichotomy_agrees_with_the_whole_product_enumeration():
    rng = np.random.default_rng(2900)
    outcomes = {"product": 0, "witness": 0, "infeasible": 0}
    for _ in range(400):
        comp = random_dichotomy_layout(rng)
        structured, vertex = reference_dichotomy(comp)
        assert is_product_structured(comp) == structured
        if structured:
            outcomes["product"] += 1
            assert comp.has_feasible_point()
        elif comp.has_feasible_point():
            outcomes["witness"] += 1
            locals_, _ = construct_witness(comp)
            assert [list(q) for q in locals_] == [list(vertex[list(c.coords)])
                                                  for c in comp.components]
        else:
            outcomes["infeasible"] += 1
            with pytest.raises(InfeasibleCouplingError):
                construct_witness(comp)
    assert min(outcomes.values()) >= 30, outcomes


REDUNDANT = CompositionSpec(
    free_components([1, 1, 1]),
    (CouplingConstraint("frechet-halfspace", (0, 1, 2), 3.0, a=(1.0, 1.0, 1.0)),), 3)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0])
@pytest.mark.parametrize("call", [
    lambda tol: is_product_structured(REDUNDANT, tol=tol),
    lambda tol: construct_witness(partition_split(), tol=tol),
    lambda tol: disagreement_bound(negation_split(), [[0.84], [0.89]], (0.5, 0.5), tol=tol),
], ids=["is_product_structured", "construct_witness", "disagreement_bound"])
def test_dichotomy_and_bound_refuse_a_tolerance_that_is_not_finite_and_nonnegative(call, tol):
    with pytest.raises(ValueError, match="must be a finite number >= 0"):
        call(tol)


@pytest.mark.parametrize(
    "relation",
    [negation(), conjunction(), disjunction(), partition(4), ladder(4), paraphrase(3)],
    ids=lambda r: r.kind.value,
)
def test_witness_exists_for_every_coupled_relation(relation):
    m = relation.m
    comp = CompositionSpec(
        free_components([1] * m), relation_coupling(relation, range(m)), m
    )
    assert not is_product_structured(comp)
    locals_, cert = construct_witness(comp)
    assert cert.epsilon_star > 1e-3
    assert cert.inputs_locally_coherent


def test_dichotomy_forward_random_inputs():
    rng = np.random.default_rng(1)
    product_specs = [
        CompositionSpec(
            (
                ComponentSpec(build_polytope(negation()), (0, 1)),
                ComponentSpec(build_polytope(partition(3)), (2, 3, 4)),
            ),
            (),
            5,
        ),
        CompositionSpec(
            free_components([2, 2]),
            (CouplingConstraint("frechet-halfspace", (0, 2), 2.0, a=(1.0, 1.0)),),
            4,
        ),
    ]
    for comp in product_specs:
        assert is_product_structured(comp)
        for _ in range(200):
            locals_ = [
                rng.uniform(size=c.polytope.dim) for c in comp.components
            ]
            cert = residual(comp, locals_)
            assert cert.epsilon_star <= 1e-8


# --- disagreement bound ---------------------------------------------------------


def test_disagreement_bound_equals_eps_at_repaired_quote():
    comp = negation_split()
    locals_ = [[0.84], [0.89]]
    cert = residual(comp, locals_)
    bound = disagreement_bound(comp, locals_, cert.repaired)
    assert bound == pytest.approx(cert.epsilon_star, abs=1e-9)


def test_disagreement_bound_reported_case():
    comp = negation_split()
    bound = disagreement_bound(comp, [[0.84], [0.89]], (0.5, 0.5))
    # direct norm: ||(0.34, 0.39)||
    assert bound == pytest.approx(np.sqrt(0.34**2 + 0.39**2), abs=1e-12)
    cert = residual(comp, [[0.84], [0.89]])
    assert bound >= cert.epsilon_star


def test_disagreement_bound_vanishes_for_single_owner():
    comp = CompositionSpec((ComponentSpec(build_polytope(negation()), (0, 1)),), (), 2)
    locals_ = [[0.3, 0.7]]
    cert = residual(comp, locals_)
    assert disagreement_bound(comp, locals_, cert.composed) == pytest.approx(0.0, abs=1e-12)


def test_disagreement_bound_rejects_incoherent_reference():
    with pytest.raises(ValueError):
        disagreement_bound(negation_split(), [[0.84], [0.89]], (0.9, 0.9))


def test_disagreement_bound_rejects_nan_reference():
    with pytest.raises(ValueError):
        disagreement_bound(negation_split(), [[0.84], [0.89]], (np.nan, np.nan))
    with pytest.raises(ValueError):
        disagreement_bound(partition_split(3), [[0.2], [0.3], [0.5]], (0.5, np.nan, 0.5))


def test_disagreement_bound_dominates_on_random_trials():
    rng = np.random.default_rng(4)
    for relation in (negation(), partition(4), conjunction()):
        m = relation.m
        comp = CompositionSpec(
            free_components([1] * m), relation_coupling(relation, range(m)), m
        )
        V = enumerate_vertices(relation).as_array()
        for _ in range(200):
            locals_ = [rng.uniform(size=1) for _ in range(m)]
            reference = rng.dirichlet(np.ones(len(V))) @ V
            cert = residual(comp, locals_)
            bound = disagreement_bound(comp, locals_, reference)
            assert bound >= cert.epsilon_star - 1e-9


def test_negation_bound_closed_form_in_unclipped_regime():
    # with reference r on the sum=1 line, eps* = |delta1 + delta2| / sqrt(2)
    comp = negation_split()
    rng = np.random.default_rng(9)
    for _ in range(100):
        locals_ = [rng.uniform(0.2, 0.8, size=1) for _ in range(2)]
        reference = np.array([0.5, 0.5])
        x = aggregate(comp, locals_)
        delta = x - reference
        cert = residual(comp, locals_)
        assert cert.epsilon_star == pytest.approx(abs(delta.sum()) / np.sqrt(2), abs=1e-9)


def test_partition_bound_closed_form_in_unclipped_regime():
    m = 4
    comp = partition_split(m)
    rng = np.random.default_rng(10)
    reference = np.full(m, 1.0 / m)
    for _ in range(100):
        locals_ = [rng.uniform(0.15, 0.45, size=1) for _ in range(m)]
        x = aggregate(comp, locals_)
        cert = residual(comp, locals_)
        if np.all(cert.repaired > 1e-9):  # no clipping active
            delta = x - reference
            assert cert.epsilon_star == pytest.approx(
                abs(delta.sum()) / np.sqrt(m), abs=1e-9
            )


# --- attribution ----------------------------------------------------------------


def test_attribute_single_owner_gets_everything():
    comp = CompositionSpec((ComponentSpec(build_polytope(negation()), (0, 1)),), (), 2)
    cert = residual(comp, [[0.8, 0.9]], repair_locals=False)
    shares = attribute(comp, cert)
    assert shares[0] == pytest.approx(cert.epsilon_star, abs=1e-12)


def test_attribute_uniform_partition_shift():
    cert = residual(partition_split(), [[0.39], [0.73], [0.67], [0.71]])
    shares = attribute(partition_split(), cert)
    for a in range(4):
        assert shares[a] == pytest.approx(0.375, abs=1e-9)


def test_attribute_zero_certificate():
    comp = negation_split()
    cert = residual(comp, [[0.4], [0.6]])
    assert all(v == 0.0 for v in attribute(comp, cert).values())


def test_attribute_squares_sum_to_eps_squared():
    rng = np.random.default_rng(12)
    comp = CompositionSpec(
        free_components([2, 2]), relation_coupling(partition(4), range(4)), 4
    )
    for _ in range(50):
        locals_ = [rng.uniform(size=2) for _ in range(2)]
        cert = residual(comp, locals_)
        total = sum(v**2 for v in attribute(comp, cert).values())
        assert total == pytest.approx(cert.epsilon_star**2, abs=1e-12)


# --- certificates as JSON ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 24))
def test_certificate_distance_is_the_norm_bit_for_bit(data, dim):
    entry = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                      st.floats(-1e-6, 1e-6, allow_nan=False))  # subnormals and signed zeros too
    x, projected = (np.array(data.draw(st.lists(entry, min_size=dim, max_size=dim)))
                    for _ in range(2))
    comp = CompositionSpec(free_components([dim]), (), dim)
    norm = float(np.linalg.norm(x - projected))
    cert = _certificate(comp, x, projected, True, None, 0)
    assert cert.epsilon_star.hex() == (norm if norm >= RESIDUAL_FLOOR else 0.0).hex()


def test_certificate_json_shape():
    cert = residual(partition_split(), [[0.39], [0.73], [0.67], [0.71]])
    record = cert.to_json()
    assert set(record) == {"eps_star", "exposure_bound", "repaired", "binding"}
    assert isinstance(record["repaired"], list)


def test_certificates_and_projection_results_compare_and_hash_by_identity():
    locals_ = [[0.39], [0.73], [0.67], [0.71]]
    first, second = (residual(partition_split(), locals_) for _ in range(2))
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert first in {first} and second not in {first}
    assert len({first, second}) == 2
    assert first.to_json() == second.to_json()  # the way to compare values
    one, two = (project_relation(negation(), [0.9, 0.9]) for _ in range(2))
    assert one == one and one != two
    assert one in {one} and len({one, two}) == 2


# --- coupling and joint constraint systems ----------------------------------------


MIXED_CUTS = (
    CouplingConstraint("frechet-halfspace", (0, 3), 0.0, a=(-1.0, 1.0)),
    CouplingConstraint("partition-sum", (0, 1, 2), 1.0),
    CouplingConstraint("ladder-chain", (1, 3)),
    CouplingConstraint("equality", (2, 3)),
)


def test_coupling_polytope_holds_every_cut_equalities_first():
    comp = CompositionSpec(
        (ComponentSpec(build_polytope(negation()), (0, 1)),
         ComponentSpec(PolytopeSpec(dim=2), (2, 3))),
        MIXED_CUTS,
        4,
    )
    coupling = comp.coupling_polytope
    assert [c.name for c in coupling.equalities] == ["c1:partition-sum:sum", "c3:equality:eq0"]
    assert [c.name for c in coupling.halfspaces] == ["c0:frechet-halfspace:hs",
                                                     "c2:ladder-chain:step0"]
    assert coupling.equalities[0].a == (1.0, 1.0, 1.0, 0.0)
    assert coupling.halfspaces[0].a == (-1.0, 0.0, 0.0, 1.0)
    assert comp.coupling_polytope is coupling  # built once
    joint = comp.joint_polytope
    assert joint.equalities == (
        LinearConstraint((1.0, 1.0, 0.0, 0.0), 1.0, "m0:neg:r1+r2=1"),
    ) + coupling.equalities
    assert joint.halfspaces == coupling.halfspaces


def test_has_feasible_point_is_exact():
    assert partition_split().has_feasible_point() is True
    over_full = CompositionSpec(
        free_components([1, 1]), (CouplingConstraint("partition-sum", (0, 1), 3.0),), 2
    )
    assert over_full.has_feasible_point() is False
    assert partition_split(13).has_feasible_point() is True
    # feasible, yet no 0/1 point sums to 1.5
    half = CompositionSpec(
        free_components([1, 1, 1]), (CouplingConstraint("partition-sum", (0, 1, 2), 1.5),), 3
    )
    assert half.has_feasible_point() is True
    empty = PolytopeSpec(dim=2, equalities=(LinearConstraint((1.0, 1.0), 3.0, "x1+x2=3"),))
    empty_local = CompositionSpec((ComponentSpec(empty, (0, 1)),), (), 2)
    assert empty_local.has_feasible_point() is False


def test_certificate_does_not_depend_on_cut_order():
    rng = np.random.default_rng(21)
    orders = [(0, 1, 2, 3), (1, 0, 3, 2), (3, 2, 1, 0), (2, 0, 3, 1)]
    for _ in range(10):
        locals_ = [rng.uniform(-0.2, 1.2, size=2), rng.uniform(-0.2, 1.2, size=2)]
        certs = [
            residual(CompositionSpec(free_components([2, 2]),
                                     tuple(MIXED_CUTS[i] for i in order), 4), locals_)
            for order in orders
        ]
        for cert in certs[1:]:
            assert abs(cert.epsilon_star - certs[0].epsilon_star) <= 1e-9
            assert np.max(np.abs(cert.repaired - certs[0].repaired)) <= 1e-8


# --- batched certificates -----------------------------------------------------------


def assert_same_certificate(got, want):
    assert got.repaired.tobytes() == want.repaired.tobytes()
    assert got.composed.tobytes() == want.composed.tobytes()
    assert (got.epsilon_star, got.exposure_bound, got.binding, got.inputs_locally_coherent) == (
        want.epsilon_star, want.exposure_bound, want.binding, want.inputs_locally_coherent)


def batch_items(rng):
    items = []
    for relation in ALL_RELATIONS + [partition(8), ladder(7), paraphrase(6)]:
        for owners in [rng.integers(0, 3, size=relation.m) for _ in range(5)] + [[0] * relation.m] * 2:
            comp = composition_for(Clique(id="c", relation=relation), np.array(owners)).comp
            items.append((comp, [rng.uniform(-0.2, 1.2, size=len(c.coords))
                                 for c in comp.components]))
    mixed = [CompositionSpec(free_components(split), MIXED_CUTS, 4)
             for split in ([2, 2], [1, 3], [1, 1, 2])]
    mixed.append(CompositionSpec((ComponentSpec(build_polytope(negation()), (0, 1)),
                                  ComponentSpec(PolytopeSpec(dim=2), (2, 3))), MIXED_CUTS, 4))
    capped = PolytopeSpec(dim=2, halfspaces=(LinearConstraint((1.0, 1.0), 1.2, "cap"),))
    mixed.append(CompositionSpec((ComponentSpec(capped, (0, 1)),
                                  ComponentSpec(PolytopeSpec(dim=1), (2,))),
                                 relation_coupling(partition(3), range(3)), 3))
    for comp in mixed:
        for _ in range(3):
            items.append((comp, [rng.uniform(-0.2, 1.2, size=len(c.coords))
                                 for c in comp.components]))
    return [items[i] for i in rng.permutation(len(items))]


@pytest.mark.parametrize("repair_locals", [True, False])
def test_residual_batch_equals_residual_bit_for_bit(repair_locals):
    items = batch_items(np.random.default_rng(8))
    batch = residual_batch(items, repair_locals=repair_locals)
    assert len(batch) == len(items)
    for (comp, locals_), got in zip(items, batch):
        assert_same_certificate(got, residual(comp, locals_, repair_locals=repair_locals))


def owned_by(owners, coupling, polytope=None) -> CompositionSpec:
    """Each owner a free box on its coordinates, or ``polytope`` for a sole owner."""
    components = []
    for owner in sorted(set(owners)):
        coords = tuple(j for j, o in enumerate(owners) if o == owner)
        sole = polytope is not None and len(coords) == len(owners)
        components.append(ComponentSpec(polytope if sole else PolytopeSpec(dim=len(coords)),
                                        coords))
    return CompositionSpec(tuple(components), coupling, len(owners))


# a sum of 2 is no catalog relation, and the 0/1 point (1, 1, 0, 0) meets it
SUM_TWO = (CouplingConstraint("partition-sum", (0, 1, 2, 3), 2.0),)


def test_residual_batch_runs_one_cycle_per_constraint_system(monkeypatch):
    # one engine run (``_joint_projection``) per constraint system
    import coherify.composition as composition

    runs = []
    project = composition._joint_projection
    monkeypatch.setattr(composition, "_joint_projection",
                        lambda comp, X: runs.append(len(X)) or project(comp, X))
    rng = np.random.default_rng(2)
    splits = [[0, 1, 0, 1], [0, 0, 1, 2], [2, 1, 0, 0], [0, 1, 2, 3], [3, 3, 3, 3]]
    comps = [owned_by(owners, SUM_TWO, build_polytope(ladder(4))) for owners in splits]
    assert all(single_relation(comp) is None for comp in comps)
    items = [(comp, [rng.uniform(size=len(c.coords)) for c in comp.components]) for comp in comps]
    residual_batch(items)
    assert runs == [4, 1]  # free-box splits share one run; the sole owner has its own


def test_residual_batch_raises_the_earliest_failure_with_its_index():
    good = (partition_split(), [[0.39], [0.73], [0.67], [0.71]])
    empty = (CompositionSpec(free_components([1, 1]),
                             (CouplingConstraint("partition-sum", (0, 1), 3.0),), 2),
             [[0.5], [0.5]])
    misshapen = (partition_split(), [[0.39], [0.73], [0.67]])
    zero_normal = (CompositionSpec(free_components([1, 1]),
                                   (CouplingConstraint("frechet-halfspace", (0, 1), 1.0,
                                                       (0.0, 0.0)),), 2),
                   [[0.5], [0.5]])
    # items that share one CompositionSpec object are assembled together
    shared = partition_split()
    sibling = (shared, [[0.39], [0.73], [0.67], [0.71]])
    miscounted = (shared, [[0.39], [0.73], [0.67]])
    too_long = (shared, [[0.39], [0.73, 0.1], [0.67], [0.71]])
    non_finite = (shared, [[0.39], [0.73], [np.inf], [0.71]])
    zero_shared = zero_normal[0]
    zero_short = (zero_shared, [[0.5]])  # its quotes are refused before its cut
    for items, error, index in (([good, empty, misshapen], InfeasibleCouplingError, 1),
                                ([good, misshapen, empty], ValueError, 1),
                                ([misshapen, good, empty], ValueError, 0),
                                ([good, zero_normal, good], ValueError, 1),
                                ([good, zero_normal, empty], ValueError, 1),
                                ([good, empty, zero_normal], InfeasibleCouplingError, 1),
                                ([sibling, miscounted, sibling], ValueError, 1),
                                ([sibling, too_long, sibling], ValueError, 1),
                                ([sibling, sibling, non_finite, too_long], ValueError, 2),
                                ([sibling, empty, too_long, sibling], InfeasibleCouplingError, 1),
                                ([sibling, too_long, empty, sibling], ValueError, 1),
                                ([sibling, zero_normal, sibling, zero_normal], ValueError, 1),
                                ([sibling, zero_short, zero_normal], ValueError, 1),
                                ([sibling, zero_normal, zero_short], ValueError, 1)):
        with pytest.raises(error) as batch_exc:
            residual_batch(items)
        assert batch_exc.value.index == index
        with pytest.raises(error) as one_exc:
            residual(*items[index])
        assert str(batch_exc.value) == str(one_exc.value)
    assert residual_batch([]) == []


def test_residual_batch_failure_in_a_later_group_can_come_first():
    good = (owned_by([0, 1, 2, 3], SUM_TWO), [[0.39], [0.73], [0.67], [0.71]])
    empty = (CompositionSpec(free_components([1, 1]),
                             (CouplingConstraint("partition-sum", (0, 1), 3.0),), 2),
             [[0.5], [0.5]])
    with pytest.raises(InfeasibleCouplingError) as exc:
        residual_batch([good, empty, good])  # groups: items 0 and 2, then item 1
    assert exc.value.index == 1


# --- the exact route for one catalog polytope ------------------------------------------


def single_relation(comp):
    """``(relation, coords)`` when the one block of ``comp`` that is not free is catalog."""
    held = [block for block in comp.system.blocks if block.kind != "free"]
    if len(held) == 1 and held[0].kind == "catalog":
        return held[0].relation, held[0].coords
    return None


def catalog_layouts(relation):
    """Compositions whose joint set is ``relation``'s polytope on some coordinates (times
    the box): ``composition_for``'s sole-owner, split and mixed layouts, and the relation
    on scattered coordinates of a wider space, held by a sole owner or split."""
    m = relation.m
    clique = Clique(id="c", relation=relation)
    layouts = [np.zeros(m, dtype=int), np.arange(m), np.arange(m) % 2, np.minimum(np.arange(m), 1)]
    comps = [composition_for(clique, owners).comp for owners in layouts]
    coords = tuple(j for j in range(m + 1, -1, -1) if j not in (1, m))
    rest = tuple(sorted(set(range(m + 2)) - set(coords)))
    cuts = relation_coupling(relation, coords)
    comps.append(CompositionSpec((ComponentSpec(build_polytope(relation), coords),
                                  ComponentSpec(PolytopeSpec(dim=len(rest)), rest)), cuts, m + 2))
    comps.append(CompositionSpec(free_components([1] * (m + 2)), cuts, m + 2))
    for comp in comps:
        assert single_relation(comp)[0] == relation
    return comps


@pytest.mark.parametrize("repair_locals", [True, False])
@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_catalog_certificates_are_project_relation_bit_for_bit(relation, repair_locals):
    rng = np.random.default_rng(31)
    items = []
    for comp in catalog_layouts(relation):
        _, coords = single_relation(comp)
        for _ in range(12):
            locals_ = [rng.uniform(-0.3, 1.3, size=len(c.coords)) for c in comp.components]
            items.append((comp, locals_))
            cert = residual(comp, locals_, repair_locals=repair_locals)
            raw = aggregate(comp, locals_)
            composed = raw.clip(0.0, 1.0) if repair_locals else raw
            for component in comp.components if repair_locals else ():
                composed[list(component.coords)] = project_local(component.polytope,
                                                                 raw[list(component.coords)])
            assert cert.composed.tobytes() == composed.tobytes()
            exact = project_relation(relation, composed[list(coords)])
            repaired = composed.clip(0.0, 1.0)
            repaired[list(coords)] = exact.projected
            assert cert.repaired.tobytes() == repaired.tobytes()
            if len(coords) == comp.joint_dim:
                assert cert.epsilon_star == (exact.residual if exact.residual >= RESIDUAL_FLOOR
                                             else 0.0)
            else:
                assert cert.epsilon_star == _certificate(comp, composed, repaired, True,
                                                         None, 0).epsilon_star
    for (comp, locals_), got in zip(items, residual_batch(items, repair_locals=repair_locals)):
        assert_same_certificate(got, residual(comp, locals_, repair_locals=repair_locals))


class SolverReached(Exception):
    pass


def test_only_generic_blocks_reach_the_solver(monkeypatch):
    import coherify.composition as composition

    def unreachable(spec, X, *args):
        raise SolverReached(spec)

    monkeypatch.setattr(composition, "project_active_set", unreachable)
    items = [item for item in batch_items(np.random.default_rng(4))
             if single_relation(item[0]) is not None]
    assert len(items) >= 60
    for repair_locals in (True, False):
        residual_batch(items, repair_locals=repair_locals)
    for comp in (owned_by([0, 1, 2, 3], SUM_TWO), owned_by([0, 0, 0, 0], SUM_TWO),
                 CompositionSpec(free_components([2, 2]), MIXED_CUTS, 4)):
        with pytest.raises(SolverReached):
            residual(comp, [np.full(len(c.coords), 0.5) for c in comp.components])


@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_joint_projection_equals_clip_and_scatter_bit_for_bit(relation):
    # coords that are every joint coordinate in order skip the clip and the
    # scatter; permuted and scattered coords take them
    from coherify.composition import _joint_projection

    m = relation.m
    reversed_coords = tuple(range(m - 1, -1, -1))
    comps = catalog_layouts(relation) + [
        CompositionSpec(free_components([1] * m), relation_coupling(relation, reversed_coords), m)]
    layouts = [single_relation(comp)[1] for comp in comps]
    assert tuple(range(m)) in layouts and reversed_coords in layouts
    rng = np.random.default_rng(23)
    for comp in comps:
        _, coords = single_relation(comp)
        for n in (3, COLUMN_ROWS + 5):  # both isotonic kernels for ladders
            X = rng.uniform(-0.3, 1.3, size=(n, comp.joint_dim))
            general = X.clip(0.0, 1.0)
            general[:, coords] = project_relation_batch(relation, X[:, coords])
            projected = _joint_projection(comp, X)
            assert projected.tobytes() == general.tobytes()
            assert not np.shares_memory(projected, X)


# --- single-relation recognition ---------------------------------------------------


@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_single_relation_recognizes_split_and_owner_layouts(relation):
    m = relation.m
    split = CompositionSpec(free_components([1] * m), relation_coupling(relation, range(m)), m)
    assert single_relation(split) == (relation, tuple(range(m)))
    clique = Clique(id="c", relation=relation)
    sole_owner = composition_for(clique, np.zeros(m, dtype=int)).comp
    assert single_relation(sole_owner) == (relation, tuple(range(m)))
    mixed = composition_for(clique, np.arange(m) % 2).comp
    assert single_relation(mixed) == (relation, tuple(range(m)))


def test_single_relation_keeps_permuted_ladder_coords():
    coords = (2, 0, 3, 1)
    comp = CompositionSpec(free_components([1] * 4), relation_coupling(ladder(4), coords), 4)
    assert single_relation(comp) == (ladder(4), coords)
    assert comp.system.blocks is comp.system.blocks  # cached


def test_single_relation_none_for_other_joint_sets():
    free3 = free_components([1, 1, 1])
    infeasible = CompositionSpec(free3, (CouplingConstraint("partition-sum", (0, 1, 2), 2.0),), 3)
    two_relations = CompositionSpec(
        free_components([1, 1, 1, 1]),
        relation_coupling(negation(), (0, 1)) + relation_coupling(partition(3), (1, 2, 3)),
        4,
    )
    foreign_component = CompositionSpec(
        (ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),),
        relation_coupling(ladder(3), range(3)),
        3,
    )
    component_on_other_coords = CompositionSpec(
        (ComponentSpec(build_polytope(ladder(3)), (0, 1, 2)),),
        relation_coupling(ladder(3), (2, 1, 0)),
        3,
    )
    repeated = CompositionSpec(free3, (CouplingConstraint("ladder-chain", (0, 1, 0)),), 3)
    uncoupled = CompositionSpec(free3, (), 3)
    for comp in (infeasible, two_relations, foreign_component, component_on_other_coords,
                 repeated, uncoupled):
        assert single_relation(comp) is None


def _single_relation_by_search(comp):
    """``single_relation(comp)`` by trying every relation kind in turn: the reference."""
    cuts = comp.coupling.constraints
    if not cuts:
        return None
    coords = cuts[-1].coords
    if len(set(coords)) != len(coords):
        return None
    for kind in RelationKind:
        try:
            relation = Relation(kind, len(coords))
        except ValueError:
            continue
        if relation_coupling(relation, coords) != cuts:
            continue
        if all((c.polytope.relation == relation and c.coords == coords)
               or not (c.polytope.equalities or c.polytope.halfspaces)
               for c in comp.components):
            return relation, coords
        return None
    return None


def test_single_relation_takes_its_candidate_from_the_last_cut():
    catalog = [negation(), conjunction(), disjunction()] + [
        make(m) for make in (partition, ladder, paraphrase) for m in range(2, 13)]
    free3 = free_components([1, 1, 1])
    others = [
        CompositionSpec(free3, (CouplingConstraint("partition-sum", (0, 1, 2), 2.0),), 3),
        CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),),
                        relation_coupling(ladder(3), range(3)), 3),
        CompositionSpec((ComponentSpec(build_polytope(disjunction()), (0, 1, 2)),),
                        relation_coupling(conjunction(), range(3)), 3),
        CompositionSpec(free3, (CouplingConstraint("ladder-chain", (0, 1, 0)),), 3),
        CompositionSpec(free3, (CouplingConstraint("equality", (2, 0, 2), 0.0),), 3),
        CompositionSpec(free3, (CouplingConstraint("frechet-halfspace", (0, 1), 1.0,
                                                   a=(1.0, 1.0)),), 3),
    ]
    # catalog_layouts: sole-owner, split and mixed owners, and scattered coordinates
    for comp in [comp for relation in catalog for comp in catalog_layouts(relation)] + others:
        assert single_relation(comp) == _single_relation_by_search(comp)
    assert all(single_relation(comp) is None for comp in others)


def test_single_relation_allows_relation_on_a_subset_of_coords():
    comp = CompositionSpec(
        (ComponentSpec(PolytopeSpec(dim=1), (0,)),
         ComponentSpec(build_polytope(negation()), (1, 2))),
        relation_coupling(negation(), (1, 2)),
        3,
    )
    assert single_relation(comp) == (negation(), (1, 2))


# --- the exact route per block ------------------------------------------------------


PARTITION_THEN_LADDER = (relation_coupling(partition(3), (0, 1, 2))
                         + relation_coupling(ladder(3), (3, 4, 5)))


def multi_block_systems():
    """Joint sets that are products of catalog polytopes (and the box), each block
    declared by cuts over split owners, by cuts and the relation's own sole owner, or by
    a lone catalog component with no cut, on ordered and scattered coordinates."""
    return [
        owned_by([0, 1, 0, 1, 2, 2], PARTITION_THEN_LADDER),
        CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),
                         ComponentSpec(PolytopeSpec(dim=2), (3, 5)),
                         ComponentSpec(PolytopeSpec(dim=1), (4,))), PARTITION_THEN_LADDER, 6),
        CompositionSpec((ComponentSpec(build_polytope(conjunction()), (4, 0, 2)),
                         ComponentSpec(PolytopeSpec(dim=1), (1,)),
                         ComponentSpec(PolytopeSpec(dim=2), (3, 5))),
                        relation_coupling(negation(), (5, 3)), 6),
        CompositionSpec((ComponentSpec(build_polytope(ladder(4)), (3, 1, 0, 2)),
                         ComponentSpec(PolytopeSpec(dim=1), (4,))), (), 5),
        CompositionSpec(free_components([2, 1, 2, 2]),
                        relation_coupling(paraphrase(2), (6, 1))
                        + relation_coupling(disjunction(), (0, 2, 4)), 7),
    ]


def catalog_blocks(comp) -> list:
    """``(relation, coords)`` for each catalog block of ``comp``."""
    return [(b.relation, b.coords) for b in comp.system.blocks if b.kind == "catalog"]


def block_vertices(comp) -> np.ndarray:
    """Vertices of the product of the blocks' relation polytopes and the box elsewhere."""
    factors, covered = [], set()
    for relation, coords in catalog_blocks(comp):
        factors.append([dict(zip(coords, v)) for v in _vertex_array(relation)])
        covered.update(coords)
    factors += [[{j: 0.0}, {j: 1.0}] for j in range(comp.joint_dim) if j not in covered]
    vertices = []
    for combo in itertools.product(*factors):
        v = np.zeros(comp.joint_dim)
        for part in combo:
            v[list(part)] = list(part.values())
        vertices.append(v)
    return np.array(vertices)


def generic_systems():
    """Systems with a generic block: a sum of 2 beside a partition, a capped component
    beside a negation, and a cut that ties a partition component to a free coordinate."""
    return [
        owned_by([0, 1, 0, 1, 2, 2], relation_coupling(partition(3), (0, 1, 2))
                 + (CouplingConstraint("partition-sum", (3, 4, 5), 2.0),)),
        CompositionSpec((ComponentSpec(CAPPED, (0, 1)), ComponentSpec(PolytopeSpec(dim=2), (2, 3))),
                        relation_coupling(negation(), (2, 3)), 4),
        CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),
                         ComponentSpec(PolytopeSpec(dim=1), (3,))),
                        relation_coupling(ladder(2), (2, 3)), 4),
    ]


def test_blocks_split_a_system_into_catalog_polytopes():
    systems = multi_block_systems()
    assert [[b.kind for b in comp.system.blocks] for comp in systems] == [
        ["catalog", "catalog"], ["catalog", "catalog"], ["catalog", "catalog", "free"],
        ["catalog", "free"], ["catalog", "catalog", "free"]]
    assert systems[0].system.blocks == (Block("catalog", (0, 1, 2), partition(3)),
                                        Block("catalog", (3, 4, 5), ladder(3)))
    assert systems[2].system.blocks == (Block("catalog", (5, 3), negation()),
                                        Block("catalog", (4, 0, 2), conjunction()),
                                        Block("free", (1,)))
    assert single_relation(systems[3]) == (ladder(4), (3, 1, 0, 2))  # one block, no cut
    assert all(single_relation(comp) is None for comp in systems if len(catalog_blocks(comp)) > 1)
    assert CompositionSpec(free_components([2, 1]), (), 3).system.blocks == (
        Block("free", (0, 1, 2)),)
    sum_two, capped, tied = (comp.system.blocks for comp in generic_systems())
    assert [(b.kind, b.coords) for b in sum_two] == [("catalog", (0, 1, 2)),
                                                     ("generic", (3, 4, 5))]
    assert sum_two[1].spec == PolytopeSpec(
        dim=3, equalities=(LinearConstraint((1.0, 1.0, 1.0), 2.0, "c1:partition-sum:sum"),))
    assert [(b.kind, b.coords) for b in capped] == [("catalog", (2, 3)), ("generic", (0, 1))]
    assert capped[1].spec == PolytopeSpec(
        dim=2, halfspaces=(LinearConstraint((1.0, 1.0), 1.5, "m0:cap"),))
    assert [(b.kind, b.coords) for b in tied] == [("generic", (0, 1, 2, 3))]  # the cut ties two
    assert [c.name for c in tied[0].spec.equalities + tied[0].spec.halfspaces] == [
        "m0:partition:sum=1", "c0:ladder-chain:step0"]


@pytest.mark.parametrize("repair_locals", [True, False])
def test_multi_block_systems_are_projected_exactly(repair_locals):
    rng = np.random.default_rng(40)
    items = []
    for comp in multi_block_systems():
        vertices = block_vertices(comp)
        for _ in range(15):
            locals_ = [rng.uniform(-0.3, 1.3, size=len(c.coords)) for c in comp.components]
            items.append((comp, locals_))
            cert = residual(comp, locals_, repair_locals=repair_locals)
            cycled = project_dykstra(comp.joint_polytope, cert.composed, tol=1e-15)
            assert cycled.converged
            assert np.max(np.abs(cert.repaired - cycled.projected)) <= 1e-12
            oracle = project_oracle(vertices, cert.composed).projected
            assert np.max(np.abs(cert.repaired - oracle)) <= 1e-12
            for relation, coords in catalog_blocks(comp):  # each block is its own projection
                assert (cert.repaired[list(coords)].tobytes()
                        == project_relation_batch(relation, cert.composed[None, list(coords)])
                        .tobytes())
    for (comp, locals_), got in zip(items, residual_batch(items, repair_locals=repair_locals)):
        assert_same_certificate(got, residual(comp, locals_, repair_locals=repair_locals))


@pytest.mark.parametrize("repair_locals", [True, False])
def test_each_block_beside_a_generic_block_is_its_own_projection(repair_locals):
    rng = np.random.default_rng(41)
    items = []
    for comp in generic_systems():
        for _ in range(10):
            locals_ = [rng.uniform(-0.3, 1.3, size=len(c.coords)) for c in comp.components]
            items.append((comp, locals_))
            cert = residual(comp, locals_, repair_locals=repair_locals)
            cycled = project_dykstra(comp.joint_polytope, cert.composed, tol=1e-15)
            assert cycled.converged
            assert np.max(np.abs(cert.repaired - cycled.projected)) <= 1e-12
            for block in comp.system.blocks:
                coords = list(block.coords)
                if block.kind == "catalog":  # bit for bit, as without the generic block
                    own = project_relation_batch(block.relation, cert.composed[None, coords])
                else:
                    own = project_active_set(block.spec, cert.composed[None, coords], block.coords)
                assert cert.repaired[coords].tobytes() == own.tobytes()
    for (comp, locals_), got in zip(items, residual_batch(items, repair_locals=repair_locals)):
        assert_same_certificate(got, residual(comp, locals_, repair_locals=repair_locals))


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="partition-sum", coords=(-1, 0)), r"coords=\[-1, 0\] must be >= 0"),
    (dict(kind="ladder-chain", coords=(2, -3, 0)), r"coords=\[2, -3, 0\] must be >= 0"),
    (dict(kind="partition-sum", coords=(0, 1), b=float("nan")), "b=nan must be finite"),
    (dict(kind="negation-sum", coords=(0, 1), b=float("inf")), "b=inf must be finite"),
    (dict(kind="frechet-halfspace", coords=(0, 1), b=1.0, a=(1.0, float("nan"))),
     r"a=\[1.0, nan\] must be finite"),
    (dict(kind="frechet-halfspace", coords=(0, 1), b=1.0, a=(-float("inf"), 1.0)),
     r"a=\[-inf, 1.0\] must be finite"),
    # a sum or a normal over a repeated coordinate would count it once
    (dict(kind="partition-sum", coords=(0, 0, 1)), "partition-sum names coordinate 0 twice"),
    (dict(kind="frechet-halfspace", coords=(0, 1, 0), b=0.0, a=(1.0, 1.0, -1.0)),
     "frechet-halfspace names coordinate 0 twice"),
    (dict(kind="negation-sum", coords=(0, 1, 2)), "negation-sum couples exactly 2 coordinates"),
    (dict(kind="ladder-chain", coords=(0, 1), a=(1.0, -1.0)),
     "ladder-chain does not take an explicit normal"),
])
def test_coupling_refuses_a_negative_coordinate_and_non_finite_numbers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CouplingConstraint(**kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: relation_coupling(partition(3), (0, 1)),
     "coordinate count must match the relation arity"),
    (lambda: ComponentSpec(build_polytope(negation()), (0, 1, 2)),
     "owned coordinate count must match the local polytope dimension"),
], ids=["relation_coupling", "ComponentSpec"])
def test_a_coordinate_count_other_than_the_arity_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
