import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.polytope import (
    _FIXED_ARITY,
    ENUMERATION_LIMIT,
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
from coherify.projection import project_oracle

ALL_RELATIONS = [
    negation(),
    conjunction(),
    disjunction(),
    partition(4),
    ladder(4),
    paraphrase(3),
]


def test_negation_polytope_is_single_sum_equality():
    spec = build_polytope(negation())
    assert len(spec.equalities) == 1 and not spec.halfspaces
    assert spec.equalities[0].a == (1.0, 1.0)
    assert spec.equalities[0].b == 1.0


def test_partition_polytope_is_unit_mass_equality():
    spec = build_polytope(partition(4))
    assert len(spec.equalities) == 1 and not spec.halfspaces
    assert spec.equalities[0].a == (1.0, 1.0, 1.0, 1.0)
    assert spec.equalities[0].b == 1.0


def test_conjunction_polytope_has_four_halfspaces_no_equalities():
    spec = build_polytope(conjunction())
    assert len(spec.halfspaces) == 4 and not spec.equalities


def test_conjunction_halfspaces_match_outcome_hull():
    # independent oracle: brute-force the consistent outcomes of y3 = y1 and y2
    expected = sorted(
        y for y in itertools.product((0, 1), repeat=3) if y[2] == (y[0] and y[1])
    )
    assert sorted(enumerate_vertices(conjunction()).vertices) == expected
    # and the constraint system agrees with hull membership on random points
    spec = build_polytope(conjunction())
    V = enumerate_vertices(conjunction())
    rng = np.random.default_rng(0)
    for _ in range(300):
        q = rng.uniform(size=3)
        dist = project_oracle(V, q).residual
        if abs(dist - 1e-8) < 1e-10:
            continue
        assert is_member(spec, q) == (dist <= 1e-8)


def test_fixed_arity_validation():
    with pytest.raises(ValueError):
        Relation(RelationKind.NEGATION, 3)
    with pytest.raises(ValueError):
        Relation(RelationKind.CONJUNCTION, 2)
    with pytest.raises(ValueError):
        Relation(RelationKind.PARTITION, 1)


def test_is_member_examples():
    assert is_member(build_polytope(negation()), (0.5, 0.5), 1e-9)
    assert not is_member(build_polytope(negation()), (0.84, 0.89))
    assert is_member(build_polytope(conjunction()), (0.5, 0.5, 0.25))


def test_is_member_rejects_nan():
    assert not is_member(build_polytope(partition(3)), [np.nan] * 3)
    assert not is_member(build_polytope(conjunction()), (0.5, np.nan, 0.25))
    assert not is_member(PolytopeSpec(dim=2), (np.nan, 0.5))


def test_gaps_are_equality_gaps_then_halfspace_excesses():
    spec = PolytopeSpec(
        dim=2,
        equalities=(LinearConstraint((1.0, 1.0), 1.0, "sum"),),
        halfspaces=(LinearConstraint((-1.0, 1.0), 0.0, "r2<=r1"),),
    )
    X = np.array([[0.2, 0.3], [0.9, 0.6], [1.5, -0.5]])
    assert np.allclose(spec.gaps(X), [[0.5, 0.1], [0.5, 0.0], [0.0, 0.0]])  # box not included
    assert spec.gaps(X[0]).shape == (2,)
    assert spec.gaps(X.reshape(3, 1, 2)).shape == (3, 1, 2)
    assert np.isnan(spec.gaps([np.nan, 0.5])).all()
    assert PolytopeSpec(dim=3).gaps(np.zeros((4, 3))).shape == (4, 0)


def test_is_member_dimension_mismatch():
    with pytest.raises(ValueError):
        is_member(build_polytope(negation()), (0.5, 0.5, 0.5))


def test_enumerate_vertices_examples():
    assert sorted(enumerate_vertices(negation()).vertices) == [(0, 1), (1, 0)]
    assert sorted(enumerate_vertices(partition(3)).vertices) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    assert len(enumerate_vertices(conjunction())) == 4


def outcome_consistent(kind: RelationKind, y: tuple[int, ...]) -> bool:
    if kind is RelationKind.NEGATION:
        return y[0] + y[1] == 1
    if kind is RelationKind.CONJUNCTION:
        return y[2] == (y[0] & y[1])
    if kind is RelationKind.DISJUNCTION:
        return y[2] == (y[0] | y[1])
    if kind is RelationKind.PARTITION:
        return sum(y) == 1
    if kind is RelationKind.LADDER:
        return all(y[i + 1] <= y[i] for i in range(len(y) - 1))
    assert kind is RelationKind.PARAPHRASE
    return len(set(y)) == 1


def scanned_vertices(relation: Relation) -> np.ndarray:
    """The reference: every outcome of {0,1}^m the relation admits, in scan order."""
    return np.array([y for y in itertools.product((0, 1), repeat=relation.m)
                     if outcome_consistent(relation.kind, y)], dtype=float)


@pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
def test_closed_form_vertices_are_the_scan_byte_for_byte(kind):
    arities = [_FIXED_ARITY[kind]] if kind in _FIXED_ARITY else range(2, ENUMERATION_LIMIT + 1)
    for m in arities:
        relation = Relation(kind, m)
        vertices = enumerate_vertices(relation)
        assert all(type(v) is int for y in vertices.vertices for v in y)
        V, want = vertices.as_array(), scanned_vertices(relation)
        assert (V.dtype, V.shape, V.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_enumerate_vertices_bound():
    with pytest.raises(ValueError):
        enumerate_vertices(partition(13))


@pytest.mark.parametrize("relation", ALL_RELATIONS, ids=lambda r: r.kind.value)
def test_vertices_are_members_at_zero_tolerance(relation):
    spec = build_polytope(relation)
    V = enumerate_vertices(relation)
    for v in V.as_array():
        assert is_member(spec, v, 0.0)
    # feasibility: the vertex mean is a member
    assert is_member(spec, V.as_array().mean(axis=0))


@pytest.mark.parametrize(
    "relation",
    [negation(), conjunction(), disjunction(), partition(5), ladder(6), paraphrase(4)],
    ids=lambda r: r.kind.value,
)
def test_membership_agrees_with_hull_distance(relation):
    spec = build_polytope(relation)
    V = enumerate_vertices(relation)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = rng.uniform(size=relation.m)
        dist = project_oracle(V, q).residual
        if abs(dist - 1e-8) < 1e-10:
            continue
        assert is_member(spec, q) == (dist <= 1e-8)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    relation=st.sampled_from(ALL_RELATIONS),
)
def test_convex_combinations_of_vertices_are_members(data, relation):
    V = enumerate_vertices(relation).as_array()
    weights = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=len(V),
                max_size=len(V),
            )
        )
    )
    total = weights.sum()
    if total == 0:
        weights = np.ones(len(V))
        total = float(len(V))
    q = (weights / total) @ V
    assert is_member(build_polytope(relation), q, 1e-9)


def test_polytope_rejects_zero_normals():
    with pytest.raises(ValueError):
        PolytopeSpec(dim=2, equalities=(LinearConstraint((0.0, 0.0), 1.0, "zero"),))


def test_clique_json_round_trip():
    clique = Clique(
        id="c1",
        relation=partition(3),
        question_texts=("a?", "b?", "c?"),
        labels=(0, 1, 0),
    )
    record = clique.to_json()
    assert record == {
        "id": "c1",
        "relation": "partition",
        "m": 3,
        "questions": ["a?", "b?", "c?"],
        "labels": [0, 1, 0],
    }
    assert Clique.from_json(record) == clique


def test_clique_validation():
    with pytest.raises(ValueError):
        Clique(id="bad", relation=negation(), question_texts=("only one",))
    with pytest.raises(ValueError):
        Clique(id="bad", relation=negation(), labels=(1, 2))


def reference_excesses(spec: PolytopeSpec, q) -> np.ndarray:
    """One point's constraint and box excesses, as the per-point namers computed them."""
    q = np.asarray(q, dtype=float)
    box = np.empty(2 * q.size)
    np.negative(q, out=box[0::2])
    np.subtract(q, 1.0, out=box[1::2])
    return np.fmax(np.concatenate((spec.gaps(q), box)), 0.0)


def reference_name(spec: PolytopeSpec, k: int) -> str:
    n_eq = len(spec.equalities)
    if k < n_eq:
        return spec.equalities[k].name
    if k < len(spec.A):
        return spec.halfspaces[k - n_eq].name
    i, upper = divmod(k - len(spec.A), 2)
    return f"box:r{i + 1}<=1" if upper else f"box:r{i + 1}>=0"


def reference_violated(spec: PolytopeSpec, q, tol: float) -> tuple[str, ...]:
    return tuple(reference_name(spec, k)
                 for k in (reference_excesses(spec, q) > tol).nonzero()[0].tolist())


def reference_most_violated(spec: PolytopeSpec, q) -> str | None:
    e = reference_excesses(spec, q)
    k = int(np.argmax(e))
    return reference_name(spec, k) if e[k] > 1e-12 else None


CATALOG = [negation(), conjunction(), disjunction()] + [
    Relation(kind, m) for kind in (RelationKind.PARTITION, RelationKind.LADDER,
                                   RelationKind.PARAPHRASE) for m in range(2, 13)]


def exact_ties(m: int) -> np.ndarray:
    """Dyadic points whose excesses tie exactly: box faces with each other and with cuts."""
    return np.array([
        [-0.25] * m,                 # every lower face at once
        [1.25] * m,                  # every upper face at once
        [-0.25] + [0.0] * (m - 1),   # a lower face and a chain or sum cut
        [0.0] * (m - 1) + [1.25],    # an upper face and a chain cut
        [1.5] + [0.0] * (m - 1),     # an upper face and a unit-sum cut
        [0.5] * m,
        [0.0] * m,
        [1.0] * m,
    ])


@pytest.mark.parametrize("relation", CATALOG, ids=lambda r: f"{r.kind.value}{r.m}")
def test_row_wise_names_equal_the_per_point_names(relation):
    spec = build_polytope(relation)
    rng = np.random.default_rng(relation.m)
    X = np.vstack([rng.uniform(-0.5, 1.5, size=(40, relation.m)), exact_ties(relation.m),
                   [[np.nan] + [0.5] * (relation.m - 1)]])
    for tol in (0.0, 1e-8, 0.3):
        want = [reference_violated(spec, q, tol) for q in X]
        assert spec.violated_rows(X, tol) == want
        assert [spec.violated_rows(q[None, :], tol)[0] for q in X] == want
    want = [reference_most_violated(spec, q) for q in X]
    assert spec.most_violated_rows(X) == want
    assert [spec.most_violated_rows(q[None, :])[0] for q in X] == want


def test_a_spec_hashes_its_fields_once_and_equal_specs_hash_alike(monkeypatch):
    a, b = build_polytope(ladder(12)), build_polytope(ladder(12))
    assert a is not b and a == b and hash(a) == hash(b)
    hashed = []
    monkeypatch.setattr(LinearConstraint, "__hash__",
                        lambda self: hashed.append(self) or hash((self.a, self.b, self.name)))
    c = build_polytope(ladder(12))
    assert hash(c) == hash(c) == hash(a)
    assert len(hashed) == len(c.halfspaces)  # the constraints were hashed for the first call only
    assert c != build_polytope(ladder(11)) and PolytopeSpec(dim=2) == PolytopeSpec(dim=2)
