"""Constraint systems built once per process, and binding cuts named only on read."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from coherify.cli import composition_from_json, main
from coherify.composition import (
    COMPONENT_CACHE_SIZE,
    SYSTEM_CACHE_SIZE,
    Block,
    ComponentSpec,
    CompositionSpec,
    CouplingConstraint,
    constraint_system,
    free_components,
    relation_coupling,
    residual,
    residual_batch,
    shared_component,
)
from coherify.jsonio import dump_lines, parse_lines
from coherify.polytope import (
    Clique,
    PolytopeSpec,
    Relation,
    RelationKind,
    build_polytope,
    conjunction,
    disjunction,
    free_box,
    ladder,
    negation,
    partition,
)
from coherify.projection import project_relation
from coherify.simharness import PanelModel, RoutingPolicy, composition_for, run_ensemble

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
# every benchmarked CLI run starts from this: each coherify lru_cache emptied
clear_coherify_caches = pytest.importorskip("bench_workloads").clear_caches

TOL = 1e-8  # residual's default


def all_relations():
    """All six relations, the variable-arity ones at every m from 2 to 12."""
    fixed = [negation(), conjunction(), disjunction()]
    variable = [Relation(kind, m)
                for kind in (RelationKind.PARTITION, RelationKind.LADDER, RelationKind.PARAPHRASE)
                for m in range(2, 13)]
    return fixed + variable


def layouts():
    """``(clique, owners, panel)`` for a sole owner and a split of every relation."""
    rng = np.random.default_rng(20)
    out = []
    for n, relation in enumerate(all_relations()):
        clique = Clique(id=f"c{n}", relation=relation)
        m = relation.m
        panel = rng.uniform(size=(2, m))
        out.append((clique, np.zeros(m, dtype=int), panel))
        out.append((clique, np.arange(m) % 2, panel))
    return out


def certify_layouts():
    certs = []
    for clique, owners, panel in layouts():
        routed = composition_for(clique, owners)
        locals_ = [panel[s][list(c.coords)] for s, c in zip(routed.specialists,
                                                            routed.comp.components)]
        certs.append((routed.comp, residual(routed.comp, locals_)))
    return certs


def certify_file_text():
    rng = np.random.default_rng(21)
    records = []
    for n, relation in enumerate(all_relations()):
        m = relation.m
        owners = (np.arange(m) % 2).tolist()
        records.append({
            "clique_id": f"c{n}",
            "owners": owners,
            "coupling": [c.to_json() for c in relation_coupling(relation, range(m))],
            "locals": [rng.uniform(size=owners.count(s)).tolist() for s in (0, 1)],
        })
    return dump_lines(records)


def certificate_bytes(certs) -> bytes:
    return dump_lines(cert.to_json() for _, cert in certs).encode()


def crowd_the_component_cache():
    """Fill the component cache with components no layout uses, so that every
    component a run asks for evicts one."""
    for k in range(COMPONENT_CACHE_SIZE):
        shared_component(free_box(1), (100 + k,))


def test_cold_and_warm_caches_certify_the_same_bytes(tmp_path):
    source = tmp_path / "compositions.jsonl"
    source.write_text(certify_file_text())
    outputs = []
    for name in ("cold", "warm", "crowded"):
        out = tmp_path / f"{name}.jsonl"
        if name != "warm":
            clear_coherify_caches()
        if name == "crowded":
            crowd_the_component_cache()
        assert main(["certify", str(source), "--out", str(out)]) == 0
        if name == "cold":  # the file's split systems are the layouts' too
            clear_coherify_caches()
        if name == "crowded":
            crowd_the_component_cache()
        certs = certify_layouts()
        outputs.append((certificate_bytes(certs), out.read_bytes(),
                        b"".join(np.asarray([c.epsilon_star, *c.repaired]).tobytes()
                                 for _, c in certs)))
        for comp, cert in certs:
            assert cert.binding == comp.joint_polytope.violated(cert.composed, TOL)
    assert constraint_system.cache_info().hits > 0  # the warm pass read cached systems
    assert outputs[0] == outputs[1] == outputs[2]


def test_layouts_sharing_a_system_key_share_one_constraint_system():
    clique = Clique(id="p", relation=partition(5))
    split_a = composition_for(clique, [0, 1, 0, 1, 2]).comp
    split_b = composition_for(clique, [3, 3, 1, 0, 0]).comp  # other owners, still all free boxes
    sole = composition_for(clique, [2] * 5).comp
    assert split_a.system is split_b.system
    assert sole.system is not split_a.system
    assert sole.coupling_polytope == split_a.coupling_polytope
    assert len(sole.joint_polytope.A) == len(split_a.joint_polytope.A) + 1  # the local sum
    # sole owners whose polytopes were built apart: equal specs, one key, one system
    coupling = relation_coupling(ladder(12), range(12))
    ladders = [CompositionSpec((ComponentSpec(build_polytope(ladder(12)), tuple(range(12))),),
                               coupling, 12) for _ in range(2)]
    assert ladders[0].components[0].polytope is not ladders[1].components[0].polytope
    assert ladders[0].system is ladders[1].system


def test_every_builder_hands_out_one_free_box_per_dimension():
    clear_coherify_caches()
    record = {"owners": [0, 1, 1, 2, 2, 2], "locals": [[0.1], [0.2, 0.3], [0.4, 0.5, 0.6]]}
    from_cli = [c.polytope for c in composition_from_json(record, {})[0].components]
    routed = composition_for(Clique(id="p", relation=partition(6)), [4, 1, 1, 0, 0, 0]).comp
    from_sim = {len(c.coords): c.polytope for c in routed.components}
    built = [c.polytope for c in free_components([1, 2, 3])]
    for d, box in zip((1, 2, 3), from_cli):
        assert box is free_box(d) is built[d - 1] is from_sim[d] == PolytopeSpec(dim=d)
    assert free_box.cache_info().currsize == 3


def test_every_builder_hands_out_one_component_per_polytope_and_coordinates():
    clear_coherify_caches()
    record = {"owners": [0, 1, 1, 2, 2, 2], "locals": [[0.1], [0.2, 0.3], [0.4, 0.5, 0.6]]}
    from_cli = composition_from_json(record, {})[0].components
    clique = Clique(id="p", relation=partition(6))
    routed = composition_for(clique, [4, 1, 1, 0, 0, 0]).comp
    from_sim = sorted(routed.components, key=lambda c: c.coords)
    built = free_components([1, 2, 3])
    for a, b, c in zip(from_cli, from_sim, built):
        assert a is b is c is shared_component(free_box(len(a.coords)), a.coords)
    # a fresh layout of the same owners shares them, and so does a sole owner's component
    again = composition_for(clique, [7, 3, 3, 2, 2, 2]).comp
    assert all(a is b for a, b in zip(sorted(again.components, key=lambda c: c.coords), built))
    sole = composition_for(clique, [5] * 6).comp.components[0]
    assert sole is composition_for(clique, [1] * 6).comp.components[0]
    assert sole is shared_component(build_polytope(partition(6)), tuple(range(6)))
    assert shared_component.cache_info().currsize == 4


def test_component_cache_is_emptied_with_every_lru_cache():
    composition_for(Clique(id="p", relation=partition(4)), [0, 1, 1, 0])
    assert shared_component.cache_info().currsize > 0
    clear_coherify_caches()  # what each benchmarked CLI run starts from
    assert shared_component.cache_info().currsize == 0
    assert shared_component.cache_info().maxsize == COMPONENT_CACHE_SIZE


def test_component_cache_never_holds_more_than_its_bound():
    clear_coherify_caches()
    box = free_box(1)
    first = free_components([1])[0]
    for k in range(COMPONENT_CACHE_SIZE + 40):
        comp = composition_for(Clique(id="n", relation=negation()), [0, 1]).comp
        assert comp.components[0] == ComponentSpec(box, (0,))
        assert shared_component(box, (10 + k,)).coords == (10 + k,)
        assert shared_component.cache_info().currsize <= COMPONENT_CACHE_SIZE
    assert shared_component.cache_info().currsize == COMPONENT_CACHE_SIZE
    # the builders' components stayed in use; the oldest of the rest were evicted
    assert free_components([1])[0] is first
    evicted = shared_component.cache_info().misses
    assert shared_component(box, (10,)) == ComponentSpec(box, (10,))
    assert shared_component.cache_info().misses == evicted + 1


def test_system_cache_never_holds_more_than_its_bound():
    clear_coherify_caches()
    first = None
    for k in range(SYSTEM_CACHE_SIZE + 40):
        cut = CouplingConstraint("partition-sum", (0, 1), 0.5 + k / 1000.0)
        comp = CompositionSpec(free_components([1, 1]), (cut,), 2)
        if first is None:
            first = comp
        assert float(comp.coupling_polytope.b[0]) == 0.5 + k / 1000.0
        assert constraint_system.cache_info().currsize <= SYSTEM_CACHE_SIZE
    assert constraint_system.cache_info().currsize == SYSTEM_CACHE_SIZE
    # the first key was evicted; asking again rebuilds an equal system
    again = constraint_system(first.joint_dim, first.constrained, first.coupling.constraints)
    assert again is not first.system
    assert again.coupling == first.system.coupling and again.joint == first.system.joint


def test_malformed_cut_raises_every_time_and_is_not_cached():
    bad = CouplingConstraint("frechet-halfspace", (0, 1), 1.0, a=(0.0, 0.0))
    for _ in range(2):
        with pytest.raises(ValueError, match="zero normal"):
            CompositionSpec(free_components([1, 1]), (bad,), 2).system


@pytest.fixture
def evaluations(monkeypatch):
    """The row count of every row-wise excess evaluation (``PolytopeSpec._excesses``)."""
    calls = []
    excesses = PolytopeSpec._excesses

    def counting(self, X):
        calls.append(len(X))
        return excesses(self, X)

    monkeypatch.setattr(PolytopeSpec, "_excesses", counting)
    return calls


def test_binding_is_named_only_when_read(evaluations):
    cliques = [Clique(id=f"p{i}", relation=partition(4)) for i in range(3)]
    records = run_ensemble(cliques, PanelModel(), RoutingPolicy("random-uniform"), 2)
    comp = CompositionSpec(free_components([1, 1, 1, 1]),
                           relation_coupling(partition(4), range(4)), 4)
    cert = residual(comp, [[0.39], [0.73], [0.67], [0.71]])
    other = residual(comp, [[0.5], [0.2], [0.3], [0.4]], tol=1e-6)
    assert evaluations == []
    assert cert.binding == ("c0:partition-sum:sum",)
    assert cert.binding == ("c0:partition-sum:sum",)  # read twice, named once
    assert evaluations == [1]
    assert other.to_json()["binding"] == ["c0:partition-sum:sum"]
    assert evaluations == [1, 1]
    records[0].certificate.binding
    assert len(evaluations) == 3


def test_a_batch_names_each_system_run_once_and_only_when_read(evaluations):
    rng = np.random.default_rng(23)
    items = []
    for relation in (partition(4), ladder(5), conjunction()):
        for owners in ([0, 1] * 3)[:relation.m], [0] * relation.m:
            comp = composition_for(Clique(id="c", relation=relation), owners).comp
            items += [(comp, [rng.uniform(-0.2, 1.2, size=len(c.coords)) for c in comp.components])
                      for _ in range(3)]
    runs = {id(comp.system) for comp, _ in items}
    certs = residual_batch(items)
    assert evaluations == []  # never read, never named
    names = [cert.binding for cert in certs]
    assert evaluations == [3] * len(runs) and len(runs) == 6  # one per run, of its 3 rows
    assert names == [comp.joint_polytope.violated(cert.composed, TOL)
                     for (comp, _), cert in zip(items, certs)]


def test_calls_with_different_tolerances_never_share_names():
    comp = CompositionSpec(free_components([1, 1]), relation_coupling(partition(2), range(2)), 2)
    locals_ = [[0.5], [0.5 + 1e-7]]  # off the unit sum by 1e-7
    loose = residual_batch([(comp, locals_)] * 2, tol=1e-6)
    tight = residual_batch([(comp, locals_)])
    assert loose[0].run is loose[1].run and loose[0].run is not tight[0].run
    assert [cert.binding for cert in loose + tight] == [(), (), ("c0:partition-sum:sum",)]


GOLDEN_CERTIFY = [  # input line, then its certificate line as certify wrote it before binding was lazy
    ('{"clique_id": "p4", "owners": [0, 1, 2, 3], "coupling": [{"kind": "partition-sum", '
     '"coords": [0, 1, 2, 3], "b": 1.0}], "locals": [[0.39], [0.73], [0.67], [0.71]]}',
     '{"eps_star": 0.75, "exposure_bound": 1.5, "repaired": [0.015000000000000013, '
     '0.35499999999999998, 0.29500000000000004, 0.33499999999999996], '
     '"binding": ["c0:partition-sum:sum"]}'),
    ('{"clique_id": "n", "owners": [0, 1], "coupling": [{"kind": "negation-sum", '
     '"coords": [0, 1], "b": 1.0}], "locals": [[0.84], [0.89]]}',
     '{"eps_star": 0.5161879502661797, "exposure_bound": 0.73000000000000009, '
     '"repaired": [0.47499999999999998, 0.52500000000000002], "binding": ["c0:negation-sum:sum"]}'),
]


def test_certify_names_binding_once_per_system_run_with_unchanged_output(tmp_path, evaluations):
    source = tmp_path / "compositions.jsonl"
    source.write_text("".join(line + "\n" for line, _ in GOLDEN_CERTIFY) + certify_file_text())
    out = tmp_path / "certificates.jsonl"
    assert main(["certify", str(source), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:len(GOLDEN_CERTIFY)] == [want for _, want in GOLDEN_CERTIFY]
    shapes: dict = {}
    specs = [composition_from_json(record, shapes)[0]
             for _, record in parse_lines(source.read_text())]
    runs = {id(comp.system) for comp in specs}
    assert len(runs) == len(all_relations()) < len(lines)  # the golden lines join two runs
    assert len(evaluations) == len(runs) and sum(evaluations) == len(lines)


def test_project_names_active_constraints_once_per_relation(tmp_path, evaluations):
    rng = np.random.default_rng(24)
    relations = [negation(), partition(4), ladder(3), conjunction()]
    records = [{"id": f"q{i}", "relation": r.kind.value, "m": r.m,
                "quote": rng.uniform(-0.2, 1.2, size=r.m).tolist()}
               for i, r in enumerate(relations * 5)]
    source, out = tmp_path / "quotes.jsonl", tmp_path / "projected.jsonl"
    source.write_text(dump_lines(records))
    assert main(["project", str(source), "--out", str(out)]) == 0
    assert evaluations == [5] * len(relations)
    got = [json.loads(line)["active_constraint"] for line in out.read_text().splitlines()]
    assert got == [project_relation(r, q["quote"]).active_constraint
                   for r, q in zip(relations * 5, records)]


def test_batch_past_the_cache_bound_certifies_as_one_residual_per_item():
    clear_coherify_caches()
    rng = np.random.default_rng(22)

    def item(k):  # a fresh spec each time, so a repeat looks its system up again
        cut = CouplingConstraint("partition-sum", (0, 1), 0.5 + k / 1000.0)
        return CompositionSpec(free_components([1, 1]), (cut,), 2), list(rng.uniform(size=(2, 1)))

    keys = list(range(SYSTEM_CACHE_SIZE + 20)) + list(range(20)) * 2
    items = [item(k) for k in keys]
    certs = residual_batch(items)
    # the first systems were evicted before their repeats were looked up
    assert items[0][0].system is not items[SYSTEM_CACHE_SIZE + 20][0].system
    for (comp, locals_), cert in zip(items, certs):
        alone = residual(comp, locals_)
        assert cert.to_json() == alone.to_json()
        assert cert.repaired.tobytes() == alone.repaired.tobytes()
        assert cert.epsilon_star == alone.epsilon_star


def test_layouts_sharing_a_system_decide_its_blocks_once(monkeypatch):
    import coherify.composition as composition

    decided = []
    blocks = composition._blocks
    monkeypatch.setattr(composition, "_blocks",
                        lambda *key: decided.append(key) or blocks(*key))
    clear_coherify_caches()
    rng = np.random.default_rng(25)
    clique = Clique(id="p", relation=partition(5))
    layouts = [rng.integers(0, 4, size=5) for _ in range(60)] + [np.zeros(5, dtype=int)] * 5
    splits = {len(set(owners.tolist())) > 1 for owners in layouts}
    for owners in layouts:
        comp = composition_for(clique, owners).comp
        cert = residual(comp, [rng.uniform(size=len(c.coords)) for c in comp.components])
        assert comp.system.blocks == (Block("catalog", tuple(range(5)), partition(5)),)
        assert cert.repaired.tobytes() == project_relation(partition(5),
                                                           cert.composed).projected.tobytes()
    assert splits == {True, False}
    # every split layout shares one system of free boxes; the sole owners share another
    assert len(decided) == 2
