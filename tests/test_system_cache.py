"""Constraint systems built once per process, and binding cuts named only on read."""

import sys
from pathlib import Path

import numpy as np
import pytest

from coherify.cli import main
from coherify.composition import (
    SYSTEM_CACHE_SIZE,
    CompositionSpec,
    CouplingConstraint,
    constraint_system,
    free_components,
    relation_coupling,
    residual,
    residual_batch,
)
from coherify.jsonio import dump_lines
from coherify.polytope import (
    Clique,
    PolytopeSpec,
    Relation,
    RelationKind,
    conjunction,
    disjunction,
    negation,
    partition,
)
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


def test_cold_and_warm_caches_certify_the_same_bytes(tmp_path):
    source = tmp_path / "compositions.jsonl"
    source.write_text(certify_file_text())
    outputs = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.jsonl"
        if name == "cold":
            clear_coherify_caches()
        assert main(["certify", str(source), "--out", str(out)]) == 0
        if name == "cold":  # the file's split systems are the layouts' too
            clear_coherify_caches()
        certs = certify_layouts()
        outputs.append((certificate_bytes(certs), out.read_bytes(),
                        b"".join(np.asarray([c.epsilon_star, *c.repaired]).tobytes()
                                 for _, c in certs)))
        for comp, cert in certs:
            assert cert.binding == comp.joint_polytope.violated(cert.composed, TOL)
    assert constraint_system.cache_info().hits > 0  # the warm pass read cached systems
    assert outputs[0] == outputs[1]


def test_layouts_sharing_a_system_key_share_one_constraint_system():
    clique = Clique(id="p", relation=partition(5))
    split_a = composition_for(clique, [0, 1, 0, 1, 2]).comp
    split_b = composition_for(clique, [3, 3, 1, 0, 0]).comp  # other owners, still all free boxes
    sole = composition_for(clique, [2] * 5).comp
    assert split_a.system is split_b.system
    assert sole.system is not split_a.system
    assert sole.coupling_polytope == split_a.coupling_polytope
    assert len(sole.joint_polytope.A) == len(split_a.joint_polytope.A) + 1  # the local sum


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
def violated_calls(monkeypatch):
    calls = []
    violated = PolytopeSpec.violated

    def counting(self, q, tol):
        calls.append(tol)
        return violated(self, q, tol)

    monkeypatch.setattr(PolytopeSpec, "violated", counting)
    return calls


def test_binding_is_named_only_when_read(violated_calls):
    cliques = [Clique(id=f"p{i}", relation=partition(4)) for i in range(3)]
    records = run_ensemble(cliques, PanelModel(), RoutingPolicy("random-uniform"), 2)
    comp = CompositionSpec(free_components([1, 1, 1, 1]),
                           relation_coupling(partition(4), range(4)), 4)
    cert = residual(comp, [[0.39], [0.73], [0.67], [0.71]])
    other = residual(comp, [[0.5], [0.2], [0.3], [0.4]], tol=1e-6)
    assert violated_calls == []
    assert cert.binding == ("c0:partition-sum:sum",)
    assert cert.binding == ("c0:partition-sum:sum",)  # read twice, named once
    assert violated_calls == [TOL]
    assert other.to_json()["binding"] == ["c0:partition-sum:sum"]
    assert violated_calls == [TOL, 1e-6]
    records[0].certificate.binding
    assert len(violated_calls) == 3


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


def test_certify_names_binding_once_per_record_with_unchanged_output(tmp_path, violated_calls):
    source = tmp_path / "compositions.jsonl"
    source.write_text("".join(line + "\n" for line, _ in GOLDEN_CERTIFY) + certify_file_text())
    out = tmp_path / "certificates.jsonl"
    assert main(["certify", str(source), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:len(GOLDEN_CERTIFY)] == [want for _, want in GOLDEN_CERTIFY]
    assert len(violated_calls) == len(lines)  # once per record, when to_json reads it


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
