"""Seeded input generators for the three benchmark workloads.

Every input comes from ``numpy.random.default_rng([seed, tag, ...])``, so one
seed always gives the same files and quote streams. The program under test
sees only what these functions produce.

The relation and arity mix is fixed per "deck" (``DECK``); the seed only
draws quote values, owner patterns and shuffle order. That keeps the work
per round nearly the same from seed to seed, which is what makes the
throughput and latency figures comparable across seeds.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from coherify import (
    Clique,
    CompositionSpec,
    CouplingConstraint,
    Relation,
    RelationKind,
    enumerate_vertices,
    free_components,
    relation_coupling,
)

PANEL_K = 4          # specialists quoting every clique
K_SAMPLES = 8        # samples per question, passed to the monitor as K
NOISE = 0.1          # specialist noise around the coherent truth
BIAS = 0.05          # specialist offsets spread over [-BIAS, +BIAS]

# (relation, m, copies per deck): all six relations, m from 2 to 12, small
# cliques more common than large ones. One deck is 84 cliques.
_VARIABLE = ("partition", "ladder", "paraphrase")
DECK = tuple(
    [("neg", 2, 4), ("and", 3, 4), ("or", 3, 4)]
    + [(kind, m, 4 if m <= 4 else 2 if m <= 8 else 1)
       for kind in _VARIABLE for m in range(2, 13)]
)
DECK_SIZE = sum(copies for _, _, copies in DECK)

PROJECT_DECKS = 2      # records-batch: 168 cliques per project file
CERTIFY_DECKS = 4      # records-batch: 336 compositions per certify file
PATTERNS_PER_SLOT = 2  # records-batch: owner patterns per (relation, m) in the catalog

STUDY_SCENARIO = """\
relations   = neg, and, or, partition, ladder, paraphrase
m           = {m}
n_cliques   = {n_cliques}
panel_k     = 4
K           = 8
n_seeds     = {n_seeds}
policy      = random-uniform
master_seed = {master_seed}
"""
STUDY_M = 6            # arity of partition, ladder and paraphrase cliques
STUDY_CLIQUES = 4      # per relation, so 24 cliques
STUDY_SEEDS = 4        # routing seeds per clique, so 96 (clique, seed) cells

_TAG = {"records-batch": 11, "gate-online": 22, "simulate-study": 33}

_vertex_cache: dict[Relation, np.ndarray] = {}


def rng_for(seed: int, workload: str, *parts: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAG[workload], *[int(p) for p in parts]])


def relation_of(kind: str, m: int) -> Relation:
    return Relation(RelationKind(kind), m)


def _vertices(relation: Relation) -> np.ndarray:
    if relation not in _vertex_cache:
        _vertex_cache[relation] = enumerate_vertices(relation).as_array()
    return _vertex_cache[relation]


def panel_quotes(rng: np.random.Generator, relation: Relation) -> np.ndarray:
    """(PANEL_K, m) specialist quotes around a coherent truth, clipped to the box."""
    V = _vertices(relation)
    truth = rng.dirichlet(np.ones(len(V))) @ V
    offsets = np.linspace(-BIAS, BIAS, PANEL_K)[:, None]
    noisy = truth[None, :] + offsets + rng.normal(0.0, NOISE, size=(PANEL_K, relation.m))
    return np.clip(noisy, 0.0, 1.0)


def split_owners(rng: np.random.Generator, m: int) -> np.ndarray:
    """Owner per joint coordinate, drawn uniformly until at least two owners appear."""
    while True:
        owners = rng.integers(0, PANEL_K, size=m)
        if len(set(owners.tolist())) >= 2:
            return owners


def locals_for(quotes: np.ndarray, owners: np.ndarray) -> list[np.ndarray]:
    """Each owner's quote on the coordinates it owns, in ascending owner order."""
    return [quotes[s][owners == s] for s in sorted(set(owners.tolist()))]


def deck_slots(rng: np.random.Generator, n_decks: int) -> list[tuple[str, int]]:
    slots = [(kind, m) for _ in range(n_decks) for kind, m, copies in DECK for _ in range(copies)]
    order = rng.permutation(len(slots))
    return [slots[i] for i in order]


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def mix_of(slots) -> dict[str, int]:
    """Relation and m mix as ``{"ladder:4": count, ...}``."""
    counts = Counter(slots)
    return {f"{kind}:{m}": counts[(kind, m)] for kind, m in sorted(counts)}


def repeat_share(shapes: list) -> float:
    """Share of items whose shape already occurred earlier in the same input."""
    return 1.0 - len(set(shapes)) / len(shapes) if shapes else 0.0


# --- records-batch --------------------------------------------------------


def shape_catalog(seed: int) -> dict[tuple[str, int], list[tuple[int, ...]]]:
    """Split-owner patterns per (relation, m); the certify file draws from these."""
    rng = rng_for(seed, "records-batch", 0)
    return {
        (kind, m): [tuple(split_owners(rng, m).tolist()) for _ in range(PATTERNS_PER_SLOT)]
        for kind, m, _ in DECK
    }


@dataclass
class RecordsRound:
    project_text: str
    certify_text: str
    project_cases: list[tuple[Relation, np.ndarray]]            # per line: relation, quote
    certify_cases: list[tuple[Relation, list[np.ndarray], np.ndarray]]  # relation, locals, owners
    properties: dict


def records_round(seed: int, round_index: int, catalog) -> RecordsRound:
    rng = rng_for(seed, "records-batch", 1, round_index)
    project_records, project_cases = [], []
    project_slots = deck_slots(rng, PROJECT_DECKS)
    for i, (kind, m) in enumerate(project_slots):
        relation = relation_of(kind, m)
        quote = panel_quotes(rng, relation)[int(rng.integers(PANEL_K))]
        cid = f"r{round_index}-p{i}"
        clique = Clique(id=cid, relation=relation,
                        question_texts=tuple(f"{cid}/q{j}" for j in range(m)))
        project_records.append({**clique.to_json(), "quote": quote.tolist()})
        project_cases.append((relation, quote))
    certify_records, certify_cases, shapes = [], [], []
    certify_slots = deck_slots(rng, CERTIFY_DECKS)
    for i, (kind, m) in enumerate(certify_slots):
        relation = relation_of(kind, m)
        patterns = catalog[(kind, m)]
        owners = np.array(patterns[int(rng.integers(len(patterns)))])
        locals_ = locals_for(panel_quotes(rng, relation), owners)
        coupling = [c.to_json() for c in relation_coupling(relation, range(m))]
        certify_records.append({
            "clique_id": f"r{round_index}-c{i}",
            "owners": owners.tolist(),
            "coupling": coupling,
            "locals": [q.tolist() for q in locals_],
        })
        certify_cases.append((relation, locals_, owners))
        shapes.append((kind, m, tuple(owners.tolist())))
    project_text = _jsonl(project_records)
    certify_text = _jsonl(certify_records)
    properties = {
        "project_records": len(project_records),
        "certify_records": len(certify_records),
        "project_mix": mix_of(project_slots),
        "certify_mix": mix_of(certify_slots),
        "project_shape_repeat_share": repeat_share(project_slots),
        "certify_shape_repeat_share": repeat_share(shapes),
        "project_input_bytes": len(project_text.encode()),
        "certify_input_bytes": len(certify_text.encode()),
    }
    return RecordsRound(project_text, certify_text, project_cases, certify_cases, properties)


# --- gate-online ----------------------------------------------------------


@dataclass(frozen=True)
class Quote:
    """One arriving composed quote; ``infeasible`` quotes carry their own spec."""

    relation: Relation | None
    owners: np.ndarray | None
    locals_: list[np.ndarray]
    infeasible: CompositionSpec | None = None

    @property
    def n_values(self) -> int:
        return sum(q.size for q in self.locals_)


# Coupling systems with an empty intersection: sums beyond their coordinate
# count, and pairs of partition-sum cuts that disagree. Fixed shapes; the
# seed draws only the local quotes.
_INFEASIBLE = (
    ((1, 1), (("partition-sum", (0, 1), 3.0),)),
    ((1, 1), (("negation-sum", (0, 1), 2.5),)),
    ((1, 2), (("partition-sum", (0, 1, 2), 4.0),)),
    ((2, 1), (("partition-sum", (0, 1, 2), 1.0), ("partition-sum", (0, 1, 2), 2.0))),
    ((2, 2), (("partition-sum", (0, 1, 2, 3), 1.0), ("partition-sum", (0, 1, 2, 3), 2.5))),
    ((1, 3), (("partition-sum", (0, 1, 2, 3), 5.0),)),
)
INFEASIBLE_EVERY = 40  # the i-th infeasible quote arrives at stream position 40*(i+1)
N_INFEASIBLE = len(_INFEASIBLE)


def infeasible_quotes(seed: int) -> list[Quote]:
    rng = rng_for(seed, "gate-online", 2)
    out = []
    for dims, cuts in _INFEASIBLE:
        spec = CompositionSpec(
            free_components(list(dims)),
            tuple(CouplingConstraint(kind, coords, b) for kind, coords, b in cuts),
            sum(dims),
        )
        out.append(Quote(None, None, [rng.uniform(size=d) for d in dims], spec))
    return out


def gate_chunk(seed: int, chunk_index: int) -> list[Quote]:
    """One deck of arriving quotes; owners uniform per quote, so shapes rarely repeat."""
    rng = rng_for(seed, "gate-online", 1, chunk_index)
    out = []
    for kind, m in deck_slots(rng, 1):
        relation = relation_of(kind, m)
        quotes = panel_quotes(rng, relation)
        owners = rng.integers(0, PANEL_K, size=m)
        out.append(Quote(relation, owners, locals_for(quotes, owners)))
    return out


def gate_stream(seed: int):
    """Endless quote stream with the infeasible quotes at fixed positions."""
    pending = infeasible_quotes(seed)
    n = 0
    chunk_index = 0
    while True:
        for quote in gate_chunk(seed, chunk_index):
            if pending and (n + 1) % INFEASIBLE_EVERY == 0:
                yield pending.pop(0)
                n += 1
            yield quote
            n += 1
        chunk_index += 1


# --- simulate-study -------------------------------------------------------


def study_scenario(seed: int, round_index: int) -> tuple[str, int]:
    """Scenario text and its cell count; each round gets its own master seed."""
    master_seed = int(rng_for(seed, "simulate-study", round_index).integers(0, 2**31))
    text = STUDY_SCENARIO.format(m=STUDY_M, n_cliques=STUDY_CLIQUES, n_seeds=STUDY_SEEDS,
                                 master_seed=master_seed)
    return text, 6 * STUDY_CLIQUES * STUDY_SEEDS
