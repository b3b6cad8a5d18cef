import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherify.cli import composition_from_json, main
from coherify.composition import residual_batch
from coherify.jsonio import dump_columns, dump_lines, dumps, parse_lines
from coherify.polytope import Clique, Relation
from coherify.projection import project_relation
from coherify.simharness import SimConfig, run_ensemble, to_bet_records


def run_cli(args):
    return main(args)


PARTITION_PROJECT_LINE = (
    '{"id": "p4", "relation": "partition", "m": 4, '
    '"questions": ["a", "b", "c", "d"], "quote": [0.39, 0.73, 0.67, 0.71]}'
)

PARTITION_CERTIFY_LINE = (
    '{"clique_id": "p4", "owners": [0, 1, 2, 3], '
    '"coupling": [{"kind": "partition-sum", "coords": [0, 1, 2, 3], "b": 1.0}], '
    '"locals": [[0.39], [0.73], [0.67], [0.71]]}'
)


@pytest.fixture
def scenario(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "relations = partition\n"
        "m = 4\n"
        "n_cliques = 12\n"
        "panel_k = 4\n"
        "sigma = 0.15\n"
        "bias_scale = 0.1\n"
        "K = 8\n"
        "n_seeds = 4\n"
        "policy = random-uniform\n"
        "master_seed = 3\n"
    )
    return config


def test_project_golden_record(tmp_path, capsys):
    inp = tmp_path / "cliques.jsonl"
    inp.write_text(PARTITION_PROJECT_LINE + "\n")
    out = tmp_path / "out.jsonl"
    assert run_cli(["project", str(inp), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["id"] == "p4"
    assert np.allclose(record["projected"], [0.015, 0.355, 0.295, 0.335], atol=1e-9)
    assert record["converged"] is True
    assert record["active_constraint"] == "partition:sum=1"


def test_project_member_quote_is_identity(tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text('{"id": "m", "relation": "neg", "m": 2, "quote": [0.4, 0.6]}\n')
    out = tmp_path / "out.jsonl"
    run_cli(["project", str(inp), "--out", str(out)])
    record = json.loads(out.read_text())
    assert record["projected"] == [0.4, 0.6]
    assert record["residual"] == 0.0
    assert record["active_constraint"] is None


def test_project_negation_outside_box_lands_in_polytope(tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text('{"id": "n", "relation": "neg", "m": 2, "quote": [1.5, 0.2]}\n')
    out = tmp_path / "out.jsonl"
    assert run_cli(["project", str(inp), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["projected"] == [1.0, 0.0]
    assert record["residual"] == pytest.approx(np.hypot(0.5, 0.2), abs=1e-12)


def test_project_malformed_line_exits_2(tmp_path, capsys):
    inp = tmp_path / "in.jsonl"
    inp.write_text(PARTITION_PROJECT_LINE + "\n{not json\n")
    assert run_cli(["project", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_project_dimension_mismatch_exits_2(tmp_path, capsys):
    inp = tmp_path / "in.jsonl"
    inp.write_text('{"id": "m", "relation": "neg", "m": 2, "quote": [0.4, 0.6, 0.1]}\n')
    assert run_cli(["project", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_certify_partition_case(tmp_path):
    inp = tmp_path / "comp.jsonl"
    inp.write_text(PARTITION_CERTIFY_LINE + "\n")
    out = tmp_path / "certs.jsonl"
    assert run_cli(["certify", str(inp), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"eps_star", "exposure_bound", "repaired", "binding"}
    assert record["eps_star"] == pytest.approx(0.75, abs=0.002)
    assert record["exposure_bound"] == pytest.approx(1.5, abs=0.004)
    assert np.allclose(record["repaired"], [0.015, 0.355, 0.295, 0.335], atol=1e-9)


def test_certify_round_trips_own_output(tmp_path):
    inp = tmp_path / "comp.jsonl"
    inp.write_text(PARTITION_CERTIFY_LINE + "\n")
    out = tmp_path / "certs.jsonl"
    run_cli(["certify", str(inp), "--out", str(out)])
    reparsed = parse_lines(out.read_text())
    assert len(reparsed) == 1
    assert json.loads(dumps(reparsed[0][1])) == reparsed[0][1]



def test_certify_refuses_a_negative_cut_coordinate(tmp_path, capsys):
    # -1 would index the last of the 3 coordinates if it were taken
    inp = tmp_path / "in.jsonl"
    inp.write_text('{"owners": [0, 1, 2], "coupling": [{"kind": "partition-sum", '
                   '"coords": [-1, 0], "b": 1.0}], "locals": [[0.3], [0.4], [0.9]]}\n')
    assert run_cli(["certify", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == "error: line 1: coords=[-1, 0] must be >= 0\n"


VALID_CUT = '{"kind": "negation-sum", "coords": [0, 1], "b": 1.0}'


@pytest.mark.parametrize("cut, message", [
    (VALID_CUT.replace("[0, 1]", "[0, 1.0]"), "coords takes JSON integers, got 1.0"),
    (VALID_CUT.replace("[0, 1]", "[0, true]"), "coords takes JSON integers, got true"),
    (VALID_CUT.replace("1.0}", "true}"), "b takes JSON numbers, got true"),
    (VALID_CUT.replace("negation-sum", "negation"), "unknown coupling kind 'negation'"),
    (VALID_CUT.replace("[0, 1]", "[0, 2]"),
     "coupling constraint references coordinates outside the joint space"),
])
def test_certify_reads_each_new_cut_shape_with_its_own_types(tmp_path, capsys, cut, message):
    """A record whose cuts Python finds equal to an earlier shape's (1 == 1.0 == True) is
    still read on its own, and the earliest malformed one is named with its message."""
    line = '{{"owners": [0, 1], "coupling": [{}], "locals": [[0.3], [0.4]]}}'
    valid, bad = line.format(VALID_CUT), line.format(cut)
    inp = tmp_path / "in.jsonl"
    out = tmp_path / "o.jsonl"
    inp.write_text("\n".join([valid, valid, bad, valid, bad]) + "\n")
    assert run_cli(["certify", str(inp), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line 3: {message}\n"
    inp.write_text("\n".join([valid, valid.replace("1.0}", "1}"), valid]) + "\n")
    assert run_cli(["certify", str(inp), "--out", str(out)]) == 0
    first, *rest = out.read_text().splitlines()
    assert rest == [first, first]  # b 1 and b 1.0 read as one number


def test_monitor_stream(tmp_path):
    inp = tmp_path / "stream.jsonl"
    lines = [
        dumps({"t": t, "eps_sq": 0.0625, "m": 2, "K": 8}) for t in range(1, 6)
    ]
    inp.write_text("\n".join(lines) + "\n")
    out = tmp_path / "mon.jsonl"
    assert run_cli(["monitor", str(inp), "--out", str(out), "--alpha-list", "0.05,1e-4"]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["t"] for r in records] == [1, 2, 3, 4, 5]
    assert set(records[0]["crossed"]) == {"0.05", "1e-4"}
    assert all(r["crossed"]["1e-4"] is None for r in records)
    # at the null center every lambda only pays its quadratic penalty
    assert records[0]["log_e_mix"] < 0


def test_monitor_rejects_bad_step(tmp_path, capsys):
    inp = tmp_path / "stream.jsonl"
    inp.write_text('{"t": 1, "eps_sq": 5.0, "m": 2, "K": 8}\n')
    assert run_cli(["monitor", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2


@pytest.mark.parametrize("field", ["m", "K"])
def test_monitor_refuses_an_integer_beyond_float_range(tmp_path, capsys, field):
    # m / (4.0 * K) would raise OverflowError on it, with no line named
    record = {"eps_sq": "0.1", "m": "2", "K": "8", field: "9" * 401}
    inp = tmp_path / "stream.jsonl"
    inp.write_text('{"eps_sq": %(eps_sq)s, "m": %(m)s, "K": %(K)s}\n' % record)
    assert run_cli(["monitor", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: {field} must be a positive integer within float range\n")


def test_simulate_deterministic_and_manifest(tmp_path, scenario):
    out1 = tmp_path / "bets1.jsonl"
    out2 = tmp_path / "bets2.jsonl"
    assert run_cli(["simulate", str(scenario), "--out", str(out1)]) == 0
    assert run_cli(["simulate", str(scenario), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "bets1.jsonl.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 3
    m2 = json.loads((tmp_path / "bets2.jsonl.manifest.json").read_text())
    assert manifest["config_hash"] == m2["config_hash"]


def test_simulate_config_errors_listed(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("relations = nonsense\npolicy = bogus\n")
    assert run_cli(["simulate", str(config), "--out", str(tmp_path / "b.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "relations" in err and "policy" in err


@pytest.mark.parametrize(
    "text, problem",
    [
        ("relations = partition\nm = 12\nn_draws = 0\n", "n_draws: must be >= 1"),
        ("relations = ladder\nm = 13\n", "m: must be between 2 and 12"),
    ],
    ids=["draws-0", "ladder-m13"],
)
def test_predict_refuses_a_bad_draw_count_or_arity_as_a_config_error(tmp_path, capsys,
                                                                      text, problem):
    config = tmp_path / "pred.cfg"
    config.write_text(text)
    assert run_cli(["predict", str(config), "--out", str(tmp_path / "p.jsonl")]) == 1
    assert capsys.readouterr().err == f"config error: {problem}\n"


REGRET_KEYS = [
    "n", "n_unique_yes", "rule", "mean_delta_brier", "ci_delta_brier", "mean_delta_log",
    "ci_delta_log", "mean_delta_log_all", "brier_naive", "brier_repaired", "brier_normalization",
    "murphy_repaired", "murphy_naive",
]
MURPHY_KEYS = ["rel", "res", "unc", "brier"]
GATE_KEYS = ["n", "auc", "harm_rate", "harm_threshold", "operating_points", "cv"]
OPERATING_POINT_KEYS = ["capture_target", "tau", "alert_rate", "capture", "fpr"]
CV_KEYS = ["capture_target", "mean_capture", "std_capture", "mean_alert_rate", "std_alert_rate"]


def test_regret_and_gate_pipeline(tmp_path, scenario):
    bets = tmp_path / "bets.jsonl"
    run_cli(["simulate", str(scenario), "--out", str(bets)])
    summary_path = tmp_path / "summary.json"
    assert run_cli(["regret", str(bets), "--out", str(summary_path), "--rule",
                    "proportional"]) == 0
    summary = json.loads(summary_path.read_text())
    assert summary["n"] == 48
    assert summary["brier_normalization"] == "per-coordinate-mean"
    assert list(summary) == REGRET_KEYS
    assert list(summary["murphy_repaired"]) == list(summary["murphy_naive"]) == MURPHY_KEYS
    gate_path = tmp_path / "gate.json"
    rc = run_cli(["gate", str(bets), "--out", str(gate_path),
                  "--capture-targets", "0.9,0.5"])
    assert rc == 0
    gate = json.loads(gate_path.read_text())
    assert gate["n"] == 48
    assert len(gate["operating_points"]) == 2
    assert 0 <= gate["auc"] <= 1
    assert list(gate) == GATE_KEYS
    assert [list(p) for p in gate["operating_points"]] == [OPERATING_POINT_KEYS] * 2
    assert [list(cv) for cv in gate["cv"]] == [CV_KEYS] * 2


def test_gate_and_regret_take_the_edges_of_their_ranges(tmp_path, scenario):
    bets = tmp_path / "bets.jsonl"
    assert run_cli(["simulate", str(scenario), "--out", str(bets)]) == 0
    gate_path = tmp_path / "gate.json"
    assert run_cli(["gate", str(bets), "--out", str(gate_path), "--capture-targets", "1"]) == 0
    assert [p["capture_target"] for p in json.loads(gate_path.read_text())["operating_points"]] \
        == [1.0]
    assert run_cli(["regret", str(bets), "--out", str(tmp_path / "r.json"), "--bins", "2"]) == 0


def one_harm_bets_text(n: int = 40) -> str:
    """``n`` neg bets where only the first repair helps, so there is a single harm bet."""
    return "".join(
        json.dumps({"clique_id": f"neg-{i:04d}", "seed": 0, "naive": [0.4, 0.6],
                    "repaired": [0.7, 0.3] if i == 0 else [0.4, 0.6], "labels": [1, 0],
                    "eps_star": 0.5 if i == 0 else 0.01 * i}) + "\n"
        for i in range(n)
    )


def test_gate_reports_null_cv_when_no_fold_can_be_scored(tmp_path):
    bets = tmp_path / "bets.jsonl"
    bets.write_text(one_harm_bets_text())
    gate_path = tmp_path / "gate.json"
    assert run_cli(["gate", str(bets), "--out", str(gate_path)]) == 0
    gate = json.loads(gate_path.read_text())
    assert (gate["n"], gate["harm_rate"]) == (40, 1 / 40)
    assert list(gate) == GATE_KEYS
    assert [list(cv) for cv in gate["cv"]] == [CV_KEYS] * 2
    assert [cv["capture_target"] for cv in gate["cv"]] == [0.9, 0.5]
    for cv in gate["cv"]:
        assert [cv[k] for k in ("mean_capture", "std_capture", "mean_alert_rate",
                                "std_alert_rate")] == [None] * 4


def test_predict_schema(tmp_path):
    config = tmp_path / "pred.cfg"
    config.write_text(
        "relations = neg\nn_cliques = 2\npanel_k = 4\nsigma = 0.1\nK = 8\n"
        "master_seed = 1\nn_draws = 500\n"
    )
    out = tmp_path / "pred.jsonl"
    assert run_cli(["predict", str(config), "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(records) == 2
    for r in records:
        assert list(r) == ["predicted", "observed", "ratio", "regime"]


def test_config_dir_env_var(tmp_path, monkeypatch, scenario):
    monkeypatch.setenv("COHERIFY_CONFIG_DIR", str(scenario.parent))
    out = tmp_path / "bets.jsonl"
    assert run_cli(["simulate", scenario.name, "--out", str(out)]) == 0


def test_seed_flag_overrides_config(tmp_path, scenario):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    run_cli(["--seed", "9", "simulate", str(scenario), "--out", str(out1)])
    run_cli(["simulate", str(scenario), "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


MIXED_PROJECT_LINES = [
    '{"id": "n", "relation": "neg", "m": 2, "quote": [0.84, 0.89]}',
    '{"id": "a", "relation": "and", "m": 3, "quote": [0.5, 0.5, 0.9]}',
    '{"id": "o", "relation": "or", "m": 3, "quote": [0.02, 0.03, 0.92]}',
    '{"id": "p", "relation": "partition", "m": 8, '
    '"quote": [0.39, 0.73, 0.67, 0.71, 0.1, 0.05, 0.2, 0.3]}',
    '{"id": "l", "relation": "ladder", "m": 6, "quote": [0.2, 0.7, 0.4, 0.9, 0.1, 0.3]}',
    '{"id": "r", "relation": "paraphrase", "m": 8, '
    '"quote": [0.1, 0.9, 0.4, 0.6, 1.0, 0.0, 0.3, 0.8]}',
]

MIXED_CERTIFY_LINES = [
    PARTITION_CERTIFY_LINE,
    '{"owners": [0, 1], "coupling": [{"kind": "negation-sum", "coords": [0, 1], "b": 1.0}], '
    '"locals": [[0.84], [0.89]]}',
    '{"owners": [0, 0, 1], "coupling": [{"kind": "ladder-chain", "coords": [0, 1, 2]}], '
    '"locals": [[0.2, 0.7], [0.9]]}',
    '{"owners": [0, 1, 1], "coupling": [{"kind": "equality", "coords": [0, 1, 2]}], '
    '"locals": [[0.1], [0.9, 0.4]]}',
]


def test_record_streams_keep_input_order_and_jobs_is_gone(tmp_path):
    for command, lines in (("project", MIXED_PROJECT_LINES), ("certify", MIXED_CERTIFY_LINES)):
        ordered = list(reversed(lines)) + lines
        inp = tmp_path / f"{command}.jsonl"
        inp.write_text("\n".join(ordered) + "\n")
        out = tmp_path / f"{command}.out.jsonl"
        assert run_cli([command, str(inp), "--out", str(out)]) == 0
        one_by_one = []
        for i, line in enumerate(ordered):
            single, single_out = tmp_path / f"{command}{i}.jsonl", tmp_path / f"{command}{i}.out"
            single.write_text(line + "\n")
            assert run_cli([command, str(single), "--out", str(single_out)]) == 0
            one_by_one.append(single_out.read_text())
        assert out.read_text() == "".join(one_by_one)
    with pytest.raises(SystemExit) as exc:
        run_cli(["--jobs", "4", "project", str(tmp_path / "project.jsonl")])
    assert exc.value.code == 2


EMPTY_COUPLING_LINE = (
    '{"owners": [0, 1], "coupling": [{"kind": "partition-sum", "coords": [0, 1], "b": 3.0}], '
    '"locals": [[0.5], [0.5]]}'
)
MISCOUNTED_LINE = '{"owners": [0, 1], "coupling": [], "locals": [[0.3]]}'
MISSHAPEN_LINE = '{"owners": [0, 0, 1], "coupling": [], "locals": [[0.3], [0.4]]}'
ZERO_NORMAL_LINE = (
    '{"owners": [0, 1], "coupling": [{"kind": "frechet-halfspace", "coords": [0, 1], '
    '"a": [0, 0], "b": 1.0}], "locals": [[0.5], [0.5]]}'
)
ZERO_NORMAL_MESSAGE = "constraint c0:frechet-halfspace:hs has zero normal"
PARTITION_MISCOUNTED_LINE = PARTITION_CERTIFY_LINE.replace(", [0.71]]", "]")
PARTITION_TOO_LONG_LINE = PARTITION_CERTIFY_LINE.replace("[0.73]", "[0.73, 0.1]")
EMPTY_MESSAGE = ("empty constraint set: no point meets c0:partition-sum:sum, box:r1<=1, "
                 "box:r2<=1")


@pytest.mark.parametrize(
    "lines, expected",
    [
        ([EMPTY_COUPLING_LINE, MISCOUNTED_LINE], f"line 2: {EMPTY_MESSAGE}"),
        ([MISCOUNTED_LINE, EMPTY_COUPLING_LINE], "line 2: 2 owners referenced but 1 local quotes given"),
        ([EMPTY_COUPLING_LINE, MISSHAPEN_LINE], f"line 2: {EMPTY_MESSAGE}"),
        ([MISSHAPEN_LINE, EMPTY_COUPLING_LINE], "line 2: component 0 quote has shape (1,), needs (2,)"),
        ([ZERO_NORMAL_LINE], f"line 2: {ZERO_NORMAL_MESSAGE}"),
        ([ZERO_NORMAL_LINE, EMPTY_COUPLING_LINE], f"line 2: {ZERO_NORMAL_MESSAGE}"),
        ([EMPTY_COUPLING_LINE, ZERO_NORMAL_LINE], f"line 2: {EMPTY_MESSAGE}"),
        ([ZERO_NORMAL_LINE, MISCOUNTED_LINE], f"line 2: {ZERO_NORMAL_MESSAGE}"),
        # the failing record between good records of its own shape, assembled together
        ([PARTITION_CERTIFY_LINE, PARTITION_MISCOUNTED_LINE, PARTITION_CERTIFY_LINE],
         "line 3: 4 owners referenced but 3 local quotes given"),
        ([PARTITION_CERTIFY_LINE, PARTITION_TOO_LONG_LINE, PARTITION_CERTIFY_LINE],
         "line 3: component 1 quote has shape (2,), needs (1,)"),
        ([PARTITION_TOO_LONG_LINE, EMPTY_COUPLING_LINE],
         "line 2: component 1 quote has shape (2,), needs (1,)"),
        ([EMPTY_COUPLING_LINE, PARTITION_TOO_LONG_LINE], f"line 2: {EMPTY_MESSAGE}"),
        ([ZERO_NORMAL_LINE, PARTITION_CERTIFY_LINE, ZERO_NORMAL_LINE],
         f"line 2: {ZERO_NORMAL_MESSAGE}"),
        # a later line of invalid JSON does not come before an earlier failing record
        ([EMPTY_COUPLING_LINE, "{not json"], f"line 2: {EMPTY_MESSAGE}"),
        ([MISCOUNTED_LINE, "{not json"], "line 2: 2 owners referenced but 1 local quotes given"),
        # a composition with no joint coordinate
        (['{"owners": [], "locals": []}'],
         "line 2: a composition needs at least one joint coordinate, got joint_dim=0"),
        ([EMPTY_COUPLING_LINE, '{"owners": [], "coupling": [], "locals": []}'],
         f"line 2: {EMPTY_MESSAGE}"),
        (['{"owners": [], "coupling": [], "locals": []}', EMPTY_COUPLING_LINE],
         "line 2: a composition needs at least one joint coordinate, got joint_dim=0"),
    ],
)
def test_certify_reports_the_earliest_failing_record(tmp_path, capsys, lines, expected):
    inp = tmp_path / "in.jsonl"
    inp.write_text("\n".join([PARTITION_CERTIFY_LINE] + lines + [PARTITION_CERTIFY_LINE]) + "\n")
    assert run_cli(["certify", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("command, first, message", [
    ("project", '{"id": "q", "relation": "neg", "m": 2, "quote": [0.4]}', "quote length 1 != m=2"),
    ("monitor", '{"eps_sq": 0.1, "m": 2}', "K is missing"),
])
def test_a_failing_record_comes_before_a_later_invalid_json_line(tmp_path, capsys, command,
                                                                   first, message):
    inp = tmp_path / "in.jsonl"
    inp.write_text(first + "\n{bad\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


def test_project_matches_project_relation_for_every_relation(tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text("\n".join(MIXED_PROJECT_LINES) + "\n")
    out = tmp_path / "out.jsonl"
    assert run_cli(["project", str(inp), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 6
    for line, record in zip(MIXED_PROJECT_LINES, records):
        given = json.loads(line)
        exact = project_relation(Relation(given["relation"], given["m"]), given["quote"])
        assert record["projected"] == [float(v) for v in exact.projected]
        assert record["residual"] == exact.residual
        assert record["iterations"] == exact.iterations
        assert record["converged"] is exact.converged


@pytest.mark.parametrize(
    "command, line",
    [
        ("project", '{"id": "p", "relation": "partition", "m": 3, "quote": [0.2, NaN, 0.5]}'),
        ("certify", '{"owners": [0, 1], "coupling": [], "locals": [[0.3], [Infinity]]}'),
        ("monitor", '{"t": 2, "eps_sq": -Infinity, "m": 2, "K": 8}'),
        ("monitor", '{"t": 2, "eps_sq": 1e400, "m": 2, "K": 8}'),
    ],
)
def test_non_finite_input_exits_2_with_line(tmp_path, capsys, command, line):
    inp = tmp_path / "in.jsonl"
    good = {"project": PARTITION_PROJECT_LINE, "certify": PARTITION_CERTIFY_LINE,
            "monitor": '{"t": 1, "eps_sq": 0.0625, "m": 2, "K": 8}'}[command]
    inp.write_text(good + "\n" + line + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "line 2: non-finite number" in capsys.readouterr().err


BET_TEMPLATE = ('{{"clique_id": "n", "seed": 0, "naive": [0.4, 0.6], "repaired": [0.5, 0.5], '
                '"labels": [1, 0], "eps_star": 0.1}}')


def _integer_cases():
    """``(command, field, template, value, bad)``: a record template whose ``field``
    takes the JSON integer ``value``, and ``bad``, a token that ``int()`` would read as
    that integer, for every integer field of the record formats."""
    templates = [
        ("project", "m",
         '{{"id": "p", "relation": "partition", "m": {}, "quote": [0.2, 0.3, 0.5]}}', 3),
        ("certify", "owners", '{{"owners": [0, {}], "coupling": [], "locals": [[0.3], [0.6]]}}', 1),
        ("certify", "coords", '{{"owners": [0, 1], "coupling": [{{"kind": "equality", '
                              '"coords": [0, {}], "b": 0.0}}], "locals": [[0.3], [0.6]]}}', 1),
        ("monitor", "m", '{{"t": 2, "eps_sq": 0.0625, "m": {}, "K": 8}}', 2),
        ("monitor", "K", '{{"t": 2, "eps_sq": 0.0625, "m": 2, "K": {}}}', 8),
        ("project", "labels", '{{"id": "p", "relation": "partition", "m": 3, "labels": [0, {}, 0], '
                              '"quote": [0.2, 0.3, 0.5]}}', 1),
        ("regret", "seed", BET_TEMPLATE.replace('"seed": 0', '"seed": {}'), 0),
        ("regret", "labels", BET_TEMPLATE.replace('[1, 0]', '[{}, 0]'), 1),
    ]
    for command, field, template, value in templates:
        bads = [f'"{value}"', f"{value}.9", f"{value}.0"] + (["true"] if value == 1 else [])
        for bad in bads:
            yield pytest.param(command, field, template, value, bad, id=f"{command}-{field}-{bad}")


@pytest.mark.parametrize("command, field, template, value, bad", _integer_cases())
def test_integer_fields_take_only_json_integers(tmp_path, capsys, command, field, template, value,
                                                bad):
    # int() would read each of these as an integer and go on with it
    inp = tmp_path / "in.jsonl"
    good = {"project": PARTITION_PROJECT_LINE, "certify": PARTITION_CERTIFY_LINE,
            "monitor": '{"t": 1, "eps_sq": 0.0625, "m": 2, "K": 8}',
            "regret": BET_TEMPLATE.replace("{{", "{").replace("}}", "}")}[command]
    inp.write_text(good + "\n" + template.format(bad) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: line 2: {field} takes JSON integers, got {bad}\n"
    inp.write_text(good + "\n" + template.format(value) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 0


FRECHET_CERTIFY = ('{{"owners": [0, 1], "coupling": [{{"kind": "frechet-halfspace", "coords": [0, 1], '
                   '"b": 1, "a": {}}}], "locals": [[0.3], [0.6]]}}')


@pytest.mark.parametrize("command, template, value, bad, error", [
    pytest.param("project", '{{"id": "p", "relation": "partition", "m": 2, "quote": {}}}',
                 "[0.5, 0.5]", '["nan", 0.5]', 'quote takes JSON numbers, got "nan"',
                 id="project-quote"),
    pytest.param("certify", '{{"owners": [0, 1], "coupling": [], "locals": [[0.3], {}]}}',
                 "[1]", '["0.6"]', 'locals takes JSON numbers, got "0.6"', id="certify-locals"),
    pytest.param("certify", '{{"owners": [0, 1], "coupling": [{{"kind": "partition-sum", '
                 '"coords": [0, 1], "b": {}}}], "locals": [[0.3], [0.6]]}}',
                 "1", '"nan"', 'b takes JSON numbers, got "nan"', id="certify-b"),
    pytest.param("certify", FRECHET_CERTIFY, "[1, 1.0]", '["inf", 1]',
                 'a takes JSON numbers, got "inf"', id="certify-a"),
    pytest.param("regret", BET_TEMPLATE.replace("[0.4, 0.6]", "{}"), "[0.4, 0.6]", '"01"',
                 'naive takes a JSON array of numbers, got "01"', id="regret-naive"),
    pytest.param("regret", BET_TEMPLATE.replace("[0.5, 0.5]", "{}"), "[1, 0]", "[true, false]",
                 "repaired takes JSON numbers, got true", id="regret-repaired"),
    pytest.param("regret", BET_TEMPLATE.replace("0.1}}", "{}}}"), "0", '"inf"',
                 'eps_star takes JSON numbers, got "inf"', id="regret-eps_star"),
    pytest.param("monitor", '{{"t": 2, "eps_sq": {}, "m": 2, "K": 8}}', "0", "true",
                 "eps_sq takes JSON numbers, got true", id="monitor-eps_sq"),
])
def test_number_fields_take_only_json_numbers(tmp_path, capsys, command, template, value, bad,
                                              error):
    # float() or numpy would read each of these as a number, or a string as a list of them
    inp = tmp_path / "in.jsonl"
    good = {"project": PARTITION_PROJECT_LINE, "certify": PARTITION_CERTIFY_LINE,
            "monitor": '{"t": 1, "eps_sq": 0.0625, "m": 2, "K": 8}',
            "regret": BET_TEMPLATE.format()}[command]
    inp.write_text(good + "\n" + template.format(bad) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: line 2: {error}\n"
    inp.write_text(good + "\n" + template.format(value) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 0


@pytest.mark.parametrize("command, line, error", [
    pytest.param("project", '{"relation": "partition", "m": 2, "questions": ["a", "b"]}',
                 "id is missing", id="project-id-missing"),
    pytest.param("project", '{"id": "p", "relation": "partition", "m": 2}', "quote is missing",
                 id="project-quote-missing"),
    pytest.param("project", '{"id": ["x"], "relation": "partition", "m": 2, "quote": [0.5, 0.5]}',
                 'id takes JSON strings, got ["x"]', id="project-id"),
    pytest.param("project", '{"id": "p", "relation": 3, "m": 2, "quote": [0.5, 0.5]}',
                 "relation takes JSON strings, got 3", id="project-relation"),
    pytest.param("project", '{"id": "p", "relation": "partition", "m": 3, "questions": "abc", '
                 '"quote": [0.2, 0.3, 0.5]}', 'questions takes a JSON array of strings, got "abc"',
                 id="project-questions"),
    pytest.param("certify", '{"owners": [0, 1], "coupling": {"kind": "equality", "coords": [0, 1]}, '
                 '"locals": [[0.3], [0.6]]}', 'coupling takes a JSON array of objects, got '
                 '{"kind": "equality", "coords": [0, 1]}', id="certify-coupling"),
    pytest.param("certify", '{"owners": [0, 1], "coupling": [{"kind": ["negation-sum"], '
                 '"coords": [0, 1]}], "locals": [[0.3], [0.6]]}',
                 'kind takes JSON strings, got ["negation-sum"]', id="certify-kind"),
    pytest.param("certify", '{"owners": [0, 1], "coupling": [{"kind": "negation-sum", '
                 '"coords": [0, 1], "b": null}], "locals": [[0.3], [0.6]]}',
                 "b takes JSON numbers, got null", id="certify-b-null"),
    pytest.param("certify", '{"owners": [0, 1], "coupling": [], "locals": [0.3, 0.6]}',
                 "locals takes a JSON array of numbers, got 0.3", id="certify-locals-row"),
    pytest.param("monitor", '{"eps_sq": 0.0625, "K": 8}', "m is missing", id="monitor-m-missing"),
    pytest.param("regret", BET_TEMPLATE.format().replace('"n"', "5"),
                 "clique_id takes JSON strings, got 5", id="regret-clique_id"),
])
def test_string_array_and_object_fields_take_only_their_json_type(tmp_path, capsys, command, line,
                                                                   error):
    # str() and tuple() would read each of these as something, or name no field
    inp = tmp_path / "in.jsonl"
    good = {"project": PARTITION_PROJECT_LINE, "certify": PARTITION_CERTIFY_LINE,
            "monitor": MONITOR_LINE, "regret": BET_TEMPLATE.format()}[command]
    inp.write_text(good + "\n" + line + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: line 2: {error}\n"


@pytest.mark.parametrize("command", ["project", "certify", "monitor", "regret", "gate"])
def test_a_line_that_is_no_json_object_exits_2(tmp_path, capsys, command):
    inp = tmp_path / "in.jsonl"
    inp.write_text("[1, 2]\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == "error: line 1: a record is a JSON object, got [1, 2]\n"


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
@pytest.mark.parametrize("command, field", [("project", "id"), ("certify", "clique_id"),
                                            ("monitor", "note"), ("regret", "clique_id")])
def test_a_raw_unicode_line_break_inside_a_string_stays_in_its_record(tmp_path, capsys, command,
                                                                      field, separator):
    good = {"project": PARTITION_PROJECT_LINE, "certify": PARTITION_CERTIFY_LINE,
            "monitor": MONITOR_LINE, "regret": BET_TEMPLATE.format()}[command]
    record = dict(json.loads(good), **{field: f"a{separator}b"})
    raw, escaped = json.dumps(record, ensure_ascii=False), json.dumps(record)
    assert len(raw.splitlines()) == 2  # str.splitlines breaks the record in two
    inp, out, want = tmp_path / "in.jsonl", tmp_path / "o.jsonl", tmp_path / "want.jsonl"
    inp.write_text(escaped + "\n" + good + "\n", encoding="utf-8")
    assert run_cli([command, str(inp), "--out", str(want)]) == 0
    inp.write_text(raw + "\n" + good + "\n", encoding="utf-8")
    assert run_cli([command, str(inp), "--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()
    # a later malformed line is named by the newlines before it
    inp.write_text(good + "\n" + raw + "\n" + good + "\n{bad\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli([command, str(inp), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: line 4: invalid JSON (Expecting property")


def _bets(n: int) -> list[str]:
    return [json.dumps({"clique_id": f"n{i}", "seed": i, "naive": [p, 1.0 - p],
                        "repaired": [0.5, 0.5], "labels": [1, 0] if i % 3 else [0, 1],
                        "eps_star": abs(p - 0.5)})
            for i, p in enumerate(0.05 + 0.9 * i / n for i in range(n))]


@pytest.mark.parametrize("command", ["regret", "gate"])
def test_bet_labels_other_than_0_or_1_exit_2_naming_the_line(tmp_path, capsys, command):
    lines = _bets(60)
    inp = tmp_path / "bets.jsonl"
    inp.write_text("\n".join(lines) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.json")]) == 0
    lines[30] = json.dumps(dict(json.loads(lines[30]), labels=[2, 0]))
    inp.write_text("\n".join(lines) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "error: line 31: labels must be 0/1\n"


@pytest.mark.parametrize("command", ["regret", "gate"])
def test_a_bet_with_no_coordinates_exits_2_naming_the_line(tmp_path, capsys, command):
    lines = _bets(60)
    lines[41] = json.dumps(dict(json.loads(lines[41]), naive=[], repaired=[], labels=[]))
    inp = tmp_path / "bets.jsonl"
    inp.write_text("\n".join(lines) + "\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "error: line 42: a bet needs at least one coordinate\n"


@pytest.mark.parametrize("command", ["regret", "gate"])
@pytest.mark.parametrize("side, quote, message", [
    ("naive", [1.5, 0.2], "naive quote 1.5 is outside [0, 1]"),
    ("naive", [0.3, -0.25], "naive quote -0.25 is outside [0, 1]"),
    ("repaired", [0.5, 1.0000000000000002], "repaired quote 1.0000000000000002 is outside [0, 1]"),
])
def test_a_bet_quote_outside_the_unit_interval_exits_2_naming_the_line(tmp_path, capsys, command,
                                                                       side, quote, message):
    lines = _bets(60)
    inp = tmp_path / "bets.jsonl"
    for edge in ([0.0, 1.0], [1.0, 0.0]):  # the interval's ends are quotes
        lines[12] = json.dumps(dict(json.loads(lines[12]), **{side: edge}))
        inp.write_text("\n".join(lines) + "\n")
        assert run_cli([command, str(inp), "--out", str(tmp_path / "o.json")]) == 0
    lines[12] = json.dumps(dict(json.loads(lines[12]), **{side: quote}))
    inp.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"error: line 13: {message}\n"


def test_monitor_takes_records_in_line_order_and_ignores_t(tmp_path):
    steps = [{"eps_sq": e, "m": m, "K": k}
             for e, m, k in [(0.0625, 2, 8), (1.5, 2, 8), (1.9, 2, 8), (0.2, 4, 6)]]

    def output(ts) -> bytes:
        records = [dict(step, **({} if t is None else {"t": t})) for step, t in zip(steps, ts)]
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        inp.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli(["monitor", str(inp), "--out", str(out)]) == 0
        return out.read_bytes()

    plain = output([None] * 4)
    assert [json.loads(line)["t"] for line in plain.splitlines()] == [1, 2, 3, 4]
    for ts in (["zz"] * 4, [4, 2, 3, 1], [1, None, 3.5, None]):
        assert output(ts) == plain, ts


def test_float_serialization_17_digits_round_trip():
    value = 0.1234567890123456789
    text = dumps({"x": value})
    assert json.loads(text)["x"] == value


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(value=_json_values)
def test_dumps_round_trips_arbitrary_json(value):
    assert json.loads(dumps(value)) == value


def reference_dumps(obj) -> str:
    """``dumps`` as it wrote every value one recursive call at a time."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("refusing to serialize non-finite float")
        if obj == int(obj) and abs(obj) < 1e16:
            return f"{obj:.1f}"
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {reference_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return reference_dumps(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


_EDGE_FLOATS = [0.0, -0.0, 1.0, 9999999999999998.0, 1e16, 1e17, 5e-324, -5e-324, 2.5, 1e300]
_floats = (st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-(2**60), 2**60).map(float))
_strings = (st.sampled_from(["", "é", "日本", "\x00\n\t\"\\", "\ud83d\ude00", "\u2028", "plain"])
            | st.text(max_size=8))
_float_lists = st.lists(_floats | _floats.map(np.float64) | st.integers(-5, 5).map(np.int64),
                        max_size=6)
_emitted = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _floats | _strings
    | st.lists(_floats, max_size=6) | _float_lists,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_strings, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=_emitted)
def test_dumps_writes_the_bytes_of_the_recursive_emitter(value):
    assert dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("value", [[], (), [[]], {"": []}, list(_EDGE_FLOATS), tuple(_EDGE_FLOATS),
                                   [np.float64(0.1), 0.2, np.int64(3)], {"é\n": ["日本", -0.0]}])
def test_dumps_writes_the_edge_cases_of_the_recursive_emitter(value):
    assert dumps(value) == reference_dumps(value)
    with pytest.raises(ValueError, match="non-finite"):
        dumps([0.5, float("nan")])


def _written(write, records):
    """``write(records)``, or the type and message of the error it raised."""
    try:
        return write(records)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_keys = st.sampled_from(["a", "%s", "100%", "é", ""])
_values = (_floats | _strings | st.none() | st.booleans() | st.integers(-(2**70), 2**70)
           | st.sampled_from([1e16, 1e17, 5e-324, float("nan"), float("inf"), -float("inf"),
                              np.float64(1.0), np.float64("nan"), np.int64(7), np.bool_(True),
                              {"b": -0.0, "%d": [1.0]}, object()])
           | st.lists(_floats, max_size=4) | st.lists(_floats, max_size=4).map(tuple)
           | st.lists(st.sampled_from([0.5, 1.0, float("nan"), np.float64(0.25)]), max_size=3)
           | st.lists(_strings, max_size=3))
_columns = st.lists(_keys, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.integers(0, 8).flatmap(lambda n: st.fixed_dictionaries(
        {k: st.lists(_values, min_size=n, max_size=n) for k in keys})))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(columns=_columns)
@example(columns={"a": [0.5, 1.0, float("nan")], "b": [object(), 1.0, 1.0]})
@example(columns={"a": [0.5, -0.0, 1e16], "%s": [[1.0], 2, ("x", 0.25)]})
def test_dump_columns_writes_the_records_one_by_one(columns):
    """Bytes, or the type and message of the first record's error, as ``dumps`` per record."""
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert _written(dump_columns, columns) == _written(dump_lines, records)


def test_commands_write_the_library_records(tmp_path):
    """The columns ``project``, ``certify`` and ``simulate`` write are the library's
    records: ``project_relation``'s result, ``Certificate.to_json`` and
    ``BetRecord.to_json``, byte for byte (a project field renamed in the CLI fails)."""
    engine = Path(__file__).parent / "golden" / "engine"
    out = tmp_path / "out.jsonl"
    source = engine / "project.jsonl"
    assert run_cli(["project", str(source), "--out", str(out)]) == 0
    want = []
    for _, record in parse_lines(source.read_text()):
        clique = Clique.from_json(record)
        result = project_relation(clique.relation, record["quote"])
        want.append({"id": clique.id, **asdict(result), "projected": result.projected.tolist()})
    assert out.read_text() == dump_lines(want)
    assert "[0.0, 1.0]" in out.read_text()
    for name in ("catalog", "disjoint", "generic"):  # catalog, multi-block and generic blocks
        source = engine / f"certify-{name}.jsonl"
        assert run_cli(["certify", str(source), "--out", str(out)]) == 0
        shapes: dict = {}
        items = [composition_from_json(r, shapes) for _, r in parse_lines(source.read_text())]
        assert out.read_text() == dump_lines(c.to_json() for c in residual_batch(items))
    scenario = Path(__file__).parent / "golden" / "study" / "scenario.cfg"
    assert run_cli(["simulate", str(scenario), "--out", str(out)]) == 0
    config = SimConfig.parse(scenario.read_text())
    records = run_ensemble(config.build_cliques(), config.build_model(), config.build_policy(),
                           config.n_seeds, config.master_seed)
    bets = to_bet_records(records, config.naive_operator, config.repaired_operator)
    text = out.read_text()
    assert text == dump_lines(b.to_json() for b in bets)
    assert "0.0" in text and "1.0" in text


def test_simulate_ecdf_csv(tmp_path, scenario):
    bets = tmp_path / "bets.jsonl"
    csv = tmp_path / "ecdf.csv"
    assert run_cli(["simulate", str(scenario), "--out", str(bets),
                    "--ecdf-out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "relation,eps_star,cum_fraction"
    assert len(lines) == 1 + 48  # one point per (clique, seed) cell
    last = lines[-1].split(",")
    assert last[0] == "partition"
    assert float(last[2]) == 1.0


def test_rule_flags_take_exactly_the_library_allocation_rules(capsys):
    from coherify.cli import build_parser
    from coherify.decision import ALLOCATION_KINDS

    parser = build_parser()
    for command in ("regret", "gate"):
        for rule in ALLOCATION_KINDS:
            assert parser.parse_args([command, "bets.jsonl", "--rule", rule]).rule == rule
        with pytest.raises(SystemExit):
            parser.parse_args([command, "bets.jsonl", "--rule", "kelly"])
    assert "invalid choice: 'kelly'" in capsys.readouterr().err


PARSE_CASES = [  # (argv, the command the lean path builds alone, or None for the full parser)
    (["project", "in.jsonl", "--out", "o.jsonl"], "project"),
    (["certify", "-", "--out", "o.jsonl"], "certify"),
    (["monitor", "in.jsonl", "--alpha-list", "0.05,0.01", "--out", "o.jsonl"], "monitor"),
    (["simulate", "s.cfg", "--ecdf-out", "e.csv", "--out", "b.jsonl"], "simulate"),
    (["regret", "b.jsonl", "--rule", "max-entropy", "--bins", "5", "--out", "r.json"], "regret"),
    (["gate", "b.jsonl", "--rule", "truncated-kelly", "--capture-targets", "0.8",
      "--out", "g.json"], "gate"),
    (["predict", "s.cfg", "--out", "p.jsonl"], "predict"),
    (["--seed", "3", "--tol", "1e-6", "--manifest-out", "m.json", "regret", "b.jsonl"], "regret"),
    (["--tol=1e-9", "certify", "in.jsonl"], "certify"),
    (["--se", "3", "predict", "s.cfg"], "predict"),
    (["--seed=4", "--m", "m.json", "simulate", "s.cfg"], "simulate"),
    (["--manifest-out", "regret", "certify", "in.jsonl"], "certify"),
    (["regret", "b.jsonl", "--seed", "3"], "regret"),  # a global flag after the command
    (["regret", "-h"], "regret"),
    (["--seed", "3", "gate", "--help"], "gate"),
    (["-h"], None),
    (["-h", "regret", "b.jsonl"], None),
    (["frobnicate", "in.jsonl"], None),
    ([], None),
    (["--seed", "3"], None),
    (["--unknown", "project", "in.jsonl"], None),
    (["--", "project", "in.jsonl"], None),
    (["in.jsonl", "project"], None),
    (["regret"], "regret"),
    (["regret", "b.jsonl", "--rule", "kelly"], "regret"),
    (["gate", "b.jsonl", "--capture-targets", "2"], "gate"),
    (["--tol", "-1", "certify", "in.jsonl"], "certify"),
    (["--seed", "x", "gate", "b.jsonl"], "gate"),
    (["--seed", "-h", "gate", "b.jsonl"], "gate"),
    (["--seed", "-1", "gate", "b.jsonl"], "gate"),
    (["--seed", "--tol", "1", "monitor", "in.jsonl"], None),
    (["project", "in.jsonl", "--bins", "3"], "project"),
]


@pytest.mark.parametrize("argv, command", PARSE_CASES, ids=lambda v: " ".join(v)
                         if isinstance(v, list) else None)
def test_the_lean_parser_parses_as_the_full_one(capsys, argv, command):
    from coherify.cli import _command_of, build_parser

    def parse(parser):
        try:
            result = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            result = None, exc.code
        return result, capsys.readouterr()

    assert _command_of(argv) == command
    assert parse(build_parser(only=command)) == parse(build_parser())


MONITOR_LINE = '{"t": 1, "eps_sq": 0.0625, "m": 2, "K": 8}'


@pytest.mark.parametrize(
    "flags, flag, message",
    [
        (["monitor", "--alpha-list", "1.5"], "--alpha-list",
         "each level must be in (0, 1), got '1.5'"),
        (["monitor", "--alpha-list", "0"], "--alpha-list", "each level must be in (0, 1), got '0'"),
        (["monitor", "--alpha-list", "0.05,nan"], "--alpha-list",
         "each level must be in (0, 1), got 'nan'"),
        (["--tol", "-1", "certify"], "--tol", "tol=-1.0 must be a finite number >= 0"),
        (["--tol", "nan", "certify"], "--tol", "tol=nan must be a finite number >= 0"),
        (["gate", "--capture-targets", "1.5"], "--capture-targets",
         "capture target 1.5 is outside (0, 1]"),
        (["gate", "--capture-targets", "0"], "--capture-targets",
         "capture target 0.0 is outside (0, 1]"),
        (["gate", "--capture-targets", "0.9,nan"], "--capture-targets",
         "capture target nan is outside (0, 1]"),
        (["regret", "--bins", "0"], "--bins", "must be an integer >= 2, got '0'"),
        (["regret", "--bins", "1"], "--bins", "must be an integer >= 2, got '1'"),
        (["regret", "--bins", "2.5"], "--bins", "invalid _bins value: '2.5'"),
    ],
    ids=["alpha-above-1", "alpha-0", "alpha-nan", "tol-negative", "tol-nan",
         "target-above-1", "target-0", "target-nan", "bins-0", "bins-1", "bins-fraction"],
)
def test_out_of_range_flags_are_usage_errors_before_any_input(tmp_path, capsys, monkeypatch,
                                                              flags, flag, message):
    import coherify.cli as cli

    inp = tmp_path / "in.jsonl"
    inp.write_text((MONITOR_LINE if "monitor" in flags else PARTITION_CERTIFY_LINE) + "\n")
    read = []
    monkeypatch.setattr(cli, "_read_text", lambda path: read.append(path) or inp.read_text())
    out = tmp_path / "o.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(flags + [str(inp), "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"argument {flag}: {message}\n" in capsys.readouterr().err
    assert read == [] and not out.exists()


MANIFEST_INPUTS = {"project": {"input"}, "certify": {"input"}, "monitor": {"input"},
                   "simulate": set(), "regret": {"bets"}, "gate": {"bets"}, "predict": set()}
BAD_BET_LINE = '{"clique_id": "x", "seed": 0}'


@pytest.fixture(scope="module")
def manifest_sources(tmp_path_factory):
    """Per command: a good source, a malformed one, and the exit code the malformed one gets."""
    d = tmp_path_factory.mktemp("sources")
    files = {
        "project": PARTITION_PROJECT_LINE + "\n",
        "project.bad": PARTITION_PROJECT_LINE + "\n"
                       '{"id": "p", "relation": "partition", "m": 3, "quote": [0.2, 0.5]}\n',
        "certify": PARTITION_CERTIFY_LINE + "\n",
        "certify.bad": PARTITION_CERTIFY_LINE + "\n" + MISCOUNTED_LINE + "\n",
        "monitor": MONITOR_LINE + "\n",
        "monitor.bad": MONITOR_LINE + '\n{"t": 2, "eps_sq": 5.0, "m": 2, "K": 8}\n',
        "scenario": "relations = partition\nm = 4\nn_cliques = 12\nsigma = 0.15\n"
                    "bias_scale = 0.1\nmaster_seed = 3\n",
        "predict": "relations = neg\nn_cliques = 2\nmaster_seed = 1\nn_draws = 50\n",
        "config.bad": "relations = nonsense\n",
    }
    for name, text in files.items():
        (d / name).write_text(text)
    assert main(["simulate", str(d / "scenario"), "--out", str(d / "bets")]) == 0
    bets = (d / "bets").read_text()
    (d / "bets.bad").write_text(bets.splitlines()[0] + "\n" + BAD_BET_LINE + "\n")
    return {
        "project": (d / "project", d / "project.bad", 2),
        "certify": (d / "certify", d / "certify.bad", 2),
        "monitor": (d / "monitor", d / "monitor.bad", 2),
        "simulate": (d / "scenario", d / "config.bad", 1),
        "regret": (d / "bets", d / "bets.bad", 2),
        "gate": (d / "bets", d / "bets.bad", 2),
        "predict": (d / "predict", d / "config.bad", 1),
    }


@pytest.mark.parametrize("command", list(MANIFEST_INPUTS))
def test_every_command_writes_its_manifest_only_where_asked(tmp_path, monkeypatch, capsys,
                                                            manifest_sources, command):
    good, bad, bad_exit = manifest_sources[command]
    monkeypatch.chdir(tmp_path)

    def written():
        return sorted(p.name for p in tmp_path.iterdir())

    # --out FILE: the output and its sidecar
    assert run_cli(["--seed", "7", command, str(good), "--out", "o.txt"]) == 0
    assert written() == ["o.txt", "o.txt.manifest.json"]
    manifest = json.loads((tmp_path / "o.txt.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["master_seed"] == 7
    assert set(manifest["input_digests"]) == MANIFEST_INPUTS[command]
    # stdout with --manifest-out PATH: PATH only
    capsys.readouterr()
    assert run_cli(["--seed", "7", "--manifest-out", "m.json", command, str(good)]) == 0
    assert capsys.readouterr().out == (tmp_path / "o.txt").read_text()
    assert written() == ["m.json", "o.txt", "o.txt.manifest.json"]
    explicit = json.loads((tmp_path / "m.json").read_text())
    assert {**explicit, "timestamp": None} == {**manifest, "timestamp": None}
    # stdout alone: no manifest
    assert run_cli(["--seed", "7", command, str(good)]) == 0
    assert written() == ["m.json", "o.txt", "o.txt.manifest.json"]
    # a malformed record or config: neither output nor manifest
    assert run_cli([command, str(bad), "--out", "bad.txt"]) == bad_exit
    assert run_cli(["--manifest-out", "bad.json", command, str(bad)]) == bad_exit
    assert written() == ["m.json", "o.txt", "o.txt.manifest.json"]


def _sources(command: str, scale: int) -> str:
    """A small good source for ``command``, ``scale`` times over."""
    if command in ("simulate", "predict"):  # scale the cliques
        return {"simulate": "relations = partition\nm = 4\nn_seeds = 2\nmaster_seed = 3\n",
                "predict": "relations = neg\nmaster_seed = 1\nn_draws = 50\n"}[command] \
            + f"n_cliques = {3 * scale}\n"
    if command in ("regret", "gate"):
        return "\n".join(_bets(50 * scale)) + "\n"
    line = {"project": PARTITION_PROJECT_LINE, "certify": PARTITION_CERTIFY_LINE,
            "monitor": MONITOR_LINE}[command]
    return (line + "\n") * 10 * scale


@pytest.mark.parametrize("command", list(MANIFEST_INPUTS))
def test_a_command_leaves_the_same_cyclic_garbage_at_every_input_size(tmp_path, command):
    """``main`` pauses the cyclic collector, so what a command leaves for it must not grow
    with its input. A first call is not counted: the first ``regret`` leaves more."""
    left = []
    for scale in (1, 1, 4):
        inp = tmp_path / f"in{scale}"
        inp.write_text(_sources(command, scale))
        gc.collect()
        assert main([command, str(inp), "--out", str(tmp_path / "o")]) == 0
        left.append(gc.collect())
    assert left[1] == left[2], left


def _raise_key_error(args):
    raise KeyError("boom")


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "exit-2", "uncaught"])
def test_main_pauses_the_collector_and_restores_the_callers_setting(tmp_path, monkeypatch,
                                                                    collecting, outcome):
    import coherify.cli as cli

    inp = tmp_path / "in"
    inp.write_text({"exit-0": _sources("certify", 1), "exit-1": "relations = nonsense\n",
                    "exit-2": MISCOUNTED_LINE + "\n", "uncaught": ""}[outcome])
    command = "simulate" if outcome == "exit-1" else "certify"
    run = _raise_key_error if outcome == "uncaught" else getattr(cli, f"cmd_{command}")
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(gc.isenabled()) or run(args))
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        if outcome == "uncaught":
            with pytest.raises(KeyError, match="boom"):
                main([command, str(inp)])
        else:
            assert main([command, str(inp), "--out", str(tmp_path / "o")]) == int(outcome[-1])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] and after is collecting


# --- encodings -----------------------------------------------------------------

CAFE_LINE = '{"id": "café", "relation": "neg", "m": 2, "quote": [0.4, 0.7]}'


def run_cli_in_the_c_locale(args, stdin=b""):
    """``coherify`` in a fresh process whose locale encoding is ASCII."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "coherify.cli", *args], input=stdin, env=env,
                          capture_output=True, timeout=60)


def test_every_input_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    inp.write_bytes(CAFE_LINE.encode("utf-8") + b"\n")
    assert run_cli(["project", str(inp), "--out", str(out)]) == 0
    config = tmp_path / "scenario.cfg"
    config.write_bytes("# café\nrelations = neg\nn_cliques = 1\nn_seeds = 1\n".encode("utf-8"))
    from_file = run_cli_in_the_c_locale(["project", str(inp)])
    from_stdin = run_cli_in_the_c_locale(["project", "-"], stdin=inp.read_bytes())
    simulated = run_cli_in_the_c_locale(["simulate", str(config)])
    assert (from_file.returncode, from_file.stderr) == (0, b"")
    assert from_file.stdout == from_stdin.stdout == out.read_bytes()
    assert json.loads(from_file.stdout)["id"] == "café"
    assert (simulated.returncode, simulated.stderr) == (0, b"")


def test_a_byte_that_is_not_utf8_exits_2_naming_its_line_in_an_ascii_locale(tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_bytes(CAFE_LINE.encode("utf-8") + b"\n" + CAFE_LINE.encode("latin-1") + b"\n")
    done = run_cli_in_the_c_locale(["project", str(inp)])
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: line 2: not UTF-8 (byte 0xE9)\n"


@pytest.mark.parametrize("command, first", [
    ("project", '{"id": "q", "relation": "neg", "m": 2, "quote": [0.4]}'),
    ("certify", MISCOUNTED_LINE),
    ("monitor", '{"eps_sq": 0.1, "m": 2}'),
])
def test_a_line_that_is_not_utf8_is_refused_in_line_order(tmp_path, capsys, command, first):
    inp = tmp_path / "in.jsonl"
    inp.write_bytes(b"\n\xff\n" + first.encode() + b"\n")
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == "error: line 2: not UTF-8 (byte 0xFF)\n"
    inp.write_bytes(first.encode() + b'\n{"id": "caf\xff"}\n')  # an earlier failing record wins
    assert run_cli([command, str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


def test_a_config_byte_that_is_not_utf8_is_a_config_error_naming_its_line(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"relations = neg\n# caf\xe9\n")
    assert run_cli(["simulate", str(config)]) == 1
    assert capsys.readouterr().err == "config error: line 2: not UTF-8 (byte 0xE9)\n"
