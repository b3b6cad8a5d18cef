import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.cli import main
from coherify.jsonio import dumps, parse_lines
from coherify.polytope import Relation
from coherify.projection import project_relation


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
EMPTY_MESSAGE = "joint projection did not converge; coupling may be empty"


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
    ],
)
def test_certify_reports_the_earliest_failing_record(tmp_path, capsys, lines, expected):
    inp = tmp_path / "in.jsonl"
    inp.write_text("\n".join([PARTITION_CERTIFY_LINE] + lines + [PARTITION_CERTIFY_LINE]) + "\n")
    assert run_cli(["certify", str(inp), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


# a sum of 2 is no catalog relation, so the record runs the cycle; (1, 1, 0) meets it
UNCONVERGED_LINE = (
    '{"owners": [0, 1, 2], "coupling": [{"kind": "partition-sum", "coords": [0, 1, 2], '
    '"b": 2.0}], "locals": [[0.6], [0.7], [0.2]]}'
)
CAP_MESSAGE = "joint projection did not converge within the iteration cap"


def cap_at_one_cycle(monkeypatch):
    """Every batched joint projection that runs the cycle stops after one Dykstra cycle."""
    import functools

    import coherify.composition as composition
    from coherify import projection

    monkeypatch.setattr(composition, "_hierarchical_cycle",
                        functools.partial(projection._hierarchical_cycle, max_iter=1))


@pytest.fixture
def one_cycle_cap(monkeypatch):
    cap_at_one_cycle(monkeypatch)


def test_certify_reports_a_projection_past_the_cap_with_its_line(tmp_path, capsys, one_cycle_cap):
    # the record is well formed and its coupling is feasible: an operational failure
    inp = tmp_path / "in.jsonl"
    inp.write_text('{"owners": [0, 1], "coupling": [], "locals": [[0.3], [0.4]]}\n'
                   + UNCONVERGED_LINE + "\n")
    out = tmp_path / "o.jsonl"
    assert run_cli(["certify", str(inp), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: line 2: {CAP_MESSAGE}\n"
    assert not out.exists()
    inp.write_text(EMPTY_COUPLING_LINE + "\n" + UNCONVERGED_LINE + "\n")
    assert run_cli(["certify", str(inp), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line 1: {EMPTY_MESSAGE}\n"


def test_simulate_never_runs_the_capped_cycle(tmp_path, scenario, monkeypatch):
    # every scenario composition is one catalog polytope, projected exactly
    uncapped, capped = tmp_path / "uncapped.jsonl", tmp_path / "capped.jsonl"
    assert run_cli(["simulate", str(scenario), "--out", str(uncapped)]) == 0
    cap_at_one_cycle(monkeypatch)
    assert run_cli(["simulate", str(scenario), "--out", str(capped)]) == 0
    assert capped.read_bytes() == uncapped.read_bytes()


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


MONITOR_LINE = '{"t": 1, "eps_sq": 0.0625, "m": 2, "K": 8}'


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["monitor", "--alpha-list", "1.5"], "--alpha-list"),
        (["monitor", "--alpha-list", "0"], "--alpha-list"),
        (["monitor", "--alpha-list", "0.05,nan"], "--alpha-list"),
        (["--tol", "-1", "certify"], "--tol"),
        (["--tol", "nan", "certify"], "--tol"),
        (["gate", "--capture-targets", "1.5"], "--capture-targets"),
        (["gate", "--capture-targets", "0"], "--capture-targets"),
        (["gate", "--capture-targets", "0.9,nan"], "--capture-targets"),
        (["regret", "--bins", "0"], "--bins"),
        (["regret", "--bins", "1"], "--bins"),
        (["regret", "--bins", "2.5"], "--bins"),
    ],
    ids=["alpha-above-1", "alpha-0", "alpha-nan", "tol-negative", "tol-nan",
         "target-above-1", "target-0", "target-nan", "bins-0", "bins-1", "bins-fraction"],
)
def test_out_of_range_flags_are_usage_errors_before_any_input(tmp_path, capsys, monkeypatch,
                                                              flags, flag):
    import coherify.cli as cli

    inp = tmp_path / "in.jsonl"
    inp.write_text((MONITOR_LINE if "monitor" in flags else PARTITION_CERTIFY_LINE) + "\n")
    read = []
    monkeypatch.setattr(cli, "_read_text", lambda path: read.append(path) or inp.read_text())
    out = tmp_path / "o.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(flags + [str(inp), "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
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
