"""Smoke tests: each experiment script runs end to end at a tiny size."""

import importlib.util
from pathlib import Path

import pytest

from coherify.decision import BetRecord

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# gate calibration refuses fewer than 40 bets, so it needs 40 (clique, seed) cells
CASES = [
    ("run_hardness", ["--n-cliques", "2", "--n-seeds", "1"], "relation"),
    ("run_operator_ablation", ["--n-cliques", "2", "--n-seeds", "1"], "op"),
    ("run_gate_calibration", ["--n-cliques", "20", "--n-seeds", "2"], "target"),
]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, first_column", CASES, ids=[c[0] for c in CASES])
def test_script_main_runs_and_prints_its_table(name, argv, first_column, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == [first_column])
    assert set(lines[header + 1]) == {"-"}
    assert len(lines[header + 1]) == len(lines[header])


@pytest.mark.parametrize("name, argv, first_column", CASES[1:], ids=[c[0] for c in CASES[1:]])
def test_script_reads_K_0_as_the_population_limit(name, argv, first_column, capsys):
    assert load_script(name).main(argv + ["--K", "0"]) == 0
    assert first_column in capsys.readouterr().out


K_MESSAGE = "K=-1 must be >= 1, or None for the population limit"
PANEL_FLAGS = [
    ("run_hardness", "--panel-k", "0", "k=0 must be >= 1"),
    ("run_hardness", "--sigma", "-1", "sigma=-1.0 must be >= 0"),
    ("run_hardness", "--sigma", "inf", "sigma=inf must be finite"),
    ("run_hardness", "--K", "-1", K_MESSAGE),
    ("run_operator_ablation", "--sigma", "-1", "sigma=-1.0 must be >= 0"),
    ("run_operator_ablation", "--sigma", "inf", "sigma=inf must be finite"),
    ("run_operator_ablation", "--K", "-1", K_MESSAGE),
    ("run_gate_calibration", "--sigma", "-1", "sigma=-1.0 must be >= 0"),
    ("run_gate_calibration", "--sigma", "inf", "sigma=inf must be finite"),
    ("run_gate_calibration", "--K", "-1", K_MESSAGE),
]


@pytest.mark.parametrize("name, flag, value, message", PANEL_FLAGS,
                         ids=[f"{c[0]}{c[1]}={c[2]}" for c in PANEL_FLAGS])
def test_script_refuses_an_out_of_range_panel_flag_without_traceback(
        name, flag, value, message, monkeypatch, capsys):
    script = load_script(name)

    def no_simulation(*args, **kwargs):
        raise AssertionError(f"simulated before refusing {flag} {value}")

    for runner in ("run_ensemble", "hardness_experiment"):
        if hasattr(script, runner):
            monkeypatch.setattr(script, runner, no_simulation)
    assert script.main([flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_gate_calibration_refuses_too_few_bets_without_traceback(capsys):
    assert load_script("run_gate_calibration").main(["--n-cliques", "2", "--n-seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 2 bets, gate calibration needs at least 40; raise --n-cliques or --n-seeds"
    ]


def test_gate_calibration_refuses_a_capture_target_outside_the_unit_interval(capsys):
    argv = ["--n-cliques", "20", "--n-seeds", "2", "--capture-targets", "0.9,1.5"]
    assert load_script("run_gate_calibration").main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: capture target 1.5 is outside (0, 1]"]


@pytest.mark.parametrize("target, message", [
    ("1.5", "capture target 1.5 is outside (0, 1]"),
    ("abc", "could not convert string to float: 'abc'"),
])
def test_gate_calibration_refuses_a_bad_capture_target_before_simulating(
        target, message, monkeypatch, capsys):
    script = load_script("run_gate_calibration")

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --capture-targets")

    monkeypatch.setattr(script, "run_ensemble", no_simulation)
    assert script.main(["--capture-targets", f"0.9,{target}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_gate_calibration_prints_n_a_for_cv_figures_no_fold_could_score(monkeypatch, capsys):
    script = load_script("run_gate_calibration")
    bets = [BetRecord(f"neg-{i}", 0, (0.4, 0.6), (0.7, 0.3) if i == 0 else (0.4, 0.6), (1, 0),
                      0.5 if i == 0 else 0.01 * i)
            for i in range(40)]  # one harm bet, so no fold has harm on both sides
    monkeypatch.setattr(script, "run_ensemble", lambda *args, **kwargs: [])
    monkeypatch.setattr(script, "to_bet_records", lambda records: bets)
    assert script.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    cv = lines[lines.index("5-fold CV stability:") + 1:]
    assert cv == ["  target 0.90: capture n/a +- n/a, alert n/a +- n/a",
                  "  target 0.50: capture n/a +- n/a, alert n/a +- n/a"]
