"""Command-line surface: project, certify, monitor, simulate, regret, gate, predict.

All record streams are JSONL, read and written as UTF-8 whatever the
locale; CLI input order equals output order. Exit codes: 0 success, 1
operational failure (such as a scenario config problem), 2 malformed
input, a certify record whose constraint set is empty included; a record
error names its line (and an empty set the rows at fault) on stderr, and
a flag out of its range is a usage error before any input is read. Each
command returns its output text with the manifest fields that depend on
it (config text, seed, named inputs), and ``main`` writes every output
and every run manifest: to ``--manifest-out``, or by default to
``<out>.manifest.json`` whenever ``--out`` is a file. A command that
fails writes neither.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .composition import (
    Certificate,
    CompositionSpec,
    CouplingConstraint,
    _check_tol,
    residual_batch,
    shared_component,
)
from .decision import (
    ALLOCATION_KINDS,
    AllocationRule,
    BetRecord,
    check_capture_targets,
    gate_sweep,
    murphy,
    regret,
)
from .jsonio import InputError, dump_columns, dump_lines, dumps, json_field, parse_lines
from .monitor import DEFAULT_ALPHAS, EProcessState, StreamStep, update
from .polytope import MEMBERSHIP_TOL, Clique, free_box
from .prediction import observe_magnitude, panel_stats, predict_magnitude
from .projection import _polytope, _reported, project_relation_batch
from .simharness import (
    ConfigError,
    SimConfig,
    _clique_truths,
    composition_for,
    generate_panels,
    run_ensemble,
    to_bet_records,
)

CONFIG_DIR_ENV = "COHERIFY_CONFIG_DIR"

Run = tuple[str, str, int | None, dict[str, str]]  # output text, config text, seed, inputs
_UNDECODABLE = re.compile("[\udc80-\udcff]")  # surrogateescape's stand-ins for bytes


def _read_text(path: str) -> str:
    """The file at ``path`` (``-``: standard input) decoded as UTF-8 whatever the locale.

    A byte that is not UTF-8 comes through as a lone surrogate
    (``surrogateescape``), which ``_records`` refuses at its line.
    """
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return data.decode("utf-8", "surrogateescape")


def _write_text(path: str, text: str) -> None:
    """``text`` to the file at ``path`` as UTF-8, or to standard output (``-``), which
    takes it in any locale: every output is ASCII, ``jsonio`` escaping the rest."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _resolve_config(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        base = os.environ.get(CONFIG_DIR_ENV)
        if base and (Path(base) / path).exists():
            return Path(base) / path
    return p


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_run(args, text: str, config_text: str, seed: int | None,
               inputs: dict[str, str]) -> None:
    """Write a command's output to ``--out``, then its run manifest."""
    _write_text(args.out, text)
    target = args.manifest_out
    if target is None and args.out != "-":
        target = args.out + ".manifest.json"
    if target:
        manifest = {
            "command": args.command,
            "config_hash": _digest(config_text),
            "master_seed": seed,
            "input_digests": {name: _digest(t) for name, t in inputs.items()},
            "tool_version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        Path(target).write_text(dumps(manifest) + "\n", encoding="utf-8")


def _records(text: str) -> tuple[list, InputError | None]:
    """``parse_lines(text)`` and None, or the records before the first line it refuses
    and that refusal, which comes after any error of those records.

    A line that holds a byte that is not UTF-8 (a ``surrogateescape`` stand-in)
    is refused like a line that is not JSON.
    """
    bad = None if text.isascii() else _UNDECODABLE.search(text)
    if bad is not None:
        start = text.rfind("\n", 0, bad.start()) + 1
        lineno = text.count("\n", 0, start) + 1
        records, refused = _records(text[:start])
        return records, refused or InputError(
            f"line {lineno}: not UTF-8 (byte 0x{ord(bad[0]) - 0xDC00:02X})")
    try:
        return parse_lines(text), None
    except InputError as exc:
        return exc.records, exc


def _parsed(text: str, parse) -> list:
    """``parse(record)`` for every record of ``text``; the earliest line that is no
    record or that ``parse`` refuses raises, naming that line."""
    records, refused = _records(text)
    out = []
    for lineno, record in records:
        try:
            out.append(parse(record))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    if refused is not None:
        raise refused
    return out


# --- project ---------------------------------------------------------------


def _project_quote(record) -> tuple[Clique, list[float]]:
    clique = Clique.from_json(record)
    quote = json_field(record, "quote", [float])
    if len(quote) != clique.relation.m:
        raise ValueError(f"quote length {len(quote)} != m={clique.relation.m}")
    return clique, quote


def cmd_project(args) -> Run:
    text = _read_text(args.input)
    parsed = _parsed(text, _project_quote)
    by_relation: dict = {}
    for i, (clique, _) in enumerate(parsed):
        by_relation.setdefault(clique.relation, []).append(i)
    n = len(parsed)
    projected, residual, active = [None] * n, [None] * n, [None] * n
    for relation, indices in by_relation.items():  # one batch call per relation
        quotes = np.array([parsed[i][1] for i in indices])
        rows = project_relation_batch(relation, quotes)
        reported = _reported(_polytope(relation), quotes, rows)
        for i, p, (r, a) in zip(indices, rows.tolist(), reported):
            projected[i], residual[i], active[i] = p, r, a
    columns = {  # each row as project_relation reports it
        "id": [clique.id for clique, _ in parsed],
        "projected": projected,
        "residual": residual,
        "iterations": [1] * n,
        "converged": [True] * n,
        "active_constraint": active,
    }
    return dump_columns(columns), "", args.seed, {"input": text}


# --- certify ---------------------------------------------------------------


def composition_from_json(record: dict, shapes: dict) -> tuple[CompositionSpec, list[list[float]]]:
    """One certify record's composition and local quotes.

    ``shapes`` maps each (owners, raw coupling) shape seen before to its
    spec, so that a file reads and checks the cuts and builds one
    ``CompositionSpec`` per shape. The raw coupling is keyed by its
    ``repr``, which keeps apart the JSON values that Python finds equal
    (``1``, ``1.0`` and ``true``), so a record rides on a shape only when
    its cuts would be read as that shape's were. An absent coupling reads
    as ``()``, which no JSON value gives.
    """
    owners = tuple(json_field(record, "owners", [int]))
    locals_ = json_field(record, "locals", [[float]])
    component_ids = sorted(set(owners))
    if len(locals_) != len(component_ids):
        raise ValueError(
            f"{len(component_ids)} owners referenced but {len(locals_)} local quotes given"
        )
    key = owners, repr(record.get("coupling", ()))
    if key not in shapes:
        coupling = tuple(map(CouplingConstraint.from_json,
                             json_field(record, "coupling", [dict], ())))
        components = []
        for cid in component_ids:
            coords = tuple(j for j, o in enumerate(owners) if o == cid)
            components.append(shared_component(free_box(len(coords)), coords))
        shapes[key] = CompositionSpec(tuple(components), coupling, len(owners))
    return shapes[key], locals_


def cmd_certify(args) -> Run:
    """Certify every record in one ``residual_batch`` call.

    Errors are reported as certifying the records one by one in order
    would: the earliest record that is malformed or fails to certify.
    """
    text = _read_text(args.input)
    shapes: dict = {}
    items, linenos = [], []
    records, malformed = _records(text)
    for lineno, record in records:
        try:
            items.append(composition_from_json(record, shapes))
        except ValueError as exc:
            malformed = InputError(f"line {lineno}: {exc}")
            break  # no later record can fail first
        linenos.append(lineno)
    del records  # kept through certification, the decoded records raise its peak memory
    try:
        certs = residual_batch(items, tol=args.tol)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"line {linenos[exc.index]}: {exc}") from exc
    if malformed is not None:
        raise malformed
    return dump_columns(Certificate.columns(certs)), "", args.seed, {"input": text}


# --- monitor ---------------------------------------------------------------


def cmd_monitor(args) -> Run:
    text = _read_text(args.input)
    alpha_tokens = [tok.strip() for tok in args.alpha_list.split(",") if tok.strip()]
    state = EProcessState(alphas=tuple(float(tok) for tok in alpha_tokens))

    def step(record) -> dict:
        nonlocal state
        state = update(state, StreamStep(eps_sq=json_field(record, "eps_sq", float),
                                         m=json_field(record, "m", int),
                                         k_samples=json_field(record, "K", int)))
        return {
            "t": state.t,
            "log_e_mix": state.log_e_mix,
            "crossed": {tok: state.crossed_at[i] for i, tok in enumerate(alpha_tokens)},
        }

    return dump_lines(_parsed(text, step)), args.alpha_list, args.seed, {"input": text}


# --- simulate / regret / gate / predict -------------------------------------


def _load_config(args) -> tuple[SimConfig, str]:
    data = _resolve_config(args.config).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError([f"line {line}: not UTF-8 (byte 0x{data[exc.start]:02X})"]) from exc
    config = SimConfig.parse(text)
    if args.seed is not None:
        config.master_seed = args.seed
    return config, text


def cmd_simulate(args) -> Run:
    config, config_text = _load_config(args)
    records = run_ensemble(
        config.build_cliques(), config.build_model(), config.build_policy(),
        config.n_seeds, config.master_seed,
    )
    bets = to_bet_records(records, config.naive_operator, config.repaired_operator)
    if args.ecdf_out:
        _write_text(args.ecdf_out, _eps_ecdf_csv(records))
    return dump_columns(BetRecord.columns(bets)), config_text, config.master_seed, {}


def _eps_ecdf_csv(records) -> str:
    """Per-relation ECDF points of the certified residual, plot-ready CSV."""
    by_relation: dict[str, list[float]] = {}
    for r in records:
        kind = r.clique_id.rsplit("-", 1)[0]
        by_relation.setdefault(kind, []).append(r.eps["B"])
    lines = ["relation,eps_star,cum_fraction"]
    for kind in sorted(by_relation):
        values = sorted(by_relation[kind])
        n = len(values)
        for i, v in enumerate(values, start=1):
            lines.append(f"{kind},{v:.17g},{i / n:.17g}")
    return "\n".join(lines) + "\n"


def cmd_regret(args) -> Run:
    text = _read_text(args.input)
    bets = _parsed(text, BetRecord.from_json)
    rule = AllocationRule(kind=args.rule)
    summary = regret(bets, rule, seed=args.seed or 0)
    payload = asdict(summary)
    flat_q = [v for b in bets for v in b.quote_repaired]
    flat_y = [v for b in bets for v in b.labels]
    payload["murphy_repaired"] = asdict(murphy(flat_q, flat_y, args.bins))
    flat_qn = [v for b in bets for v in b.quote_naive]
    payload["murphy_naive"] = asdict(murphy(flat_qn, flat_y, args.bins))
    return dumps(payload) + "\n", args.rule, args.seed or 0, {"bets": text}


def cmd_gate(args) -> Run:
    text = _read_text(args.input)
    bets = _parsed(text, BetRecord.from_json)
    targets = tuple(float(tok) for tok in args.capture_targets.split(",") if tok.strip())
    report = gate_sweep(bets, AllocationRule(kind=args.rule), targets, seed=args.seed or 0)
    return dumps(asdict(report)) + "\n", args.capture_targets, args.seed or 0, {"bets": text}


def cmd_predict(args) -> Run:
    config, config_text = _load_config(args)
    model = config.build_model()
    cliques, seed = config.build_cliques(), config.master_seed
    truths = _clique_truths(model, [(c, ci) for ci, c in enumerate(cliques)], seed)
    panels = generate_panels(model, [(c, (seed, ci, 0), truth)
                                     for ci, (c, (truth, _)) in enumerate(zip(cliques, truths))])
    out = []
    for clique, panel in zip(cliques, panels):
        stats = panel_stats(list(panel.repaired))
        prediction = predict_magnitude(stats, clique.relation)
        owners = np.zeros(clique.relation.m, dtype=int)  # layout only; draws are uniform
        comp = composition_for(clique, owners).comp
        observed = observe_magnitude(comp, list(panel.repaired), config.n_draws, seed=seed)
        ratio = observed / prediction.predicted_sq_residual \
            if prediction.predicted_sq_residual > 0 else None
        out.append(
            {
                "predicted": prediction.predicted_sq_residual,
                "observed": observed,
                "ratio": ratio,
                "regime": prediction.regime,
            }
        )
    return dump_lines(out), config_text, config.master_seed, {}


# --- entry point -------------------------------------------------------------


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0, as ``residual`` takes it."""
    value = float(text)
    try:
        _check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _alpha_list(text: str) -> str:
    """``--alpha-list``: comma-separated levels, each strictly between 0 and 1."""
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        if not 0.0 < float(tok) < 1.0:  # also false for NaN
            raise argparse.ArgumentTypeError(f"each level must be in (0, 1), got {tok!r}")
    return text


def _capture_targets(text: str) -> str:
    """``--capture-targets``: comma-separated harm-capture targets, each in (0, 1]."""
    targets = [float(tok) for tok in text.split(",") if tok.strip()]
    try:
        check_capture_targets(targets)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _bins(text: str) -> int:
    """``--bins``: an integer >= 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return value


COMMANDS = ("project", "certify", "monitor", "simulate", "regret", "gate", "predict")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one that knows command ``only`` alone and parses it alike."""
    parser = argparse.ArgumentParser(
        prog="coherify",
        description="Certify, repair, and monitor coherence of composed probabilistic quotes.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--tol", type=_tolerance, default=MEMBERSHIP_TOL,
                        help="membership tolerance (finite, >= 0)")
    parser.add_argument("--manifest-out", default=None, help="run manifest path")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if only is None else "{%s}" % ",".join(COMMANDS))

    def command(name: str, fn, about: str, source: str, source_help: str, options=None):
        """A subcommand that reads ``source``, writes to ``--out`` and takes ``options``."""
        if only not in (None, name):
            return
        p = sub.add_parser(name, help=about)
        p.add_argument(source, help=source_help)
        p.add_argument("--out", default="-")
        for flag, kwargs in (options or {}).items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)

    rule = {"default": "proportional", "choices": ALLOCATION_KINDS}
    command("project", cmd_project, "project quotes onto their clique polytopes",
            "input", "clique+quote JSONL ('-' for stdin)")
    command("certify", cmd_certify, "certify composed quotes", "input", "composition JSONL")
    command("monitor", cmd_monitor, "run the sequential coherence test on a residual stream",
            "input", "residual stream JSONL",
            {"--alpha-list": {"type": _alpha_list,
                              "default": ",".join(str(a) for a in DEFAULT_ALPHAS),
                              "help": "comma-separated test levels, each in (0, 1)"}})
    command("simulate", cmd_simulate, "run a synthetic specialist-panel ensemble",
            "config", "scenario config file (key = value lines)",
            {"--ecdf-out": {"default": None,
                            "help": "also write per-relation residual ECDF points as CSV"}})
    command("regret", cmd_regret, "score naive vs repaired bets", "input", "bets JSONL",
            {"--rule": rule,
             "--bins": {"type": _bins, "default": 10, "help": "Murphy forecast bins (>= 2)"}})
    command("gate", cmd_gate, "calibrate certificate gating thresholds", "input", "bets JSONL",
            {"--rule": rule,
             "--capture-targets": {"type": _capture_targets, "default": "0.9,0.5",
                                   "help": "comma-separated harm-capture targets, each in (0, 1]"}})
    command("predict", cmd_predict, "panel-covariance residual prediction vs observation",
            "config", "scenario config file")
    return parser


def _command_of(argv: list[str]) -> str | None:
    """The command ``argv`` names, or None when a token before it is no global flag
    (matched by a unique prefix, as argparse does) or the value of one."""
    tokens = iter(argv)
    for token in tokens:
        if token in COMMANDS:
            return token
        flag, eq, _ = token.partition("=")
        if len(flag) < 3 or not any(name.startswith(flag)
                                    for name in ("--seed", "--tol", "--manifest-out")):
            return None
        if not eq:
            next(tokens, None)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(only=_command_of(argv)).parse_args(argv)
    # a command's data has no reference cycles: the cyclic collector would only rescan it
    collecting = gc.isenabled()
    gc.disable()
    try:
        _write_run(args, *args.fn(args))
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
