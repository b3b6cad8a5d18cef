"""Command-line surface: project, certify, monitor, simulate, regret, gate, predict.

All record streams are JSONL; CLI input order equals output order. Exit
codes: 0 success, 1 operational failure (such as a well-formed certify
record whose joint projection misses the iteration cap), 2 malformed
input; a record error names its line on stderr. A flag out of its range
is a usage error (exit 2) before any input is read. Each command returns
its output text with the manifest fields that depend on it (config text,
seed, named inputs), and ``main`` writes every output and every run
manifest: to ``--manifest-out``, or by default to ``<out>.manifest.json``
whenever ``--out`` is a file. A command that fails writes neither.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .composition import (
    ComponentSpec,
    CompositionSpec,
    CouplingConstraint,
    residual_batch,
)
from .decision import AllocationRule, BetRecord, gate_sweep, murphy, regret
from .jsonio import InputError, dump_lines, dumps, json_field, parse_lines
from .monitor import DEFAULT_ALPHAS, EProcessState, StreamStep, update
from .polytope import Clique, PolytopeSpec
from .prediction import observe_magnitude, panel_stats, predict_magnitude
from .projection import project_relation_results
from .simharness import (
    ConfigError,
    SimConfig,
    clique_truth,
    composition_for,
    generate_panel,
    run_ensemble,
    to_bet_records,
)

CONFIG_DIR_ENV = "COHERIFY_CONFIG_DIR"

Run = tuple[str, str, int | None, dict[str, str]]  # output text, config text, seed, inputs


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


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
        Path(target).write_text(dumps(manifest) + "\n")


def _parsed(text: str, parse) -> list:
    """``parse(record)`` for every record of ``text``; a record it refuses names its line."""
    out = []
    for lineno, record in parse_lines(text):
        try:
            out.append(parse(record))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return out


# --- project ---------------------------------------------------------------


def _project_quote(record) -> tuple[Clique, np.ndarray]:
    clique = Clique.from_json(record)
    quote = np.array(json_field(record, "quote", [float]))
    if quote.shape != (clique.relation.m,):
        raise ValueError(f"quote length {quote.size} != m={clique.relation.m}")
    return clique, quote


def cmd_project(args) -> Run:
    text = _read_text(args.input)
    parsed = _parsed(text, _project_quote)
    by_relation: dict = {}
    for i, (clique, _) in enumerate(parsed):
        by_relation.setdefault(clique.relation, []).append(i)
    results = {}
    for relation, indices in by_relation.items():
        quotes = np.stack([parsed[i][1] for i in indices])
        results.update(zip(indices, project_relation_results(relation, quotes)))
    out = [
        {
            "id": clique.id,
            "projected": [float(v) for v in results[i].projected],
            "residual": results[i].residual,
            "iterations": results[i].iterations,
            "converged": results[i].converged,
            "active_constraint": results[i].active_constraint,
        }
        for i, (clique, _) in enumerate(parsed)
    ]
    return dump_lines(out), "", args.seed, {"input": text}


# --- certify ---------------------------------------------------------------


def composition_from_json(record: dict, shapes: dict) -> tuple[CompositionSpec, list[np.ndarray]]:
    """One certify record's composition and local quotes.

    ``shapes`` maps each (owners, coupling) shape seen before to its spec,
    so that a file builds one ``CompositionSpec`` per shape.
    """
    owners = tuple(json_field(record, "owners", [int]))
    locals_ = [np.array(q) for q in json_field(record, "locals", [[float]])]
    component_ids = sorted(set(owners))
    if len(locals_) != len(component_ids):
        raise ValueError(
            f"{len(component_ids)} owners referenced but {len(locals_)} local quotes given"
        )
    coupling = tuple(map(CouplingConstraint.from_json, json_field(record, "coupling", [dict], ())))
    if (owners, coupling) not in shapes:
        components = []
        for cid in component_ids:
            coords = tuple(j for j, o in enumerate(owners) if o == cid)
            components.append(ComponentSpec(PolytopeSpec(dim=len(coords)), coords))
        shapes[owners, coupling] = CompositionSpec(tuple(components), coupling, len(owners))
    return shapes[owners, coupling], locals_


def cmd_certify(args) -> Run:
    """Certify every record in one ``residual_batch`` call.

    Errors are reported as certifying the records one by one in order
    would: the earliest record that is malformed or fails to certify.
    """
    text = _read_text(args.input)
    shapes: dict = {}
    items, linenos = [], []
    malformed = None
    for lineno, record in parse_lines(text):
        try:
            items.append(composition_from_json(record, shapes))
        except ValueError as exc:
            malformed = (lineno, exc)
            break  # no later record can fail first
        linenos.append(lineno)
    try:
        certs = residual_batch(items, tol=args.tol)
    except RuntimeError as exc:  # a well-formed record the engine could not certify
        raise RuntimeError(f"line {linenos[exc.index]}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"line {linenos[exc.index]}: {exc}") from exc
    if malformed is not None:
        lineno, exc = malformed
        raise InputError(f"line {lineno}: {exc}") from exc
    return dump_lines(cert.to_json() for cert in certs), "", args.seed, {"input": text}


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
    path = _resolve_config(args.config)
    text = path.read_text()
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
    return dump_lines(b.to_json() for b in bets), config_text, config.master_seed, {}


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
    out = []
    for ci, clique in enumerate(config.build_cliques()):
        truth, _ = clique_truth(model, clique, config.master_seed, ci)
        panel = generate_panel(model, clique, (config.master_seed, ci, 0), truth=truth)
        stats = panel_stats(list(panel.repaired))
        prediction = predict_magnitude(stats, clique.relation)
        owners = np.zeros(clique.relation.m, dtype=int)  # layout only; draws are uniform
        comp = composition_for(clique, owners).comp
        observed = observe_magnitude(comp, list(panel.repaired), config.n_draws,
                                     seed=config.master_seed)
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
    """``--tol``: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _alpha_list(text: str) -> str:
    """``--alpha-list``: comma-separated levels, each strictly between 0 and 1."""
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        if not 0.0 < float(tok) < 1.0:  # also false for NaN
            raise argparse.ArgumentTypeError(f"each level must be in (0, 1), got {tok!r}")
    return text


def _capture_targets(text: str) -> str:
    """``--capture-targets``: comma-separated harm-capture targets, each in (0, 1]."""
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        if not 0.0 < float(tok) <= 1.0:  # also false for NaN
            raise argparse.ArgumentTypeError(f"each target must be in (0, 1], got {tok!r}")
    return text


def _bins(text: str) -> int:
    """``--bins``: an integer >= 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherify",
        description="Certify, repair, and monitor coherence of composed probabilistic quotes.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--tol", type=_tolerance, default=1e-8,
                        help="membership tolerance (finite, >= 0)")
    parser.add_argument("--manifest-out", default=None, help="run manifest path")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, about: str, source: str, source_help: str):
        """A subcommand that reads ``source`` and whose output ``main`` writes to ``--out``."""
        p = sub.add_parser(name, help=about)
        p.add_argument(source, help=source_help)
        p.add_argument("--out", default="-")
        p.set_defaults(fn=fn)
        return p

    command("project", cmd_project, "project quotes onto their clique polytopes",
            "input", "clique+quote JSONL ('-' for stdin)")
    command("certify", cmd_certify, "certify composed quotes", "input", "composition JSONL")
    p = command("monitor", cmd_monitor, "run the sequential coherence test on a residual stream",
                "input", "residual stream JSONL")
    p.add_argument("--alpha-list", type=_alpha_list,
                   default=",".join(str(a) for a in DEFAULT_ALPHAS),
                   help="comma-separated test levels, each in (0, 1)")
    p = command("simulate", cmd_simulate, "run a synthetic specialist-panel ensemble",
                "config", "scenario config file (key = value lines)")
    p.add_argument("--ecdf-out", default=None,
                   help="also write per-relation residual ECDF points as CSV")
    p = command("regret", cmd_regret, "score naive vs repaired bets", "input", "bets JSONL")
    p.add_argument("--rule", default="proportional",
                   choices=["proportional", "truncated-kelly", "max-entropy"])
    p.add_argument("--bins", type=_bins, default=10, help="Murphy forecast bins (>= 2)")
    p = command("gate", cmd_gate, "calibrate certificate gating thresholds", "input", "bets JSONL")
    p.add_argument("--rule", default="proportional",
                   choices=["proportional", "truncated-kelly", "max-entropy"])
    p.add_argument("--capture-targets", type=_capture_targets, default="0.9,0.5",
                   help="comma-separated harm-capture targets, each in (0, 1]")
    command("predict", cmd_predict, "panel-covariance residual prediction vs observation",
            "config", "scenario config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_run(args, *args.fn(args))
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
