"""The three workloads: what each runs, what it times, and how it checks outputs.

Each workload loops until ``seconds`` have passed (always at least one
round), times only the calls into coherify, and checks every output
outside the timed region. In a traced run each round or quote is also
repeated with the span recorder installed, on the same inputs, so the
traced and untraced wall times compare like with like.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coherify import (
    Clique,
    EProcessState,
    InfeasibleCouplingError,
    StreamStep,
    build_polytope,
    is_member,
    project_relation,
)
from coherify import cli, composition, monitor, simharness

import bench_inputs as gen
from bench_trace import Tracer, recording

EPS_TOL = 1e-6          # certificate and projection agreement with project_relation
RESIDUAL_FLOOR = 1e-9   # certificates report residuals below this as exactly 0


@dataclass
class Outcome:
    """Counts of checked operations, the e2e figures and the facts behind them."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # value, unit, n
    info: dict = field(default_factory=dict)
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def check(self, ok: bool, problem: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


@dataclass
class Context:
    work: Path
    seed: int
    seconds: float
    tracer: Tracer | None


def clear_caches() -> None:
    """Drop every lru_cache in loaded coherify modules, as a fresh process would have."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "coherify" or name.startswith("coherify.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, float]:
    """One cold ``coherify`` CLI invocation; returns (exit code, seconds)."""
    clear_caches()
    with recording(tracer):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def expected_eps(relation, composed: np.ndarray) -> float:
    eps = project_relation(relation, composed).residual
    return eps if eps >= RESIDUAL_FLOOR else 0.0


def check_certificate(out: Outcome, where: str, relation, composed, eps, exposure,
                      repaired) -> None:
    want = expected_eps(relation, composed)
    ok = (abs(eps - want) <= EPS_TOL
          and abs(exposure - math.sqrt(relation.m) * eps) <= 1e-12 * (1.0 + exposure)
          and is_member(build_polytope(relation), np.asarray(repaired, dtype=float)))
    out.check(ok, f"{where}: eps_star {eps!r} vs project_relation {want!r}, "
                  f"exposure {exposure!r}, or repaired outside the relation polytope")


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values)


def _percentile_ms(values: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(values, q))


# Shared hosts change speed by 20-30% over minutes, for reasons outside the
# program; measured as they are, ten runs of one build can spread wider than
# any useful regression bound. So every timed unit is bracketed by a fixed
# pure-Python + numpy kernel, and its time is scaled to the speed at which
# that kernel takes REFERENCE_KERNEL_S. Raw wall-clock figures are reported
# alongside, together with the measured machine speed.
REFERENCE_KERNEL_S = 0.010


def _kernel() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    a = np.linspace(0.0, 1.0, 16)
    for _ in range(600):
        a = np.clip(a * 1.5 - 0.25, 0.0, 1.0)
    return time.perf_counter() - t0


class Calibration:
    """Kernel timings taken between timed units; ``scale`` maps wall time to reference time."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> int:
        """Time the kernel (median of three) and return the sample's index."""
        self.samples.append(statistics.median(_kernel() for _ in range(3)))
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        return 2.0 * REFERENCE_KERNEL_S / (self.samples[before] + self.samples[after])

    def speed(self) -> float:
        """Machine speed relative to the reference: raw time = reference time / speed."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


# --- records-batch -----------------------------------------------------------


def _check_project(out: Outcome, rnd: gen.RecordsRound, path: Path, tag: str) -> None:
    records = read_jsonl(path)
    if len(records) != len(rnd.project_cases):
        out.check(False, f"{tag}: {len(records)} project outputs for {len(rnd.project_cases)} inputs",
                  weight=len(rnd.project_cases))
        return
    for i, (record, (relation, quote)) in enumerate(zip(records, rnd.project_cases)):
        exact = project_relation(relation, quote)
        gap = float(np.max(np.abs(np.asarray(record["projected"]) - exact.projected)))
        out.check(gap <= EPS_TOL and abs(record["residual"] - exact.residual) <= EPS_TOL,
                  f"{tag} line {i + 1}: projection differs from project_relation by {gap:.3g}")


def _check_certify(out: Outcome, rnd: gen.RecordsRound, path: Path, tag: str) -> None:
    records = read_jsonl(path)
    if len(records) != len(rnd.certify_cases):
        out.check(False, f"{tag}: {len(records)} certificates for {len(rnd.certify_cases)} inputs",
                  weight=len(rnd.certify_cases))
        return
    for i, (record, (relation, locals_, owners)) in enumerate(zip(records, rnd.certify_cases)):
        composed = np.zeros(relation.m)
        for s, q in zip(sorted(set(owners.tolist())), locals_):
            composed[owners == s] = np.clip(q, 0.0, 1.0)  # split owners hold free boxes
        check_certificate(out, f"{tag} line {i + 1}", relation, composed, record["eps_star"],
                          record["exposure_bound"], record["repaired"])


def _records_pass(files: dict, suffix: str, tracer: Tracer | None,
                  out: Outcome) -> tuple[float, float, dict] | None:
    results = {}
    times = []
    for command in ("project", "certify"):
        target = files[f"{command}_out{suffix}"]
        code, seconds = run_cli([command, str(files[f"{command}_in"]), "--out", str(target)],
                                tracer)
        if not out.check(code == 0, f"{command} exited with {code}"):
            return None
        times.append(seconds)
        results[command] = sha256_file(target)
    return times[0], times[1], results


def records_batch(ctx: Context) -> Outcome:
    out = Outcome()
    catalog = gen.shape_catalog(ctx.seed)
    files = {name: ctx.work / f"{name}.jsonl" for name in (
        "project_in", "certify_in", "project_out", "certify_out", "project_out_traced",
        "certify_out_traced")}
    project_s, certify_s, raw_round_s, project_n, certify_n = [], [], [], 0, 0
    first_digests = None
    properties = None
    cal = Calibration()
    deadline = time.perf_counter() + ctx.seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        rnd = gen.records_round(ctx.seed, round_index, catalog)
        properties = properties or rnd.properties
        files["project_in"].write_text(rnd.project_text)
        files["certify_in"].write_text(rnd.certify_text)
        before = cal.probe()
        timed = _records_pass(files, "", None, out)
        after = cal.probe()
        if timed is None:
            break
        tp, tc, digests = timed
        _check_project(out, rnd, files["project_out"], f"round {round_index} project")
        _check_certify(out, rnd, files["certify_out"], f"round {round_index} certify")
        scale = cal.scale(before, after)
        project_s.append(tp * scale)
        certify_s.append(tc * scale)
        raw_round_s.append(tp + tc)
        project_n += len(rnd.project_cases)
        certify_n += len(rnd.certify_cases)
        if round_index == 0:
            first_digests = digests
        if ctx.tracer is not None:
            traced = _records_pass(files, "_traced", ctx.tracer, out)
            if traced is None:
                break
            out.check(traced[2] == digests, f"round {round_index}: traced outputs differ")
            out.traced_s += traced[0] + traced[1]
            out.untraced_s += tp + tc
        round_index += 1

    # Determinism: the first round's inputs again, cold, must give the same bytes.
    rnd = gen.records_round(ctx.seed, 0, catalog)
    files["project_in"].write_text(rnd.project_text)
    files["certify_in"].write_text(rnd.certify_text)
    again = _records_pass(files, "", None, out)
    if again is not None:
        out.check(again[2] == first_digests, "round 0 outputs differ between two invocations")

    rounds = len(project_s)
    round_s = [p + c for p, c in zip(project_s, certify_s)]
    if rounds:
        out.metrics["throughput_per_s"] = ((project_n + certify_n) / sum(round_s), "1/s", rounds)
        out.metrics["latency_p50_ms"] = (_median_ms(round_s), "ms", rounds)
        out.info["project_records_per_s"] = {"value": project_n / sum(project_s),
                                             "unit": "records/s", "n": rounds}
        out.info["certify_records_per_s"] = {"value": certify_n / sum(certify_s),
                                             "unit": "records/s", "n": rounds}
        out.info["raw_throughput_per_s"] = {"value": (project_n + certify_n) / sum(raw_round_s),
                                            "unit": "1/s", "n": rounds}
        out.info["raw_latency_p50_ms"] = {"value": _median_ms(raw_round_s), "unit": "ms",
                                          "n": rounds}
        out.info["machine_speed"] = cal.speed()
    out.info["input"] = {**(properties or {}), "rounds": rounds,
                         "catalog_shapes": sum(len(v) for v in catalog.values())}
    out.info["output_sha256_round0"] = first_digests
    return out


# --- gate-online -------------------------------------------------------------


def certificate_bytes(cert) -> bytes:
    return np.asarray([cert.epsilon_star, *cert.repaired]).tobytes()


class Gate:
    """The online caller: certify one composed quote, then feed the monitor."""

    def __init__(self):
        self.state = EProcessState()
        self.sum_centered = 0.0
        self.sum_spread = 0.0
        self.digest = hashlib.sha256()

    def certify(self, clique: Clique, quote: gen.Quote):
        """Timed: composition, certificate and monitor update for one quote."""
        m = clique.relation.m
        t0 = time.perf_counter()
        routed = simharness.composition_for(clique, quote.owners)
        cert = composition.residual(routed.comp, quote.locals_)
        self.state = monitor.update(
            self.state, StreamStep(cert.epsilon_star ** 2, m, gen.K_SAMPLES))
        elapsed = time.perf_counter() - t0
        self.sum_centered += cert.epsilon_star ** 2 - m / (4.0 * gen.K_SAMPLES)
        self.sum_spread += m / (2.0 * gen.K_SAMPLES)
        self.digest.update(certificate_bytes(cert))
        return cert, elapsed

    def reject(self, quote: gen.Quote):
        """Timed: an infeasible composition must raise InfeasibleCouplingError."""
        t0 = time.perf_counter()
        try:
            composition.residual(quote.infeasible, quote.locals_)
            error = None
        except Exception as exc:  # the caller fails every type but InfeasibleCouplingError
            error = exc
        return error, time.perf_counter() - t0

    def check_monitor(self, out: Outcome, tag: str) -> None:
        """log_e per lambda and the mixture against the closed form from the sums."""
        state = self.state
        want = [lam * self.sum_centered - lam * lam * self.sum_spread for lam in state.lambdas]
        hi = max(want)
        want_mix = hi + math.log(sum(math.exp(v - hi) for v in want)) - math.log(len(want))
        scale = 1.0 + max(abs(v) for v in want)
        ok = (len(state.log_e) == len(want)
              and all(abs(a - b) <= 1e-9 * scale for a, b in zip(state.log_e, want))
              and abs(state.log_e_mix - want_mix) <= 1e-9 * scale)
        out.check(ok, f"{tag}: log_e_mix {state.log_e_mix!r} vs closed form {want_mix!r}")


def _local_repair(clique: Clique, quote: gen.Quote) -> np.ndarray:
    """The locally repaired composed quote, built without the code under test's route."""
    relation = clique.relation
    composed = np.zeros(relation.m)
    for s, q in zip(sorted(set(quote.owners.tolist())), quote.locals_):
        mask = quote.owners == s
        if mask.all():  # a sole owner repairs onto the whole relation itself
            q = project_relation(relation, q).projected
        composed[mask] = np.clip(q, 0.0, 1.0)
    return composed


PROBE_EVERY = 50  # gate-online: feasible quotes between two speed probes


def _scale_block(cal: Calibration, start: int, raw: list[float], scaled: list[float]) -> int:
    """Scale the raw latencies not yet scaled by the probes around them; returns the new probe."""
    end = cal.probe()
    factor = cal.scale(start, end)
    scaled.extend(seconds * factor for seconds in raw[len(scaled):])
    return end


def gate_online(ctx: Context) -> Outcome:
    out = Outcome()
    gates = {"plain": Gate()}
    if ctx.tracer is not None:
        gates["traced"] = Gate()
    latencies, raw_latencies, rejects = [], [], []
    cal = Calibration()
    block_start = cal.probe()
    shapes, slots, n_values = [], [], 0
    first_chunk: list[tuple[Clique, gen.Quote]] = []
    first_digest = hashlib.sha256()
    deadline = time.perf_counter() + ctx.seconds
    stream = gen.gate_stream(ctx.seed)
    for n, quote in enumerate(stream):
        if time.perf_counter() >= deadline and len(rejects) >= gen.N_INFEASIBLE:
            break
        n_values += quote.n_values
        if quote.infeasible is not None:
            for name, gate in gates.items():
                with recording(ctx.tracer if name == "traced" else None):
                    error, elapsed = gate.reject(quote)
                out.check(isinstance(error, InfeasibleCouplingError),
                          f"quote {n}: infeasible composition gave {error!r}")
                if name == "plain":
                    rejects.append(elapsed)
                    out.untraced_s += elapsed
                else:
                    out.traced_s += elapsed
            continue
        relation = quote.relation
        clique = Clique(id=f"g{n}", relation=relation)
        slots.append((relation.kind.value, relation.m))
        shapes.append((relation.kind.value, relation.m, tuple(quote.owners.tolist())))
        composed = _local_repair(clique, quote)
        for name, gate in gates.items():
            with recording(ctx.tracer if name == "traced" else None):
                cert, elapsed = gate.certify(clique, quote)
            check_certificate(out, f"quote {n} ({name})", relation, composed,
                              cert.epsilon_star, cert.exposure_bound, cert.repaired)
            if name == "plain":
                raw_latencies.append(elapsed)
                out.untraced_s += elapsed
                if len(first_chunk) < gen.DECK_SIZE:
                    first_chunk.append((clique, quote))
                    first_digest.update(certificate_bytes(cert))
            else:
                out.traced_s += elapsed
        if len(raw_latencies) % PROBE_EVERY == 0:
            block_start = _scale_block(cal, block_start, raw_latencies, latencies)
    _scale_block(cal, block_start, raw_latencies, latencies)
    for name, gate in gates.items():
        gate.check_monitor(out, f"monitor ({name})")
    if "traced" in gates:
        out.check(gates["traced"].digest.digest() == gates["plain"].digest.digest(),
                  "traced certificates differ from untraced ones")

    # Determinism: the first deck again through a fresh gate gives the same bytes.
    again = Gate()
    for clique, quote in first_chunk:
        again.certify(clique, quote)
    out.check(again.digest.digest() == first_digest.digest(),
              "certificates differ between two passes over the same quotes")

    n = len(latencies)
    out.metrics["throughput_per_s"] = (n / sum(latencies), "1/s", n)
    out.metrics["latency_p50_ms"] = (_median_ms(latencies), "ms", n)
    out.info["quote_latency_p50_ms"] = {"value": _median_ms(latencies), "unit": "ms", "n": n}
    if n >= 1000:
        out.info["quote_latency_p99_ms"] = {"value": _percentile_ms(latencies, 99),
                                            "unit": "ms", "n": n}
    out.info["reject_latency_p50_ms"] = {"value": _median_ms(rejects), "unit": "ms",
                                         "n": len(rejects)}
    out.info["raw_throughput_per_s"] = {"value": n / sum(raw_latencies), "unit": "1/s", "n": n}
    out.info["raw_latency_p50_ms"] = {"value": _median_ms(raw_latencies), "unit": "ms", "n": n}
    out.info["machine_speed"] = cal.speed()
    out.info["monitor"] = {"t": gates["plain"].state.t,
                           "log_e_mix": gates["plain"].state.log_e_mix}
    out.info["input"] = {
        "feasible_quotes": n,
        "infeasible_quotes": len(rejects),
        "mix": gen.mix_of(slots),
        "shape_repeat_share": gen.repeat_share(shapes),
        "shape_repeat_share_per_deck": statistics.mean(
            gen.repeat_share(shapes[i:i + gen.DECK_SIZE])
            for i in range(0, len(shapes), gen.DECK_SIZE)),
        "input_bytes": 8 * n_values,
    }
    return out


# --- simulate-study ----------------------------------------------------------

STUDY_COMMANDS = ("simulate", "regret", "gate", "predict")


def _study_pass(files: dict, suffix: str, tracer: Tracer | None,
                out: Outcome) -> tuple[list[float], dict] | None:
    f = {k: str(v) for k, v in files.items()}
    argvs = {
        "simulate": ["simulate", f["scenario"], "--out", f["bets" + suffix],
                     "--ecdf-out", f["ecdf" + suffix]],
        "regret": ["regret", f["bets" + suffix], "--out", f["regret" + suffix]],
        "gate": ["gate", f["bets" + suffix], "--out", f["gate" + suffix]],
        "predict": ["predict", f["scenario"], "--out", f["predict" + suffix]],
    }
    times = []
    for command in STUDY_COMMANDS:
        code, seconds = run_cli(argvs[command], tracer)
        if not out.check(code == 0, f"{command} exited with {code}"):
            return None
        times.append(seconds)
    digests = {name: sha256_file(files[name + suffix])
               for name in ("bets", "ecdf", "regret", "gate", "predict")}
    return times, digests


def _check_study(out: Outcome, files: dict, cells: int, tag: str) -> None:
    bets = read_jsonl(files["bets"])
    out.check(len(bets) == cells, f"{tag}: {len(bets)} bets for {cells} cells")
    relations = {}
    for i, bet in enumerate(bets):
        kind = bet["clique_id"].rsplit("-", 1)[0]
        if kind not in relations:
            relations[kind] = gen.relation_of(
                kind, {"neg": 2, "and": 3, "or": 3}.get(kind, gen.STUDY_M))
        relation = relations[kind]
        want = expected_eps(relation, np.asarray(bet["naive"], dtype=float))
        out.check(abs(bet["eps_star"] - want) <= EPS_TOL
                  and is_member(build_polytope(relation), np.asarray(bet["repaired"])),
                  f"{tag} bet {i + 1}: eps_star {bet['eps_star']!r} vs {want!r}, "
                  f"or repaired quote incoherent")
    for name in ("regret", "gate"):
        n = json.loads(files[name].read_text())["n"]
        out.check(n == cells, f"{tag}: {name} scored {n} bets for {cells} cells")
    predictions = read_jsonl(files["predict"])
    cliques = cells // gen.STUDY_SEEDS
    out.check(len(predictions) == cliques
              and all(math.isfinite(p["predicted"]) and p["predicted"] >= 0.0
                      and math.isfinite(p["observed"]) and p["observed"] >= 0.0
                      for p in predictions),
              f"{tag}: predictions malformed or not one per clique")


def simulate_study(ctx: Context) -> Outcome:
    out = Outcome()
    files = {"scenario": ctx.work / "scenario.cfg"}
    for suffix in ("", "_traced"):
        for name, ext in (("bets", "jsonl"), ("ecdf", "csv"), ("regret", "json"),
                          ("gate", "json"), ("predict", "jsonl")):
            files[name + suffix] = ctx.work / f"{name}{suffix}.{ext}"
    stage_s: dict[str, list[float]] = {c: [] for c in STUDY_COMMANDS}
    study_s, raw_study_s, total_cells = [], [], 0
    first_digests = None
    scenario_bytes = 0
    cal = Calibration()
    deadline = time.perf_counter() + ctx.seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        text, cells = gen.study_scenario(ctx.seed, round_index)
        scenario_bytes = len(text.encode())
        files["scenario"].write_text(text)
        before = cal.probe()
        timed = _study_pass(files, "", None, out)
        after = cal.probe()
        if timed is None:
            break
        times, digests = timed
        _check_study(out, files, cells, f"round {round_index}")
        scale = cal.scale(before, after)
        for command, seconds in zip(STUDY_COMMANDS, times):
            stage_s[command].append(seconds * scale)
        study_s.append(sum(times) * scale)
        raw_study_s.append(sum(times))
        total_cells += cells
        if round_index == 0:
            first_digests = digests
        if ctx.tracer is not None:
            traced = _study_pass(files, "_traced", ctx.tracer, out)
            if traced is None:
                break
            out.check(traced[1] == digests, f"round {round_index}: traced outputs differ")
            out.traced_s += sum(traced[0])
            out.untraced_s += sum(times)
        round_index += 1

    text, _ = gen.study_scenario(ctx.seed, 0)
    files["scenario"].write_text(text)
    again = _study_pass(files, "", None, out)
    if again is not None:
        out.check(again[1] == first_digests, "round 0 outputs differ between two invocations")

    rounds = len(study_s)
    if rounds:
        out.metrics["throughput_per_s"] = (total_cells / sum(study_s), "1/s", rounds)
        out.metrics["latency_p50_ms"] = (_median_ms(study_s), "ms", rounds)
        out.info["study_cells_per_s"] = {"value": total_cells / sum(study_s),
                                         "unit": "cells/s", "n": rounds}
        out.info["stage_p50_ms"] = {c: _median_ms(v) for c, v in stage_s.items()}
        out.info["raw_throughput_per_s"] = {"value": total_cells / sum(raw_study_s),
                                            "unit": "1/s", "n": rounds}
        out.info["raw_latency_p50_ms"] = {"value": _median_ms(raw_study_s), "unit": "ms",
                                          "n": rounds}
        out.info["machine_speed"] = cal.speed()
    out.info["input"] = {"relations": ["neg", "and", "or", "partition", "ladder", "paraphrase"],
                         "m": gen.STUDY_M, "cliques": 6 * gen.STUDY_CLIQUES,
                         "cells_per_round": 6 * gen.STUDY_CLIQUES * gen.STUDY_SEEDS,
                         "predict_draws_per_clique": "4^m exhaustive",
                         "rounds": rounds, "input_bytes": scenario_bytes}
    out.info["output_sha256_round0"] = first_digests
    return out


WORKLOADS = {
    "records-batch": records_batch,
    "gate-online": gate_online,
    "simulate-study": simulate_study,
}


def run_workload(name: str, ctx: Context) -> Outcome:
    """Run one workload; an unexpected exception is reported and counted as a failure."""
    try:
        return WORKLOADS[name](ctx)
    except Exception:
        traceback.print_exc()
        out = Outcome()
        out.check(False, f"{name} raised {sys.exc_info()[1]!r}")
        return out
