"""coherify benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; coherify is imported from its ``src/``
directory and nowhere else. Workloads (``BENCHMARK.json`` says why each
was chosen):

- ``records-batch``: ``coherify project`` on a clique file, then ``coherify
  certify`` on a composition file, per round, through ``coherify.cli.main``.
- ``gate-online``: one closed-loop caller, one quote in flight:
  ``composition_for`` -> ``residual`` -> ``monitor.update`` per quote, plus a
  fixed number of infeasible compositions that must be rejected.
- ``simulate-study``: ``simulate``, ``regret``, ``gate``, ``predict`` per round
  on one scenario file.

End-to-end metrics (``--trace 0``), reported for every workload:

- ``throughput_per_s``: work items per second of timed work: records through
  project and certify, feasible quotes, or (clique, seed) cells of the study.
- ``latency_p50_ms``: median time a caller waits for one result: one feasible
  quote, one round of project + certify jobs, or one four-stage study.
- ``setup_s``: median over several fresh processes of the time to import
  coherify and its CLI and report ready.
- ``peak_rss_mb``: peak resident memory of the workload process.

Times are reported at a reference machine speed: every timed unit is
bracketed by a fixed calibration kernel, and scaled to the speed at which
that kernel takes ``REFERENCE_KERNEL_S`` (see ``bench_workloads``). Shared
hosts drift by 20-30% over minutes; the scaling removes most of that drift.
The raw wall-clock figures and the measured machine speed are printed too.

Workload-specific figures (project and certify records/s, quote p99, reject
latency, study cells/s, input properties, failed share, source line count)
are printed on the lines before the result. ``--trace 1`` instead reports
the per-layer metrics from a span recorder around every public coherify
function, writes the spans to ``.bench_build/perfbench/``, and reports the
tracing overhead against untraced passes over the same inputs.

The last line of standard output is the result object. Exit codes: 0 all
outputs correct, 1 a correctness check failed, 2 the benchmark cannot run
(for example no coherify sources under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One thread for numpy's BLAS too: the workload is a single-threaded process.
THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("records-batch", "gate-online", "simulate-study")
SETUP_SPAWNS = 7
READY = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import coherify, coherify.cli; print('ready', flush=True)")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_coherify():
    """Import coherify from this checkout's ``src/``, refusing any other copy."""
    package = SRC / "coherify"
    if not (package / "__init__.py").is_file():
        die(f"no coherify sources at {package}; run from the root of a coherify checkout")
    sys.path.insert(0, str(SRC))
    import coherify

    if Path(coherify.__file__).resolve().parent != package.resolve():
        die(f"imported coherify from {coherify.__file__}, not from {package}")
    return coherify


def measure_setup(cal) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to coherify being imported and ready.

    Returns (reference-speed seconds, raw seconds); each spawn is bracketed
    by speed probes, as every other timed unit is.
    """
    samples, scaled = [], []
    before = cal.probe()
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY, str(SRC)], cwd=ROOT,
                                stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("set-up probe did not exit")
        if line.strip() != b"ready" or code != 0:
            die(f"set-up probe failed with exit code {code}")
        after = cal.probe()
        scaled.append(samples[-1] * cal.scale(before, after))
        before = after
    return scaled, samples


def source_lines() -> int:
    return sum(p.read_text().count("\n") for p in sorted((SRC / "coherify").glob("*.py")))


def select(wanted: list[dict], measured: dict[str, tuple[float, str]]) -> dict:
    """The metrics ``BENCHMARK.json`` lists, in its order, with its units."""
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            die(f"metric {name} was not measured")
        value, unit = measured[name]
        if unit != entry["unit"]:
            die(f"metric {name} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_one(args, spec: dict) -> int:
    load_coherify()
    import bench_workloads
    from bench_trace import Tracer, overhead_share

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    setup, raw_setup = measure_setup(bench_workloads.Calibration())
    tracer = Tracer() if args.trace else None
    ctx = bench_workloads.Context(work, args.seed, args.seconds, tracer)
    started = time.perf_counter()
    outcome = bench_workloads.run_workload(args.workload, ctx)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.info["raw_setup_s"] = {"value": statistics.median(raw_setup), "unit": "s",
                                   "n": len(raw_setup)}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "wall_s": wall_s,
        "failed_share": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "source_lines": source_lines(),
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        **outcome.info,
    }
    if outcome.problems:
        report["problems"] = outcome.problems

    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}")
    if args.trace:
        spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        overhead = overhead_share(outcome.traced_s, outcome.untraced_s)
        report["tracing"] = {"traced_s": outcome.traced_s, "untraced_s": outcome.untraced_s,
                             "overhead_share": overhead, "spans": str(spans_path.relative_to(ROOT)),
                             "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "overhead_share": overhead})
        metrics = select(spec["per_layer"], tracer.per_layer())
        print(f"  tracing overhead {overhead:+.1%} ({outcome.traced_s:.3f} s traced vs "
              f"{outcome.untraced_s:.3f} s untraced); spans in {spans_path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    else:
        measured = {name: (value, unit) for name, (value, unit, _) in outcome.metrics.items()}
        measured["setup_s"] = (statistics.median(setup), "s")
        measured["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = select(spec["end_to_end"], measured)
        counts = {name: n for name, (_, _, n) in outcome.metrics.items()}
        counts["setup_s"] = len(setup)
        counts["peak_rss_mb"] = 1
        report["samples"] = counts
        for name, m in metrics.items():
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<6} n={counts[name]}")
    for name, figure in outcome.info.items():
        if isinstance(figure, dict) and "unit" in figure:
            print(f"  {name:<24} {figure['value']:>14.6g} {figure['unit']:<9} n={figure['n']}")
    print(f"  failed_share {report['failed_share']:.6g}, src/coherify lines "
          f"{report['source_lines']}, machine speed {outcome.info.get('machine_speed', 0):.3f} "
          f"x reference")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": outcome.failed == 0 and outcome.attempted > 0,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if outcome.failed == 0 and outcome.attempted > 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if len(lines) >= 2 and lines[-1].startswith("{"):
            samples = json.loads(lines[-2])["report"].get("samples", {})
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"], samples.get(name, "")))
            rows.append((workload, "failed", result["failed"], "of", result["attempted"]))
    print()
    for workload, name, value, unit, n in rows:
        print(f"{workload:<16} {name:<48} {value:>14.6g} {unit:<6} {f'n={n}' if n != '' else ''}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for variable in THREAD_LIMITS:
        os.environ.setdefault(variable, "1")
    if not 0 < args.seconds <= 60:
        die("--seconds must be in (0, 60]")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
