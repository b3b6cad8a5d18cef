"""Span recorder for the traced run.

``Tracer.install`` wraps the public coherify functions named in ``TRACED``
and rebinds each wrapper under every name that points at the original in
any loaded ``coherify`` module, so calls between modules are seen as well as
calls from the benchmark. ``CompositionSpec.has_feasible_point`` is wrapped
on the class. ``uninstall`` restores the originals, so untraced passes run
the program untouched.

Each span records its operation id, its own id, its parent's id, its name,
start and end. Spans are kept in memory and written when the run ends;
per-layer totals (calls, self time, inclusive time and a few result
fields) are accumulated as spans close, so the metrics cover every call
even when the kept span list reaches its cap.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

import coherify
from coherify import InfeasibleCouplingError

TRACED = {
    "jsonio": ("parse_lines", "dump_lines"),
    "cli": ("composition_from_json", "cmd_project", "cmd_certify", "cmd_simulate",
            "cmd_regret", "cmd_gate", "cmd_predict"),
    "polytope": ("build_polytope", "enumerate_vertices", "is_member"),
    "projection": ("project_closed_form", "project_dykstra", "project_relation",
                   "project_oracle", "project_local", "project_hierarchical",
                   "project_polytope_batch"),
    "composition": ("residual",),
    "monitor": ("update",),
    "simharness": ("run_ensemble", "generate_panel", "composition_for", "to_bet_records"),
    "prediction": ("panel_stats", "predict_magnitude", "observe_magnitude"),
    "decision": ("regret", "gate_sweep", "murphy"),
}

SPAN_CAP = 200_000  # spans kept for the trace file; totals keep counting past it

RELATION_KINDS = ("neg", "and", "or", "partition", "ladder", "paraphrase")


def coupling_kind(comp) -> str:
    """Catalog relation a composition's coupling cuts express, or 'other'."""
    cuts = comp.coupling.constraints
    kinds = {c.kind for c in cuts}
    if kinds == {"negation-sum"}:
        return "neg"
    if kinds == {"partition-sum"} and len(cuts) == 1:
        return "partition"
    if kinds == {"ladder-chain"}:
        return "ladder"
    if kinds == {"equality"}:
        return "paraphrase"
    if kinds == {"frechet-halfspace"} and len(cuts) == 3:
        return "and" if cuts[0].a == (-1.0, 1.0) else "or"
    return "other"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Per traced function: what to note about a call besides its time. Each
# returns (sub-kind or None, {observation: value}).
def _relation_kind(args, kwargs, result):
    return _arg(args, kwargs, 0, "relation").kind.value, {}


def _dykstra(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    kind = spec.relation.kind.value if spec.relation is not None else "other"
    if result is None:
        return kind, {}
    return kind, {"iterations": result.iterations, "nonconverged": int(not result.converged)}


def _iterations(args, kwargs, result):
    if result is None:
        return None, {}
    return None, {"iterations": result.iterations, "nonconverged": int(not result.converged)}


def _batch_rows(args, kwargs, result):
    return None, {"rows": int(np.shape(_arg(args, kwargs, 1, "X"))[0])}


def _residual(args, kwargs, result):
    return coupling_kind(_arg(args, kwargs, 0, "comp")), {}


def _cells(args, kwargs, result):
    return None, {"cells": len(result) if result is not None else 0}


OBSERVERS = {
    "projection.project_relation": _relation_kind,
    "projection.project_closed_form": _relation_kind,
    "projection.project_dykstra": _dykstra,
    "projection.project_oracle": _iterations,
    "projection.project_hierarchical": _iterations,
    "projection.project_polytope_batch": _batch_rows,
    "composition.residual": _residual,
    "simharness.run_ensemble": _cells,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.kind_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.kind_s: dict[tuple[str, str], float] = defaultdict(float)
        self.observed: dict[tuple[str, str], list] = defaultdict(list)
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._installed = False

    def begin_op(self) -> int:
        """Start a new operation; later spans carry its id until the next call."""
        self.op += 1
        return self.op

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.incl_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if error is not None:
                    self.errors[(name, error)] += 1
                if observe is not None:
                    kind, values = observe(args, kwargs, result)
                    if kind is not None and error is None:
                        self.kind_calls[(name, kind)] += 1
                        self.kind_s[(name, kind)] += duration
                    for key, value in values.items():
                        self.observed[(name, key)].append(value)
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.op, span_id, parent, name_index, t0, t1, error))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name to rebind."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "coherify" or n.startswith("coherify."))]
        bindings = []
        for layer, names in TRACED.items():
            module = sys.modules[f"coherify.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            bindings.append((mod, key, original, wrapper))
        spec = coherify.CompositionSpec
        original = spec.__dict__["has_feasible_point"]
        bindings.append((spec, "has_feasible_point", original,
                         self.wrap("composition.has_feasible_point", original)))
        return bindings

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._bindings or []):
            setattr(owner, key, original)
        self._installed = False

    @contextlib.contextmanager
    def recording(self):
        """Trace one operation: a fresh operation id and the wrappers installed."""
        self.begin_op()
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path, header: dict) -> None:
        """Spans as JSONL: one header line, then [op, id, parent, name, start_s, end_s, error]."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({**header, "names": self.names, "spans_kept": len(self.spans),
                                  "spans_dropped": self.dropped}) + "\n")
            for op, span_id, parent, name_index, t0, t1, error in self.spans:
                out.write(json.dumps([op, span_id, parent, self.names[name_index],
                                      round(t0 - base, 9), round(t1 - base, 9), error]) + "\n")

    # --- per-layer metrics ---------------------------------------------------

    def _mean(self, name: str, key: str) -> float:
        values = self.observed.get((name, key), [])
        return float(np.mean(values)) if values else 0.0

    def _us_per_call(self, name: str, kind: str | None = None) -> float:
        if kind is None:
            calls, seconds = self.calls.get(name, 0), self.incl_s.get(name, 0.0)
        else:
            calls, seconds = self.kind_calls.get((name, kind), 0), self.kind_s.get((name, kind), 0.0)
        return 1e6 * seconds / calls if calls else 0.0

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}

        def put(metric, value, unit):
            out[metric] = (float(value), unit)

        def calls(name):
            put(f"{name}.calls", self.calls.get(name, 0), "count")

        def self_s(name):
            put(f"{name}.self_s", self.self_s.get(name, 0.0), "s")

        for layer, names in TRACED.items():
            for attr in names:
                name = f"{layer}.{attr}"
                self_s(name)
        for name in ("cli.composition_from_json", "polytope.build_polytope",
                     "polytope.enumerate_vertices", "polytope.is_member",
                     "projection.project_closed_form", "projection.project_dykstra",
                     "projection.project_relation", "projection.project_oracle",
                     "projection.project_local", "projection.project_hierarchical",
                     "projection.project_polytope_batch", "composition.residual",
                     "composition.has_feasible_point", "monitor.update",
                     "simharness.generate_panel", "simharness.composition_for",
                     "prediction.observe_magnitude"):
            calls(name)
        self_s("composition.has_feasible_point")

        dykstra = "projection.project_dykstra"
        put(f"{dykstra}.iterations_mean", self._mean(dykstra, "iterations"), "iterations")
        put(f"{dykstra}.nonconverged", sum(self.observed.get((dykstra, "nonconverged"), [])),
            "count")
        for kind in ("and", "or", "paraphrase"):
            put(f"{dykstra}.{kind}.us_per_call", self._us_per_call(dykstra, kind), "us")
        relation = "projection.project_relation"
        for kind in RELATION_KINDS:
            put(f"{relation}.{kind}.us_per_call", self._us_per_call(relation, kind), "us")
        put("projection.project_oracle.majors_mean",
            self._mean("projection.project_oracle", "iterations"), "iterations")

        hier = "projection.project_hierarchical"
        iterations = self.observed.get((hier, "iterations"), [])
        nonconverged = sum(self.observed.get((hier, "nonconverged"), []))
        put(f"{hier}.iterations_mean", self._mean(hier, "iterations"), "iterations")
        put(f"{hier}.iterations_p99",
            float(np.percentile(iterations, 99)) if iterations else 0.0, "iterations")
        put(f"{hier}.nonconverged", nonconverged, "count")
        put(f"{hier}.converged_share",
            1.0 - nonconverged / len(iterations) if iterations else 0.0, "share")
        put("projection.project_polytope_batch.rows",
            sum(self.observed.get(("projection.project_polytope_batch", "rows"), [])), "count")

        residual = "composition.residual"
        put(f"{residual}.rejected",
            self.errors.get((residual, InfeasibleCouplingError.__name__), 0), "count")
        for kind in RELATION_KINDS:
            put(f"{residual}.{kind}.us_per_call", self._us_per_call(residual, kind), "us")

        put("monitor.update.us_per_call", self._us_per_call("monitor.update"), "us")
        ensemble = "simharness.run_ensemble"
        cells = sum(self.observed.get((ensemble, "cells"), []))
        put(f"{ensemble}.ms_per_cell",
            1e3 * self.incl_s.get(ensemble, 0.0) / cells if cells else 0.0, "ms")
        return out


def recording(tracer: Tracer | None):
    """``tracer.recording()``, or nothing when the pass is untraced."""
    return tracer.recording() if tracer is not None else contextlib.nullcontext()


def overhead_share(traced_s: float, untraced_s: float) -> float:
    """Extra wall time of the traced passes, as a share of the untraced passes."""
    return traced_s / untraced_s - 1.0 if untraced_s > 0 else math.nan
