"""The benchmark's span recorder can still find and wrap what it traces.

``perfbench/bench_trace.py`` rebinds every function named in its ``TRACED``
table and wraps ``CompositionSpec.has_feasible_point`` on the class; it
reads ``iterations`` and ``converged`` off ``project_hierarchical``'s
result and labels each composition by ``comp.coupling.constraints``. A
rename, or turning one of them into a property, breaks ``--trace 1`` runs;
these tests catch that here instead.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import coherify.cli  # noqa: F401 -- the tracer finds every traced layer among loaded modules
import coherify.composition as composition
from coherify.composition import ComponentSpec, CompositionSpec, CouplingConstraint
from coherify.polytope import build_polytope, partition
from coherify.projection import project_hierarchical

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
bench_trace = pytest.importorskip("bench_trace")
bench_inputs = pytest.importorskip("bench_inputs")

TRACED_NAMES = [f"{layer}.{attr}" for layer, attrs in bench_trace.TRACED.items()
                for attr in attrs]


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_traced_name_resolves_to_a_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"coherify.{layer}")
    assert inspect.isfunction(getattr(module, attr, None)), name


def test_has_feasible_point_is_a_plain_method():
    assert inspect.isfunction(CompositionSpec.__dict__["has_feasible_point"])


def test_tracer_records_and_restores():
    original = composition.residual
    # a sole owner brings a partition polytope, which residual repairs locally; the
    # equality cut makes the joint set a generic block, which the active-set solver projects
    comp = CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),),
                           (CouplingConstraint("equality", (0, 1)),), 3)
    assert [block.kind for block in comp.system.blocks] == ["generic"]
    tracer = bench_trace.Tracer()
    with tracer.recording():
        composition.residual(comp, [np.full(3, 0.5)])  # through the module, as rebound
        comp.has_feasible_point()
    assert tracer.calls["composition.residual"] == 1
    assert tracer.calls["composition.has_feasible_point"] == 1
    # once, for the local repair; the joint projection does not go through it
    assert tracer.calls["projection.project_local"] == 1
    assert composition.residual is original
    assert inspect.isfunction(CompositionSpec.__dict__["has_feasible_point"])


def test_the_infeasible_quotes_keep_their_coupling_kind():
    # the traced run labels every residual call, the gate-online rejects included
    kinds = [bench_trace.coupling_kind(quote.infeasible)
             for quote in bench_inputs.infeasible_quotes(3)]
    assert kinds == ["partition", "neg", "partition", "other", "other", "partition"]


def test_project_hierarchical_reports_what_the_tracer_reads():
    comp = CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),),
                           (CouplingConstraint("equality", (0, 1)),), 3)
    result = project_hierarchical(comp, np.full(3, 0.5))
    kind, observed = bench_trace.OBSERVERS["projection.project_hierarchical"]((comp,), {}, result)
    assert (kind, observed) == (None, {"iterations": 1, "nonconverged": 0})
