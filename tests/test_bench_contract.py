"""The benchmark's span recorder can still find and wrap what it traces.

``perfbench/bench_trace.py`` rebinds every function named in its ``TRACED``
table and wraps ``CompositionSpec.has_feasible_point`` on the class. A
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
bench_trace = pytest.importorskip("bench_trace")

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
    # equality cut makes the joint set no catalog polytope, so it runs the cycle
    comp = CompositionSpec((ComponentSpec(build_polytope(partition(3)), (0, 1, 2)),),
                           (CouplingConstraint("equality", (0, 1)),), 3)
    assert comp.single_relation is None
    tracer = bench_trace.Tracer()
    with tracer.recording():
        composition.residual(comp, [np.full(3, 0.5)])  # through the module, as rebound
        comp.has_feasible_point()
    assert tracer.calls["composition.residual"] == 1
    assert tracer.calls["composition.has_feasible_point"] == 1
    # once for the local repair, once in the single cycle the repaired quote needs
    assert tracer.calls["projection.project_local"] == 2
    assert composition.residual is original
    assert inspect.isfunction(CompositionSpec.__dict__["has_feasible_point"])
