"""The benchmark's modules use package names; they must exist.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``WRAPPED`` table when a ``--trace 1`` run starts, and
``perfbench/workloads.py`` imports and calls package functions, so a
refactor that drops or renames one of them breaks the benchmark.  The
perfbench smoke test is outside ``testpaths``; these tests load the
modules here.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    assert tracer.WRAPPED
    missing = [
        "%s.%s" % (module.__name__, attr)
        for module, attr, _layer in tracer.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, "perfbench wraps missing attributes: %s" % missing


def test_workloads_load_and_judge_their_smoke_cases(monkeypatch):
    # workloads.py imports tracer as a sibling module, as run.py does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load("workloads", monkeypatch)
    for name in ("corpus", "coeffs"):
        specs_of, run = workloads.WORKLOADS[name]
        specs, _defects = specs_of(7, True)
        assert specs
        assert [run(spec).problems for spec in specs] == [[]] * len(specs), name


def test_the_residual_replay_runs_through_the_traced_kernel(monkeypatch):
    """``invariance_residual`` replays a branch through ``expansion.transform_form``,
    the attribute the tracer wraps, so each replayed step is a span under it."""
    from fractions import Fraction

    from puiseuxform import expansion, gen_case

    case = gen_case((Fraction(3, 2), Fraction(7, 4)), 0)
    shifts = sum(1 for s in case.branch.steps if s.c)
    assert shifts > 1
    tracer = _load("tracer", monkeypatch).Tracer()
    tracer.install()
    try:
        expansion.invariance_residual(case.form, case.branch)
    finally:
        tracer.uninstall()
    names = [name for name, _start, _end, _parent, _case in tracer.spans]
    assert names == ["expansion.invariance_residual"] + ["expansion.transform_form"] * shifts
    assert [span[3] for span in tracer.spans[1:]] == [0] * shifts
