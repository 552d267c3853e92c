"""The benchmark's tracer wraps package functions by name; they must exist.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``WRAPPED`` table when a ``--trace 1`` run starts, so a refactor that
drops or renames one of them breaks the traced benchmark.  The perfbench
smoke test is outside ``testpaths``; this test reads the table here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        "%s.%s" % (module.__name__, attr)
        for module, attr, _layer in tracer.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, "perfbench wraps missing attributes: %s" % missing
