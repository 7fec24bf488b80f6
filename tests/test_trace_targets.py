"""The benchmark tracer's targets name functions that exist.

``perfbench/spans.py`` wraps each ``(module, function)`` of ``TARGETS`` and
``COUNTED`` by ``getattr``, so a renamed or deleted function would break
``perfbench/run.py --trace 1``.  The file is only read here.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_is_a_stabsynth_callable():
    # run_path compiles the source in memory and writes no bytecode cache.
    spans = runpy.run_path(str(SPANS))
    names = [(mod, fn) for mod, fn, _ in spans["TARGETS"]] + list(spans["COUNTED"])
    assert names
    for mod_name, fn_name in names:
        module = importlib.import_module(f"stabsynth.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
