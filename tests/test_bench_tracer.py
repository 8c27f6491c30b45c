"""The benchmark's outside-in tracer names public functions of the package
by module and name; a rename or deletion would silently drop their spans."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{fn}"
        for module, fns in tracer.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"datacomplexity.{module}"), fn, None))
    ]
    assert missing == []
