"""The benchmark's outside-in tracer names public functions of the package
by module and name, and its counters read some of their parameters; a
rename or deletion would silently drop their spans or break a traced run."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{fn}"
        for module, fns in tracer.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"datacomplexity.{module}"), fn, None))
    ]
    assert missing == []


def test_counted_parameters_keep_their_names_and_places():
    """The tracer's counters read a call's arguments by position or, passed
    by keyword, by name: the circuit `c` first in run_with_angles, and `fm`
    then `x` in encode. A renamed or reordered parameter would break the
    traced run without failing any other test."""
    from datacomplexity import simulator
    from datacomplexity.config import SeededRng

    tracer = load_tracer()
    circuit = simulator.random_layered_circuit(3, 2, SeededRng(0).child())
    calls = {
        "run_with_angles": (["c"], (circuit, circuit.rotation_angles(np.zeros(circuit.n_params)))),
        "encode": (["fm", "x"], (simulator.FeatureMap("angle", 4), [0.1, 0.2, 0.3])),
    }
    for name, (names, args) in calls.items():
        fn = getattr(simulator, name)
        params = list(inspect.signature(fn).parameters)
        assert params[: len(names)] == names, (name, params)
        counter = tracer.COUNTERS[f"simulator.{name}"]
        by_position, by_name = Counter(), Counter()
        counter(by_position, args, {}, fn(*args))
        counter(by_name, (), dict(inspect.signature(fn).bind(*args).arguments), None)
        assert by_position == by_name and by_position["simulator.gates_applied"] > 0, name
