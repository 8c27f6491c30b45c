"""Outside-in tracer for the datacomplexity modules.

The tracer wraps public functions from the benchmark's side: every
``datacomplexity.*`` module attribute that *is* a listed function is rebound
to a wrapper, so calls through names imported elsewhere (``from .qmetrics
import ensemble_gram``) and through module globals (``run_circuit`` calling
``run_with_angles``) are both seen. ``SeededRng.child`` is wrapped on the
class. Private ``_`` helpers are never wrapped. The program is not changed.

Each call records a span (name, start, end, parent span, job id) in memory;
``write_spans`` writes them out once the traced pass is over. Counters that
the program does not expose are taken from the arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# Module -> public functions wrapped in that module. Span names are
# "<module>.<function>".
TRACED = {
    "cli": ("main",),
    "report": ("profile_classical", "profile_quantum", "barren_study_report"),
    "synthetic": ("generate",),
    "dataset": ("standardize",),
    "classical": (
        "interaction_order",
        "joint_cumulant",
        "distributional_entropy",
        "compression_ratio",
        "covariance_spectrum",
        "kernel_gram",
        "gram_spectrum",
    ),
    "topology": ("distance_matrix_from_points", "rips_filtration", "persistence_diagram"),
    "simulator": ("run_with_angles", "encode", "partial_trace"),
    "qmetrics": (
        "gradient_variance_study",
        "gradient",
        "expressibility_kl",
        "von_neumann_entropy",
        "topological_entanglement_entropy",
        "ensemble_gram",
        "fidelity_distances",
        "schmidt_rank",
        "collective_z_qfi",
    ),
    "scoring": (
        "embed_dataset",
        "quantum_topology_detail",
        "induced_complexity",
        "quantum_complexity",
        "mean_bipartite_entropy",
    ),
}
RNG_CHILD = "config.SeededRng.child"
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns) + (RNG_CHILD,)
COUNT_NAMES = (
    "topology.simplices.d0",
    "topology.simplices.d1",
    "topology.simplices.d2",
    "topology.simplices.d3",
    "simulator.gates_applied",
    "simulator.amp_bytes_computed",
)

# One amplitude is a complex128 (16 bytes) that a gate reads and writes.
BYTES_PER_AMPLITUDE_PER_GATE = 32


def _count_filtration(counts, args, kwargs, filtration):
    for dim, group in enumerate(filtration.by_dim):
        counts[f"topology.simplices.d{dim}"] += len(group)


def _count_circuit_run(counts, args, kwargs, state):
    circuit = args[0] if args else kwargs["c"]
    gates = len(circuit.gates)
    counts["simulator.gates_applied"] += gates
    counts["simulator.amp_bytes_computed"] += gates * BYTES_PER_AMPLITUDE_PER_GATE * 2**circuit.n_qubits


def _count_encode(counts, args, kwargs, state):
    # An angle map applies one rotation per feature to |0...0>; basis and
    # amplitude maps write the amplitudes directly and apply no gate.
    fm = args[0] if args else kwargs["fm"]
    if fm.kind == "angle":
        x = args[1] if len(args) > 1 else kwargs["x"]
        gates = len(x)
        counts["simulator.gates_applied"] += gates
        counts["simulator.amp_bytes_computed"] += gates * BYTES_PER_AMPLITUDE_PER_GATE * 2**fm.n_qubits


COUNTERS = {
    "topology.rips_filtration": _count_filtration,
    "simulator.run_with_angles": _count_circuit_run,
    "simulator.encode": _count_encode,
}


class Tracer:
    """Spans and counters of the wrapped functions; install() / restore()."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        by_name = {m: importlib.import_module(f"datacomplexity.{m}") for m in (*TRACED, "config")}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "datacomplexity"]
        for short, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(by_name[short], fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        rng_cls = by_name["config"].SeededRng
        original = rng_cls.__dict__["child"]
        self._restore.append((rng_cls, "child", original))
        rng_cls.child = self._wrap(RNG_CHILD, original)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "job": job}) + "\n")

    def summary(self) -> dict:
        """Inclusive time, self time and calls per span name, calls per job,
        and the counters. Times are in seconds."""
        children = defaultdict(list)
        for name, start, end, parent, job in self.spans:
            children[parent].append((start, end))
        intervals = defaultdict(list)
        self_ns = Counter()
        calls = Counter()
        calls_by_job: dict = defaultdict(Counter)
        for sid, (name, start, end, parent, job) in enumerate(self.spans):
            intervals[name].append((start, end))
            self_ns[name] += (end - start) - _union_ns(children.get(sid, ()))
            calls[name] += 1
            calls_by_job[job][name] += 1
        return {
            "inclusive_s": {n: _union_ns(iv) / 1e9 for n, iv in intervals.items()},
            "self_s": {n: v / 1e9 for n, v in self_ns.items()},
            "calls": dict(calls),
            "calls_by_job": {job: dict(c) for job, c in calls_by_job.items()},
            "counts": dict(self.counts),
        }


def _union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals; a span of a function
    nested in a span of the same name is counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
