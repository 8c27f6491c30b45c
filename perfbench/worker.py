"""Benchmark worker: one fresh process that runs a workload's jobs through
``datacomplexity.cli.main`` in process, one after another, and prints its
measurements as one JSON line on stdout.

Modes: ``--import-only`` times the import of ``datacomplexity.cli`` and
exits; the default runs whole passes over the jobs until ``--seconds`` of
job time are used; ``--traced`` runs one pass under the outside-in tracer.
Only the ``cli.main`` calls are timed; reading and checking the reports
happens between them.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
OUTPUT_SUFFIXES = (".json", ".csv")


def _run_pass(cli, check, jobs: dict, seed: int, outdir: Path, at_reference: bool, tracer) -> dict:
    results = {}
    for job, argv in jobs.items():
        out = outdir / f"{job}.json"
        for suffix in OUTPUT_SUFFIXES:
            out.with_suffix(suffix).unlink(missing_ok=True)
        if tracer is not None:
            tracer.job = job
        error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.main([*argv, "--seed", str(seed), "--output", str(out)])
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.job = None

        outputs = {}
        for suffix in OUTPUT_SUFFIXES:
            path = out.with_suffix(suffix)
            if path.is_file():
                outputs[suffix] = path.read_text(encoding="utf-8")
        if error is None and rc != 0:
            error = f"exit code {rc}"
        problem = error or check.report_problem(job, outputs, at_reference)
        digest = hashlib.sha256("\0".join(outputs.get(s, "") for s in OUTPUT_SUFFIXES).encode()).hexdigest()
        results[job] = {"wall_s": wall, "cpu_s": cpu, "problem": problem, "digest": digest}
    return {
        "wall_s": sum(r["wall_s"] for r in results.values()),
        "cpu_s": sum(r["cpu_s"] for r in results.values()),
        "jobs": results,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _library_context() -> dict:
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "jsonschema": version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import datacomplexity.cli as cli

    import_s = time.perf_counter() - t0
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    import check  # after the timed import: it loads jsonschema and the report schema

    jobs = WORKLOADS["workloads"][args.workload]["jobs"]
    at_reference = args.seed == WORKLOADS["reference_seed"]
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    try:
        while True:
            passes.append(_run_pass(cli, check, jobs, args.seed, args.outdir, at_reference, tracer))
            used = sum(p["wall_s"] for p in passes)
            # Start another pass only if it is expected to end by --seconds
            # plus a quarter of a pass, so that a run overruns by little.
            if tracer is not None or used + 0.75 * used / len(passes) >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "import_s": import_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": _library_context(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans is not None:
            tracer.write_spans(str(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
