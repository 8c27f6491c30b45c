"""End-to-end benchmark of the datacomplexity CLI verbs.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {profile,qprofile,barren} --seed N \
        --seconds S --trace {0,1}

Load model: a closed loop with one client. A fresh worker process calls
``datacomplexity.cli.main`` once per job of the workload, one job after
another, in whole passes over the jobs until about S seconds of job time are
used. The jobs and why each workload was chosen are in ``workloads.json``.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
the pass time (each job's median over the passes, summed), the worker's peak
RSS, the median import time of
``datacomplexity.cli`` over several fresh processes, and the share of jobs
that passed their checks. With ``--trace 1`` it makes the same untraced run
and then two traced passes, each in its own fresh process, and reports the
per-layer metrics. Counts must repeat exactly across the two traced passes
and every report must equal the untraced one byte for byte.

The second-to-last stdout line is a JSON record of the run (machine, library
versions, BLAS threads, git commit, ``src/`` line count, per-pass and per-job
times, failures); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import COUNT_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} took longer than {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds() -> list[float]:
    """Import times of datacomplexity.cli in fresh processes. A first,
    discarded import writes the bytecode caches of a fresh checkout."""
    _worker(["--import-only"], WORKER_TIMEOUT_S)
    return [_worker(["--import-only"], WORKER_TIMEOUT_S)["import_s"] for _ in range(SETUP_PROBES)]


def _failures(runs: list[dict], label: str, digests: dict) -> list[str]:
    """One entry per failed job run: a job problem, or a report that differs
    from the first untraced one."""
    found = []
    for r, run in enumerate(runs):
        for p, one_pass in enumerate(run["passes"]):
            for job, res in one_pass["jobs"].items():
                if res["problem"]:
                    found.append(f"{label}{r + 1} pass {p + 1} {job}: {res['problem']}")
                elif res["digest"] != digests[job]:
                    found.append(f"{label}{r + 1} pass {p + 1} {job}: report differs from the first untraced pass")
    return found


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _run_context(worker_context: dict) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **worker_context,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _pass_seconds(passes: list[dict]) -> float:
    """Time of one pass, as the sum over jobs of each job's median time over
    the passes: a slow spell of the machine that hits one job in one pass
    does not move it."""
    return sum(_median([p["jobs"][job]["wall_s"] for p in passes]) for job in passes[0]["jobs"])


def _layer_value(name: str, jobs: dict, untraced: dict, traced: list[dict]) -> float:
    if name.startswith("cli.job.") and name.endswith(".s"):
        job = name[len("cli.job."):-len(".s")]
        return _median([p["jobs"][job]["wall_s"] for p in untraced["passes"]]) if job in jobs else 0.0
    if name == "process.cpu_s":
        return _median([p["cpu_s"] for p in untraced["passes"]])
    if name == "trace.overhead_ratio":
        return _median([t["passes"][0]["wall_s"] for t in traced]) / _pass_seconds(untraced["passes"])
    if name in COUNT_NAMES:
        return traced[0]["trace"]["counts"].get(name, 0)
    span, field = name.rsplit(".", 1)
    if name == "cli.self_s":
        span, field = "cli.main", "self_s"
    if span not in SPAN_NAMES:
        raise BenchError(f"per-layer metric {name!r} names no traced function")
    if field == "calls":
        return traced[0]["trace"]["calls"].get(span, 0)
    if field == "calls_per_job":
        return traced[0]["trace"]["calls"].get(span, 0) / len(jobs)
    key = {"s": "inclusive_s", "self_s": "self_s"}.get(field)
    if key is None:
        raise BenchError(f"per-layer metric {name!r} has an unknown field")
    return _median([t["trace"][key].get(span, 0.0) for t in traced])


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    jobs = WORKLOADS["workloads"][workload]["jobs"]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        setup = [] if trace else _setup_seconds()
        common = ["--workload", workload, "--seed", str(seed), "--outdir", str(tmp)]
        untraced = _worker([*common, "--seconds", str(seconds)], seconds + WORKER_TIMEOUT_S)
        first = untraced["passes"][0]["jobs"]
        digests = {job: res["digest"] for job, res in first.items()}
        failures = _failures([untraced], "untraced run ", digests)
        traced = []
        if trace:
            for i in (1, 2):
                spans = OUT_DIR / f"spans-{workload}-{i}.jsonl"
                traced.append(_worker([*common, "--traced", "--spans", str(spans)], WORKER_TIMEOUT_S))
            failures += _failures(traced, "traced run ", digests)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = [
        f"traced {key} differ between the two traced runs"
        for key in ("calls", "calls_by_job", "counts")
        if traced and traced[0]["trace"][key] != traced[1]["trace"][key]
    ]

    attempted = sum(len(p["jobs"]) for r in [untraced, *traced] for p in r["passes"])
    failed = len(failures)
    walls = [p["wall_s"] for p in untraced["passes"]]
    if trace:
        values = {m["name"]: _layer_value(m["name"], jobs, untraced, traced) for m in bench["per_layer"]}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {
            "wall_s": _pass_seconds(untraced["passes"]),
            "peak_rss_mb": untraced["peak_rss_mb"],
            "setup_s": _median(setup),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    missing = units.keys() - values.keys()
    if missing:
        raise BenchError(f"no value for metrics {sorted(missing)}")

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load_model": WORKLOADS["load_model"],
        "context": _run_context(untraced["context"]),
        "passes": len(walls),
        "pass_wall_s": walls,
        "job_wall_s": {job: [p["jobs"][job]["wall_s"] for p in untraced["passes"]] for job in jobs},
        "setup_s_samples": setup,
        "failures": failures + problems,
    }
    if trace:
        record["traced_pass_wall_s"] = [t["passes"][0]["wall_s"] for t in traced]
        record["calls_by_job"] = traced[0]["trace"]["calls_by_job"]
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the datacomplexity CLI verbs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["workloads"]))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
