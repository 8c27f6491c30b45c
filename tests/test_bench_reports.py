"""Every benchmark job, run at the reference seed, must write reports that
pass the benchmark's own check against the committed references in
perfbench/reference (floats to the check's relative tolerance)."""

import importlib.util
import json
from pathlib import Path

import pytest

from datacomplexity.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
JOBS = {job: argv for workload in WORKLOADS["workloads"].values() for job, argv in workload["jobs"].items()}


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("perfbench_check", BENCH_DIR / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("job", list(JOBS))
def test_job_matches_reference(job, check, tmp_path, capsys):
    seed = WORKLOADS["reference_seed"]
    assert main([*JOBS[job], "--seed", str(seed), "--output", str(tmp_path / f"{job}.json")]) == 0
    outputs = {path.suffix: path.read_text(encoding="utf-8") for path in tmp_path.iterdir() if path.stem == job}
    assert check.report_problem(job, outputs, at_reference=True) is None
