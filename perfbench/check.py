"""Correctness checks on the reports a job writes.

Every job must exit 0 and write a schema-v1 report without ``error:`` flags.
At the reference seed the report must also match the committed reference:
structure, strings, integers and flags exactly, floats to REL_TOL relative
(ABS_TOL absolute near zero). Floats get a tolerance, not byte equality,
because BLAS builds and thread counts may change the last digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import jsonschema
from datacomplexity.report import REPORT_SCHEMA_V1

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def json_mismatch(actual, expected, path: str = "$") -> str | None:
    """First difference between two decoded JSON values, or None."""
    if type(actual) is not type(expected):
        return f"{path}: type {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = json_mismatch(actual[key], expected[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            found = json_mismatch(a, e, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float):
        return None if _close(actual, expected) else f"{path}: {actual!r} != {expected!r}"
    return None if actual == expected else f"{path}: {actual!r} != {expected!r}"


def csv_mismatch(actual: str, expected: str) -> str | None:
    """First difference between two CSV texts; numeric cells compare as floats."""
    rows_a = list(csv.reader(io.StringIO(actual)))
    rows_e = list(csv.reader(io.StringIO(expected)))
    if len(rows_a) != len(rows_e):
        return f"csv: {len(rows_a)} rows != {len(rows_e)}"
    for r, (row_a, row_e) in enumerate(zip(rows_a, rows_e)):
        if len(row_a) != len(row_e):
            return f"csv row {r}: {len(row_a)} cells != {len(row_e)}"
        for a, e in zip(row_a, row_e):
            try:
                same = _close(float(a), float(e))
            except ValueError:
                same = a == e
            if not same:
                return f"csv row {r}: {a!r} != {e!r}"
    return None


def report_problem(job: str, outputs: dict[str, str], at_reference: bool) -> str | None:
    """Why a job's outputs are wrong, or None when they pass.

    `outputs` maps a file suffix (".json", ".csv") to the text written.
    """
    if ".json" not in outputs:
        return "no JSON report written"
    try:
        obj = json.loads(outputs[".json"])
        jsonschema.validate(obj, REPORT_SCHEMA_V1)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    except jsonschema.ValidationError as exc:
        return f"schema: {exc.message}"
    errors = [f for f in obj["flags"] if f.startswith("error:")]
    if errors:
        return f"error flags: {errors}"
    if not at_reference:
        return None
    for suffix, text in outputs.items():
        ref_path = REFERENCE_DIR / f"{job}{suffix}"
        if not ref_path.is_file():
            return f"no reference {ref_path.name}"
        expected = ref_path.read_text(encoding="utf-8")
        if suffix == ".json":
            found = json_mismatch(obj, json.loads(expected))
        else:
            found = csv_mismatch(text, expected)
        if found:
            return f"reference mismatch {suffix}: {found}"
    return None
