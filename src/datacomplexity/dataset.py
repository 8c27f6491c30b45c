"""Dataset ingestion, standardization, and the canonical byte layout.

A :class:`Dataset` is an immutable N x d float64 matrix with column metadata.
Standardization is z-scoring with the sample (N-1) standard deviation so that
standardized columns have sample variance exactly 1, matching the k-statistic
conventions of the cumulant estimators. Constant columns are zeroed and
flagged rather than dropped, which keeps column indices aligned.

Files are CSV or JSON by their name alone: a .json extension (any case) is
JSON, anything else CSV.

The canonical byte layout used by the compression proxy is row-major
little-endian IEEE-754 float64 (see docs/serialization.md).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InsufficientSamples, ParseError

MEAN_TOL = 1e-9
STD_TOL = 1e-9


@dataclass(frozen=True)
class Dataset:
    matrix: np.ndarray
    column_names: tuple[str, ...]
    source: str = ""
    is_standardized: bool = False
    constant_columns: tuple[int, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ParseError(f"expected a 2-D matrix, got ndim={m.ndim}")
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise EmptyDataset("dataset must have at least one row and one column")
        if not np.all(np.isfinite(m)):
            raise ParseError("dataset contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if len(self.column_names) != m.shape[1]:
            raise ParseError("column_names length does not match column count")
        if self.is_standardized:
            keep = [j for j in range(m.shape[1]) if j not in self.constant_columns]
            if keep:
                mu = m[:, keep].mean(axis=0)
                if np.any(np.abs(mu) > MEAN_TOL):
                    raise ParseError("standardized dataset has non-zero column mean")
                if m.shape[0] >= 2:
                    sd = m[:, keep].std(axis=0, ddof=1)
                    if np.any(np.abs(sd - 1.0) > STD_TOL):
                        raise ParseError("standardized dataset has column std != 1")

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    def canonical_bytes(self) -> bytes:
        """Row-major little-endian float64 serialization of the matrix."""
        return np.ascontiguousarray(self.matrix, dtype="<f8").tobytes(order="C")

    def describe(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "source": self.source,
            "is_standardized": self.is_standardized,
            "constant_columns": list(self.constant_columns),
            "columns": list(self.column_names),
        }


def _default_names(d: int) -> tuple[str, ...]:
    return tuple(f"c{j}" for j in range(d))


def _parse_rows(rows: list[list[str]], source: str, has_header: bool) -> Dataset:
    if not rows:
        raise EmptyDataset(f"{source}: empty table")
    names: tuple[str, ...] | None = None
    if has_header:
        names = tuple(rows[0])
        rows = rows[1:]
        if not rows:
            raise EmptyDataset(f"{source}: header but no data rows")
    width = len(rows[0])
    if width == 0:
        raise EmptyDataset(f"{source}: empty rows")
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{source}: ragged row {i} (expected {width} cells, got {len(row)})")
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except (TypeError, ValueError):
                raise ParseError(f"{source}: non-numeric cell at (row {i}, col {j}): {cell!r}") from None
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise ParseError(f"{source}: non-finite value at (row {bad[0]}, col {bad[1]})")
    if names is None or len(names) != width:
        names = _default_names(width)
    return Dataset(matrix=out, column_names=names, source=source)


def _is_json(path: str) -> bool:
    """The format of a dataset file: JSON for a .json extension (any case), CSV otherwise."""
    return str(path).lower().endswith(".json")


def load_dataset(path: str, has_header: bool = False) -> Dataset:
    """Load a CSV or JSON table into a Dataset, by extension (_is_json).

    CSV is RFC-4180-style with '.' as the decimal separator. JSON is an
    array-of-arrays under the key "data" with an optional "columns" list.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not text.strip():
        raise EmptyDataset(f"{path}: empty file")

    if not _is_json(path):
        try:
            rows = [row for row in csv.reader(io.StringIO(text)) if row]
        except csv.Error as exc:
            raise ParseError(f"{path}: malformed CSV ({exc})") from None
        return _parse_rows(rows, str(path), has_header)

    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict) or "data" not in payload:
        raise ParseError(f"{path}: JSON input must be an object with a 'data' key")
    data = payload["data"]
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError(f"{path}: 'data' must be an array of arrays")
    rows = [[str(c) for c in row] for row in data]
    ds = _parse_rows(rows, str(path), has_header=False)
    columns = payload.get("columns")
    if columns is not None:
        if not isinstance(columns, list) or len(columns) != ds.n_features:
            raise ParseError(f"{path}: 'columns' must be an array as long as a data row")
        ds = Dataset(ds.matrix, tuple(str(c) for c in columns), source=str(path))
    return ds


def scale_by_max_magnitude(m: np.ndarray) -> np.ndarray:
    """Each column divided by its largest magnitude (an all-zero column by 1),
    so that ranges, means and squared deviations stay finite even for values
    near the float64 maximum."""
    scale = np.max(np.abs(m), axis=0)
    scale[scale == 0.0] = 1.0
    return m / scale


def standardize(ds: Dataset) -> Dataset:
    """Z-score each column with sample (N-1) std; constant columns -> 0, flagged.

    Idempotent: standardizing a standardized dataset changes nothing (within
    float tolerance), because the columns already have mean 0 and sample std 1.
    """
    if ds.n_samples < 2:
        raise InsufficientSamples("standardization needs N >= 2 rows")
    m = ds.matrix
    scaled = scale_by_max_magnitude(m)  # z-scores are invariant under this scaling
    mu = scaled.mean(axis=0)
    sd = scaled.std(axis=0, ddof=1)
    constant = sd <= 1e-12 * np.maximum(1.0, np.abs(mu))
    out = np.zeros_like(m)
    nz = ~constant
    out[:, nz] = (scaled[:, nz] - mu[nz]) / sd[nz]
    return Dataset(
        matrix=out,
        column_names=ds.column_names,
        source=ds.source,
        is_standardized=True,
        constant_columns=tuple(int(j) for j in np.flatnonzero(constant)),
    )
