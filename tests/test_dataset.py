import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from datacomplexity.cli import main
from datacomplexity.dataset import Dataset, load_dataset, save_dataset, standardize
from datacomplexity.errors import EmptyDataset, InsufficientSamples, ParseError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_csv_3x2(tmp_path):
    ds = load_dataset(write(tmp_path, "a.csv", "1,2\n3,4\n5,6\n"))
    assert ds.n_samples == 3 and ds.n_features == 2
    assert not ds.is_standardized
    assert np.array_equal(ds.matrix, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_non_numeric_cell(tmp_path):
    with pytest.raises(ParseError, match=r"row 0, col 1"):
        load_dataset(write(tmp_path, "b.csv", "1,x\n2,3\n"))


def test_load_empty_file(tmp_path):
    with pytest.raises(EmptyDataset):
        load_dataset(write(tmp_path, "c.csv", ""))


def test_load_ragged_rows(tmp_path):
    with pytest.raises(ParseError, match=r"ragged row 1"):
        load_dataset(write(tmp_path, "d.csv", "1,2\n3\n"))


def test_load_json(tmp_path):
    ds = load_dataset(write(tmp_path, "e.json", '{"data": [[1, 2], [3, 4]], "columns": ["x", "y"]}'))
    assert ds.column_names == ("x", "y")
    assert np.array_equal(ds.matrix, [[1, 2], [3, 4]])


def test_load_csv_header(tmp_path):
    ds = load_dataset(write(tmp_path, "f.csv", "x,y\n1,2\n3,4\n"), has_header=True)
    assert ds.column_names == ("x", "y")
    assert ds.n_samples == 2


def test_standardize_two_point_column():
    ds = standardize(Dataset(np.array([[0.0], [2.0]]), ("a",)))
    # sample (N-1) convention: std of [0, 2] is sqrt(2), so z-scores are +-1/sqrt(2)
    assert ds.matrix[:, 0] == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert ds.is_standardized
    # and the standardized column has sample std exactly 1
    assert np.std(ds.matrix[:, 0], ddof=1) == pytest.approx(1.0)


def test_standardize_constant_column_flagged():
    ds = standardize(Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ("a", "b")))
    assert np.array_equal(ds.matrix[:, 0], [0.0, 0.0, 0.0])
    assert ds.constant_columns == (0,)


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    ds = standardize(Dataset(rng.normal(size=(50, 3)) * 7 + 2, ("a", "b", "c")))
    again = standardize(ds)
    assert np.max(np.abs(again.matrix - ds.matrix)) < 1e-12


def test_standardize_single_row_rejected():
    with pytest.raises(InsufficientSamples):
        standardize(Dataset(np.array([[1.0, 2.0]]), ("a", "b")))


def test_non_finite_rejected():
    with pytest.raises(ParseError):
        Dataset(np.array([[1.0], [np.inf]]), ("a",))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_within_1e12(tmp_path, fmt):
    rng = np.random.default_rng(42)
    ds = standardize(Dataset(rng.normal(size=(20, 4)), tuple("abcd")))
    path = str(tmp_path / f"ds.{fmt}")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.max(np.abs(back.matrix - ds.matrix)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(3, 12), st.integers(1, 4)),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_standardize_row_order_invariant(matrix):
    ds = Dataset(matrix, tuple(f"c{j}" for j in range(matrix.shape[1])))
    perm = np.random.default_rng(1).permutation(matrix.shape[0])
    shuffled = Dataset(matrix[perm], ds.column_names)
    a = standardize(ds).matrix
    b = standardize(shuffled).matrix
    assert np.max(np.abs(a[perm] - b)) < 1e-9


# ---------------------------------------------------------------------------
# malformed input: every loader failure is a ParseError or EmptyDataset that
# names the file, which the CLI maps to exit 2 with a message


def test_load_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(ParseError, match=r"bad\.csv: not UTF-8 text"):
        load_dataset(str(path))


@pytest.mark.parametrize(
    "payload",
    ['{"data": [1, 2]}', '{"data": ["12", "34"]}', '{"data": [[1]], "columns": 1}', "[" * 100000],
)
def test_load_malformed_json_structure(tmp_path, payload):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "g.json", payload))


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=120), suffix=st.sampled_from([".csv", ".json"]), header=st.booleans())
def test_loaders_never_crash_on_arbitrary_bytes(tmp_path_factory, data, suffix, header):
    path = tmp_path_factory.mktemp("bytes") / f"input{suffix}"
    path.write_bytes(data)
    try:
        ds = load_dataset(str(path), has_header=header)
    except (ParseError, EmptyDataset) as exc:
        assert str(path) in str(exc)
    else:
        assert np.all(np.isfinite(ds.matrix))


NUMBER = st.floats(-1e6, 1e6, allow_nan=False)
NON_NUMERIC = st.text(alphabet="abcxyz_ ", min_size=1, max_size=4)
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])


@st.composite
def malformed_tables(draw):
    """(rows of cell strings, has_header) with one defect in the data rows
    or an unflagged header row."""
    n_rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = [[repr(draw(NUMBER)) for _ in range(width)] for _ in range(n_rows)]
    header = draw(st.booleans())
    defect = draw(st.sampled_from(["ragged", "non_numeric", "non_finite", "unflagged_header"]))
    i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
    if defect == "ragged":
        if n_rows < 2:
            rows.append([repr(draw(NUMBER))] * width)
        rows[max(i, 1)].append(repr(draw(NUMBER)))
    elif defect == "non_numeric":
        rows[i][j] = draw(NON_NUMERIC)
    elif defect == "non_finite":
        rows[i][j] = draw(NON_FINITE)
    else:
        rows.insert(0, [draw(NON_NUMERIC) for _ in range(width)])
        header = False
    if header:
        rows.insert(0, [f"h{k}" for k in range(width)])
    return rows, header


def run_profile(path, header):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["profile", str(path), *(["--header"] if header else [])])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(table=malformed_tables())
def test_malformed_csv_exits_2(tmp_path_factory, table):
    rows, header = table
    path = tmp_path_factory.mktemp("csv") / "input.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    code, out, err = run_profile(path, header)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: ")


JSON_BAD_CELL = st.one_of(NON_NUMERIC, st.none(), st.booleans(), st.lists(NUMBER, max_size=2), st.just({}))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(NUMBER, min_size=w, max_size=w), min_size=1, max_size=5)),
    defect=st.sampled_from(["cell", "non_finite", "ragged", "row", "columns"]),
    bad=JSON_BAD_CELL,
    where=st.integers(0, 20),
)
def test_malformed_json_exits_2(tmp_path_factory, rows, defect, bad, where):
    i = where % len(rows)
    width = len(rows[0])
    payload = {"data": rows}
    if defect == "cell":
        rows[i][where % width] = bad
    elif defect == "non_finite":
        rows[i][where % width] = float("nan") if where % 2 else float("inf")
    elif defect == "ragged":
        rows.append(rows[0] + [1.0])
    elif defect == "row":
        rows[i] = bad if not isinstance(bad, list) else 1.0
    else:
        payload["columns"] = [f"c{k}" for k in range(width + 1)]
    path = tmp_path_factory.mktemp("json") / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_profile(path, header=False)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: ")
