import contextlib
import dataclasses
import errno
import gc
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import datacomplexity
from datacomplexity.cli import main
from datacomplexity.config import ConfigProfile
from datacomplexity.dataset import Dataset, standardize
from datacomplexity.errors import InvalidConfig
from datacomplexity.report import REPORT_SCHEMA_V1
from datacomplexity.simulator import MAX_QUBITS, required_qubits
from datacomplexity.synthetic import GENERATORS, SyntheticSpec, generate, parse_synth_uri


SRC = str(Path(datacomplexity.__file__).resolve().parent.parent)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# synthetic generators


def test_generators_deterministic():
    for gen in ("gaussian_blob", "circle", "clusters", "random_bytes"):
        a = generate(SyntheticSpec(gen, seed=5)).matrix
        b = generate(SyntheticSpec(gen, seed=5)).matrix
        assert np.array_equal(a, b)


def test_parity_generator_balanced():
    m = generate(SyntheticSpec("parity", seed=0, params={"n": 64})).matrix
    assert m.shape == (64, 3)
    assert np.all(m[:, 2] == m[:, 0] * m[:, 1])
    assert m.mean(axis=0) == pytest.approx([0, 0, 0])


def test_phase_ring_on_unit_circle():
    m = generate(SyntheticSpec("phase_ring", seed=0, params={"n": 16})).matrix
    assert np.allclose(np.linalg.norm(m, axis=1), 1.0)


def test_parse_synth_uri():
    spec = parse_synth_uri("synth:circle:n=50,noise=0.1,seed=9")
    assert spec.generator == "circle"
    assert spec.seed == 9
    assert spec.params == {"n": 50, "noise": 0.1}


def test_negative_synth_seed_exit_4(capsys):
    code, _, err = run_cli(["profile", "synth:gaussian_blob:n=8,d=2,seed=-1"], capsys)
    assert code == 4
    assert err == "invalid configuration: seed must be >= 0, got -1\n"


def test_generator_signatures_declare_typed_keyword_parameters():
    for name, gen in GENERATORS.items():
        stream, *params = inspect.signature(gen).parameters.values()
        assert stream.kind is stream.POSITIONAL_OR_KEYWORD, name
        assert params, name
        for p in params:
            assert p.kind is p.KEYWORD_ONLY, (name, p.name)
            assert p.annotation in ("int", "float"), (name, p.name)
            assert type(p.default).__name__ == p.annotation, (name, p.name)


@pytest.mark.parametrize(
    "spec, named",
    [
        ("synth:gaussian_blob:n=1e3", "parameter n "),
        ("synth:gaussian_blob:n=-5", "parameter n "),
        ("synth:gaussian_blob:n=0", "parameter n "),
        ("synth:gaussian_blob:seed=abc", "parameter seed "),
        ("synth:gaussian_blob:seed=2.5", "parameter seed "),
        ("synth:clusters:k=0", "parameter k "),
        ("synth:circle:n=2.5", "parameter n "),
        ("synth:circle:radius=inf", "parameter radius "),
        ("synth:circle:radius=nan", "parameter radius "),
        ("synth:parity:foo=3", "parity has no parameter 'foo'"),
        ("synth:circle:n=5:junk", "parameter n "),
        ("synth:nope", "unknown generator 'nope'"),
    ],
)
def test_bad_synth_spec_exit_4(spec, named, capsys):
    code, out, err = run_cli(["profile", spec], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("invalid configuration: ")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("params", [{"n": 2.0}, {"n": True}, {"radius": float("inf")}, {"noise": "0"}, {"seed": 1}])
def test_synthetic_spec_from_code_checks_the_signature(params):
    with pytest.raises(InvalidConfig, match="circle"):
        SyntheticSpec("circle", params=params)


def test_synth_float_parameter_given_as_int_is_the_same_dataset():
    a = generate(parse_synth_uri("synth:circle:n=50,radius=2,noise=0,seed=4")).matrix
    b = generate(SyntheticSpec("circle", seed=4, params={"n": 50, "radius": 2.0, "noise": 0.0})).matrix
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "synth:parity", "--seed", "abc"],
        ["barren", "--n-min", "x"],
        ["qprofile", "synth:parity", "--map", "foo"],
        ["profile"],
        ["nope"],
    ],
)
def test_usage_error_exit_4(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 4
    assert err.startswith("usage: datacomplexity")
    assert "error: " in err


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: datacomplexity profile")


# ---------------------------------------------------------------------------
# profile


def test_profile_parity_interaction_order(capsys):
    code, out, _ = run_cli(["profile", "synth:parity", "--seed", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["interaction_order"]["raw"] == 3.0


@pytest.mark.parametrize("bandwidth", ["5e-324", "1e-160"])
def test_tiny_kernel_bandwidth_reads_the_limit_kernel(bandwidth, tmp_path, capsys):
    """A bandwidth whose square underflows gives the kernel of equal rows, as
    a small in-range bandwidth does, with no warning."""
    ranks = {}
    for value in (bandwidth, "1e-3"):
        path = tmp_path / "config.json"
        path.write_text(f'{{"kernel_bandwidth": {value}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["profile", "synth:parity", "--config", str(path)], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert not [flag for flag in report["flags"] if flag.startswith("error:")]
        ranks[value] = report["metrics"]["kernel_effective_rank"]["raw"]
    assert ranks[bandwidth] == ranks["1e-3"]


SCALAR_FLOAT_FIELDS = [
    "epsilon_cumulant",
    "epsilon_grad",
    "lambda_penalty",
    "delta_topo",
    "kernel_bandwidth",
    "kernel_ridge",
    "rips_max_scale",
    "euler_scale_fraction",
    "resource_q0",
    "resource_q1",
    "resource_d0",
    "resource_d1",
]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
@pytest.mark.parametrize("field", SCALAR_FLOAT_FIELDS)
def test_profile_non_finite_config_float_exit_4(field, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(f'{{"{field}": {value}}}')
    code, _, err = run_cli(["profile", "synth:parity", "--config", str(path)], capsys)
    assert code == 4
    assert field in err


def wrong_type_values(field):
    """JSON values that do not fit the annotation of a config field."""
    if field.type.startswith("tuple["):
        default = list(getattr(ConfigProfile(), field.name))
        return ["x", 0.5, [True] + default[1:], ["x"] + default[1:]]
    return {
        "int": [True, 2.5, "x", [1]],
        "float": [True, "x", [1.0]],
        "float | None": [True, "x"],
        "str": [1, True, None],
    }[field.type]


WRONG_TYPES = [
    pytest.param(f.name, value, id=f"{f.name}-{json.dumps(value)}")
    for f in dataclasses.fields(ConfigProfile)
    for value in wrong_type_values(f)
]


@pytest.mark.parametrize("field, value", WRONG_TYPES)
def test_config_value_of_wrong_type_exit_4(field, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}))
    code, out, err = run_cli(["profile", "synth:parity", "--config", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert f"invalid configuration: {field} must be of type" in err


@pytest.mark.parametrize(
    "config",
    [
        '{"bins_fidelity": 2.5}',
        '{"seed": "x"}',
        '{"seed": true}',
        '{"seed": -1}',
        '{"resource_d1": 100000}',
        '{"resource_d0": -5}',
        '{"lambda_weights": [1e308, 1e308, 1e308, 1e308]}',
        '{"w_topology": [1e308, 1e308]}',
    ],
)
@pytest.mark.parametrize("verb", [["profile"], ["qprofile", "--map", "angle"]])
def test_bad_config_values_exit_4_on_both_verbs(config, verb, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(config)
    code, out, err = run_cli([verb[0], "synth:parity", *verb[1:], "--config", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert json.loads(config).popitem()[0] in err


def test_profile_circle_betti_dominant(capsys):
    code, out, _ = run_cli(["profile", "synth:circle", "--seed", "9"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["topology"]["betti_1_dominant"] is True


def test_profile_missing_file(capsys):
    code, _, err = run_cli(["profile", "/nonexistent/file.csv"], capsys)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("name", ["bad.csv", "bad.json"])
def test_profile_undecodable_input_exit_2(name, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run_cli(["profile", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {path}: not UTF-8 text")


# argv, exit code and stderr prefix; {tmp} is a directory holding notjson.json
# (invalid JSON), latin1.json (not UTF-8) and the directory adir
FILE_ERRORS = {
    "config_invalid_json": (
        ["profile", "synth:parity", "--config", "{tmp}/notjson.json"],
        4,
        "invalid configuration: config file is not UTF-8 JSON text: ",
    ),
    "config_not_utf8": (
        ["profile", "synth:parity", "--config", "{tmp}/latin1.json"],
        4,
        "invalid configuration: config file is not UTF-8 JSON text: ",
    ),
    "config_directory": (["profile", "synth:parity", "--config", "{tmp}/adir"], 2, "cannot open {tmp}/adir: "),
    "config_missing": (["profile", "synth:parity", "--config", "{tmp}/nope.json"], 2, "cannot open {tmp}/nope.json: "),
    "dataset_directory": (["qprofile", "{tmp}/adir"], 2, "cannot open {tmp}/adir: "),
    "dataset_missing": (["profile", "{tmp}/nope.csv"], 2, "cannot open {tmp}/nope.csv: "),
    "report_directory": (["report", "{tmp}/adir"], 2, "cannot open {tmp}/adir: "),
    "report_not_utf8": (["report", "{tmp}/latin1.json"], 5, "report is not valid JSON: "),
    "report_missing": (["report", "{tmp}/nope.json"], 2, "cannot open {tmp}/nope.json: "),
    "output_directory": (["profile", "synth:parity", "--output", "{tmp}/adir"], 2, "cannot open {tmp}/adir: "),
}


@pytest.mark.parametrize("argv, code, prefix", FILE_ERRORS.values(), ids=FILE_ERRORS)
def test_file_errors_exit_with_their_code(argv, code, prefix, tmp_path, capsys):
    (tmp_path / "notjson.json").write_text("{not json")
    (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xe9"}')
    (tmp_path / "adir").mkdir()
    got, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert (got, out) == (code, "")
    assert err.startswith(prefix.format(tmp=tmp_path))
    assert "Traceback" not in err


# file name, its contents, the arguments that read it ({path}), the exit code
# and the message after "input error: {path}: " (exit 2) or "invalid
# configuration: " (exit 4)
INPUT_ERRORS = {
    "empty_table": ("a.json", '{"data": []}', ["profile", "{path}"], 2, "empty table"),
    "empty_rows": ("a.json", '{"data": [[]]}', ["profile", "{path}"], 2, "empty rows"),
    "json_without_data": ("a.json", '{"rows": [[1]]}', ["profile", "{path}"], 2, "JSON input must be an object with a 'data' key"),
    "csv_field_too_large": (
        "a.csv", "1," + "x" * 200_000 + "\n", ["profile", "{path}"], 2,
        "malformed CSV (field larger than field limit (131072))",
    ),
    "config_not_an_object": (
        "c.json", "[1, 2]", ["profile", "synth:parity", "--config", "{path}"], 4, "config file must contain a JSON object",
    ),
    "synth_parameter_without_value": (None, None, ["profile", "synth:parity:n"], 4, "bad synthetic parameter 'n'"),
}


@pytest.mark.parametrize("name, text, argv, code, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
def test_documented_input_errors_exit_with_their_code(name, text, argv, code, message, tmp_path, capsys):
    path = tmp_path / str(name)
    if text is not None:
        path.write_text(text)
    got, out, err = run_cli([arg.format(path=path) for arg in argv], capsys)
    assert (got, out) == (code, "")
    prefix = f"input error: {path}: " if code == 2 else "invalid configuration: "
    assert err == f"{prefix}{message}\n"


def test_os_error_without_a_path_propagates(monkeypatch):
    """Only an error naming a path (or a closed stdout) exits 2; another
    OSError without a path, such as a full disk under stdout, is not
    reported as a file to open."""

    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDisk())
    with pytest.raises(OSError, match="No space left"):
        main(["profile", "synth:parity"])


@pytest.mark.parametrize(
    "argv",
    [["barren", "--n-min", "2", "--n-max", "3", "--samples", "200"], ["profile", "synth:circle:n=120"]],
    ids=["barren", "profile"],
)
def test_closed_stdout_exit_2(argv):
    """A reader that goes away before the report is written (`| head -c 1`)
    is an output error: one line on stderr and exit 2, whether the write or
    the final flush meets the closed pipe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "datacomplexity.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "cannot write <stdout>: Broken pipe\n"


def test_profile_validates_against_schema(capsys):
    code, out, _ = run_cli(["profile", "synth:gaussian_blob:n=40,d=3", "--seed", "2"], capsys)
    assert code == 0
    jsonschema.validate(json.loads(out), REPORT_SCHEMA_V1)


def test_profile_does_not_mutate_input(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    before = path.read_bytes()
    code, _, _ = run_cli(["profile", str(path)], capsys)
    assert code == 0
    assert path.read_bytes() == before


def test_profile_csv_format(capsys):
    code, out, _ = run_cli(["profile", "synth:parity", "--seed", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "metric,raw,normalized"


def strict_json(text):
    """json.loads, failing on Infinity and NaN, which are not JSON."""

    def reject(constant):
        raise ValueError(f"report holds {constant}")

    return json.loads(text, parse_constant=reject)


def test_profile_partial_report_on_metric_failure(tmp_path, capsys):
    # a Rips cap below the point count, or a weight that overflows the
    # topology metric, fails the topology stage; the run still emits a
    # report, with error flags and exit code 1, and it is strict JSON
    cases = [
        ("synth:gaussian_blob:n=30,d=2", '{"rips_point_cap": 4}', "error:persistence=30 points exceeds the cap 4"),
        ("synth:circle", '{"w_topology": [1e308, 0.5]}', "error:persistence=topological_complexity is not finite: raw inf, bounds (0.0, inf)"),
    ]
    cfg = tmp_path / "cfg.json"
    for source, config, flag in cases:
        cfg.write_text(config)
        code, out, _ = run_cli(["profile", source, "--config", str(cfg)], capsys)
        assert code == 1, config
        report = strict_json(out)
        assert flag in report["flags"], report["flags"]
        assert any(f.startswith("error:classical_complexity") for f in report["flags"])
        assert "distributional_entropy" in report["metrics"]


def test_profile_all_constant_csv_partial_report(tmp_path, capsys):
    # every covariance eigenvalue is zero: intrinsic dimension becomes an
    # error flag and the other metrics still make a report, exit 1
    path = tmp_path / "constant.csv"
    path.write_text("1,2\n1,2\n1,2\n")
    code, out, _ = run_cli(["profile", str(path)], capsys)
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA_V1)
    assert "error:intrinsic_dimension=all eigenvalues are zero" in report["flags"]
    assert "intrinsic_dimension" not in report["metrics"]
    assert "kernel_effective_rank" in report["metrics"]


def report_floats(node, key=None):
    """(key, value) of every float in a parsed report, at any depth."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from report_floats(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from report_floats(v, key)
    elif isinstance(node, float):
        yield key, node


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("rows", ["1,2,3\n" * 4, "1,2,3\n"], ids=["constant_4_rows", "one_row"])
def test_one_bin_profile_reports_no_negative_zero(rows, seed, tmp_path, capsys):
    """Rows that all fall in one bin have entropy 0.0; no report float is
    -0.0, and every normalized entry lies in [0, 1]."""
    path = tmp_path / "data.csv"
    path.write_text(rows)
    code, out, _ = run_cli(["profile", str(path), "--seed", str(seed)], capsys)
    assert code in (0, 1)
    floats = list(report_floats(json.loads(out)))
    assert ("raw", 0.0) in floats
    assert [key for key, v in floats if v == 0.0 and math.copysign(1.0, v) < 0] == []
    normalized = [v for key, v in floats if key == "normalized"]
    assert normalized and all(0.0 <= v <= 1.0 for v in normalized)


# ---------------------------------------------------------------------------
# qprofile


def test_qprofile_basis_one_hot_m3_zero(tmp_path, capsys):
    path = tmp_path / "onehot.csv"
    path.write_text("1,0,0\n0,1,0\n0,0,1\n")
    code, out, _ = run_cli(["qprofile", str(path), "--map", "basis"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["m3_entanglement_entropy"]["raw"] == pytest.approx(0.0, abs=1e-9)


def test_qprofile_amplitude_capacity_exit_3(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text(",".join(["1"] * 8) + "\n" + ",".join(["2"] * 8) + "\n")
    code, _, err = run_cli(
        ["qprofile", str(path), "--map", "amplitude", "--qubits", "2"], capsys
    )
    assert code == 3
    assert "requires 3 qubits" in err


def test_qprofile_amplitude_zero_row_exit_2(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("1,2\n0,0\n")
    code, out, err = run_cli(["qprofile", str(path), "--map", "amplitude"], capsys)
    assert code == 2
    assert out == ""
    assert "input error: row 1:" in err


# Finite rows whose column span or row norm overflows float64, and rows
# whose norm underflows to 0 (or whose squares fall below the normal range)
# although they are not all zero
EXTREME_CSV = {
    "huge": "1e308,-1e308\n-1e308,1e308\n1,2\n",
    "tiny": "1e-300,2e-300\n3e-300,-1e-300\n0,5e-301\n",
    "subnormal": "1e-170,1e-160\n1,2\n3,1\n",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "source, argv",
    [("huge", ["--map", m]) for m in ("angle", "amplitude", "basis")]
    + [(rows, ["--map", "amplitude"]) for rows in ("tiny", "subnormal")]
    + [("synth:random_bytes", ["--map", "amplitude", "--seed", str(s)]) for s in range(4)],
    ids=[f"huge-{m}" for m in ("angle", "amplitude", "basis")]
    + ["tiny-amplitude", "subnormal-amplitude"]
    + [f"random_bytes-amplitude-seed{s}" for s in range(4)],
)
def test_qprofile_embeds_extreme_rows(source, argv, tmp_path, capsys):
    """An angle column whose span hi - lo overflows, or an amplitude row
    whose norm over- or underflows (or whose squares fall below the normal
    range), embeds: each is divided by its largest magnitude first."""
    if source in EXTREME_CSV:
        path = tmp_path / f"{source}.csv"
        path.write_text(EXTREME_CSV[source])
        source = str(path)
    code, out, err = run_cli(["qprofile", source, *argv], capsys)
    assert (code, err) == (0, "")
    assert not [f for f in json.loads(out)["flags"] if f.startswith("error:")]


def test_qprofile_angle_capacity_exit_3(capsys):
    # 15 features need 15 qubits, one more than the simulator holds
    code, _, err = run_cli(["qprofile", "synth:gaussian_blob:n=8,d=15", "--map", "angle"], capsys)
    assert code == 3
    assert "requires 15 qubits" in err


@settings(max_examples=120, deadline=None)
@given(
    fm_kind=st.sampled_from(["basis", "angle", "amplitude"]),
    d=st.integers(1, 17),
    qubits=st.one_of(st.none(), st.integers(-2, 17)),
)
def test_qprofile_qubits_exit_codes(tmp_path_factory, fm_kind, d, qubits):
    """A --qubits value outside 1..MAX_QUBITS is an argument error (exit 4)
    whatever the data; a register too small for the rows, given or the
    default one, is a capacity error (exit 3); any other run exits 0."""
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text('{"expressibility_samples": 100}')
    argv = ["qprofile", f"synth:gaussian_blob:n=3,d={d}", "--map", fm_kind, "--config", str(cfg)]
    if qubits is not None:
        argv += ["--qubits", str(qubits)]
    need = required_qubits(fm_kind, d)
    if qubits is not None and not 1 <= qubits <= MAX_QUBITS:
        expected, prefix = 4, "invalid configuration: "
    elif need > (MAX_QUBITS if qubits is None else qubits):
        expected, prefix = 3, "capacity error: "
    else:
        expected, prefix = 0, ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == expected, err.getvalue()
    if expected:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(prefix)


def test_qprofile_partial_report_on_topology_failure(tmp_path, capsys):
    # more rows than the Rips cap, or a weight that overflows a bound: the
    # topology entries and both composites that read them become error
    # flags of a partial report in strict JSON, exit 1
    cases = [
        (
            ["synth:gaussian_blob:n=12,d=4", "--map", "amplitude"],
            '{"rips_point_cap": 8}',
            "error:quantum_topology=12 points exceeds the cap 8",
        ),
        (
            ["synth:circle"],
            '{"gamma_weights": [0, 1e308, 0]}',
            "error:quantum_topology=quantum_topological_complexity is not finite: raw 0.0, bounds (0.0, inf)",
        ),
    ]
    cfg = tmp_path / "cfg.json"
    for argv, config, flag in cases:
        cfg.write_text(config)
        code, out, _ = run_cli(["qprofile", *argv, "--config", str(cfg)], capsys)
        assert code == 1, config
        report = strict_json(out)
        jsonschema.validate(report, REPORT_SCHEMA_V1)
        assert flag in report["flags"], report["flags"]
        assert any(f.startswith("error:induced_complexity=") for f in report["flags"])
        assert any(f.startswith("error:quantum_complexity=") for f in report["flags"])
        assert report["composites"] == [] and report["resource_estimate"] is None
        assert "quantum_topological_complexity" not in report["metrics"]
        assert "m6_embedding_topology" not in report["metrics"]
        assert "m1_support_dimension" in report["metrics"]


def test_qprofile_phase_ring_m6_positive(capsys):
    code, out, _ = run_cli(["qprofile", "synth:phase_ring", "--map", "angle", "--seed", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["m6_embedding_topology"]["raw"] > 0.0


# ---------------------------------------------------------------------------
# barren


def test_barren_negative_slope(tmp_path, capsys):
    out_base = str(tmp_path / "study")
    code, _, _ = run_cli(
        ["barren", "--n-min", "2", "--n-max", "4", "--depth", "2", "--samples", "200",
         "--seed", "5", "--output", out_base],
        capsys,
    )
    assert code == 0
    study = json.loads(open(out_base + ".json").read())["gradient_study"]
    assert study["fitted_slope"] < 0
    csv_lines = open(out_base + ".csv").read().splitlines()
    assert csv_lines[0] == "n,variance"
    assert len(csv_lines) == 4


def test_barren_sample_floor(capsys):
    code, _, err = run_cli(["barren", "--samples", "0"], capsys)
    assert code == 4
    assert "samples must be >= 200" in err


def test_barren_qubit_cap(capsys):
    code, _, err = run_cli(["barren", "--n-max", str(MAX_QUBITS + 1), "--samples", "200"], capsys)
    assert code == 4


@pytest.mark.parametrize("bad", [["--n-min", "5", "--n-max", "3"], ["--depth", "0"]])
def test_barren_invalid_arguments_exit_4(bad, capsys):
    code, _, err = run_cli(["barren", "--samples", "200", *bad], capsys)
    assert code == 4
    assert "invalid configuration" in err


def run_cli_peak(argv, capsys):
    """run_cli, and the peak bytes of the allocations traced during the call."""
    tracemalloc.start()
    try:
        return run_cli(argv, capsys), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bad", [["--samples", str(10**12)], ["--depth", str(10**12)]])
def test_barren_size_limit_exit_4_before_allocating(bad, capsys):
    (code, out, err), peak = run_cli_peak(["barren", *bad], capsys)
    assert code == 4
    assert out == ""
    assert "n * depth * n_samples" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("field", ["bins_fidelity", "expressibility_samples"])
def test_huge_sampling_config_exit_4_before_allocating(field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: 2**40}))
    argv = ["qprofile", "synth:gaussian_blob:n=16,d=3", "--map", "angle", "--config", str(path)]
    (code, out, err), peak = run_cli_peak(argv, capsys)
    assert code == 4
    assert out == ""
    assert field in err
    assert peak < 1 << 20


def test_barren_deterministic_csv(tmp_path, capsys):
    args = ["barren", "--n-min", "2", "--n-max", "3", "--depth", "1",
            "--samples", "200", "--seed", "11", "--format", "csv"]
    _, out_a, _ = run_cli(args, capsys)
    _, out_b, _ = run_cli(args, capsys)
    assert out_a == out_b


# ---------------------------------------------------------------------------
# report


@pytest.mark.parametrize(
    "args",
    [
        ["barren", "--n-min", "2", "--n-max", "3", "--depth", "2", "--samples", "200"],
        ["profile", "synth:parity"],
        ["qprofile", "synth:gaussian_blob:n=16,d=3", "--map", "angle"],
    ],
    ids=["barren", "profile", "qprofile"],
)
def test_main_leaves_little_cyclic_garbage(args, tmp_path):
    """A call of main() leaves few objects that only the cycle collector
    frees (a parser built per call left about 280), so a process that calls
    it repeatedly keeps a steady resident size."""
    argv = [*args, "--output", str(tmp_path / "out.json")]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable < 100


def test_report_renders_config_hash(tmp_path, capsys):
    report_path = str(tmp_path / "r.json")
    run_cli(["profile", "synth:parity", "--seed", "1", "--output", report_path], capsys)
    code, out, _ = run_cli(["report", report_path], capsys)
    assert code == 0
    hashes = json.loads(open(report_path).read())["config_hash"]
    assert hashes in out


def test_report_renders_barren_report(tmp_path, capsys):
    """`report X.json` renders what `barren --output X` writes (the README's
    run_barren_study.py --out X too): the study line and one line per n."""
    report_path = str(tmp_path / "study.json")
    code, _, _ = run_cli(
        ["barren", "--n-min", "2", "--n-max", "4", "--samples", "200", "--output", report_path], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["report", report_path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("gradient study: depth=4 samples=200 cost=global slope=")]
    assert [line.split()[0] for line in lines if line.startswith("  n=")] == ["n=2", "n=3", "n=4"]


def test_report_truncated_json_exit_5(tmp_path, capsys):
    report_path = tmp_path / "broken.json"
    report_path.write_text('{"schema_version": "v1", "tool_ver')
    code, _, err = run_cli(["report", str(report_path)], capsys)
    assert code == 5


def test_report_schema_mismatch_exit_5(tmp_path, capsys):
    report_path = tmp_path / "wrong.json"
    report_path.write_text('{"schema_version": "v2"}')
    code, _, _ = run_cli(["report", str(report_path)], capsys)
    assert code == 5


def test_report_renders_flags_verbatim(tmp_path, capsys):
    report_path = str(tmp_path / "q.json")
    run_cli(["qprofile", "synth:phase_ring", "--map", "angle", "--output", report_path], capsys)
    code, out, _ = run_cli(["report", report_path], capsys)
    assert code == 0
    assert "m5=decided_proxy" in out
    assert "embedding_input=raw" in out


# ---------------------------------------------------------------------------
# metamorphic relations


def report_leaves(node, path=""):
    """(path, value) of every scalar of a parsed report, list items by index."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from report_leaves(v, f"{path}/{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from report_leaves(v, f"{path}/{i}")
    else:
        yield path, node


def run_on_rows(verb, rows, cfg, out):
    """Exit code and parsed report (None if none) of `verb` on a CSV of rows."""
    data = out.with_suffix(".csv")
    data.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([verb[0], str(data), *verb[1:], "--config", str(cfg), "--output", str(out)])
    return code, json.loads(out.read_text()) if out.is_file() else None


PERMUTATION_VALUES = st.one_of(
    st.integers(-20, 20).map(lambda v: v / 5),  # a grid: ties, and values on bin edges
    st.floats(-1e3, 1e3, allow_nan=False),
)
VERBS = [("profile",), ("qprofile", "--map", "angle"), ("qprofile", "--map", "amplitude"), ("qprofile", "--map", "basis")]


def z_rows_apart(rows) -> bool:
    """Whether every two z-scored rows are equal or at least 3% of their
    norms apart. Closer rows get Euclidean distances that depend on row
    order beyond 1e-12: the column means round differently, and
    |a|^2 + |b|^2 - 2 a.b cancels to an error of order 1e-16 |a|^2 / d."""
    z = standardize(Dataset(np.array(rows), tuple(f"c{j}" for j in range(len(rows[0]))))).matrix
    sq = np.sum(z**2, axis=1)
    d2 = np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=-1)
    return not np.any((d2 > 0) & (d2 < 1e-3 * (sq[:, None] + sq[None, :])))


@st.composite
def permutation_cases(draw):
    """A verb, rows of 1..5 columns and a reordering of them; for profile,
    z-scored rows that are pairwise equal or apart (z_rows_apart)."""
    verb = draw(st.sampled_from(VERBS))
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(PERMUTATION_VALUES, min_size=d, max_size=d), min_size=2, max_size=12))
    if verb == ("profile",):
        assume(z_rows_apart(rows))
    return verb, rows, draw(st.permutations(range(len(rows))))


@settings(max_examples=60, deadline=None)
@given(case=permutation_cases())
# 2.0 lies on a bin edge of its column: binned from z-scores, whose column
# mean rounds differently in the two row orders, it changed bins
@example(case=(("profile",), [[1.8], [1.8], [1.2], [3.0], [2.2], [2.0], [1.8], [-1.0]], [4, 6, 1, 2, 0, 3, 5, 7]))
# three equal rows: from x @ x.T alone they were 1.5e-8 apart in one order,
# which added two H0 bars
@example(
    case=(
        ("profile",),
        [[0.0] * 3, [0.0, 0.0, 3.6], [0.0, 0.0, 201.60621229651883], [0.2, 0.2, 201.60621229651883], [0.0] * 3, [0.0] * 3],
        [0, 1, 2, 4, 3, 5],
    )
)
# rows 1e-5 apart, which z_rows_apart excludes: an H0 death of 2.6e-5 differs
# in the 8th digit between the two orders
@example(case=(("profile",), [[0.0]] * 7 + [[0.2], [1.2], [1e-05]], [0, 1, 2, 3, 4, 5, 6, 8, 7, 9])).xfail(
    raises=AssertionError, reason="distances of nearly equal rows depend on row order"
)
def test_row_permutation_keeps_report(tmp_path_factory, case):
    """Reordering the rows of a dataset changes no report entry by more than
    1e-12 relative (1e-12 absolute near zero), persistence diagrams
    included, except the compression ratio, which reads the rows in order.
    Its composite weight is 0 here, so the classical composite and the
    resource estimate taken from it are compared too."""
    tmp = tmp_path_factory.mktemp("perm")
    cfg = tmp / "cfg.json"
    cfg.write_text('{"expressibility_samples": 100, "lambda_weights": [0.5, 0.25, 0.0, 0.25]}')
    verb, rows, order = case
    code, report = run_on_rows(verb, rows, cfg, tmp / "a.json")
    code_p, report_p = run_on_rows(verb, [rows[i] for i in order], cfg, tmp / "a.json")
    assert code == code_p
    assert (report is None) == (report_p is None)
    if report is None:
        return
    leaves, leaves_p = dict(report_leaves(report)), dict(report_leaves(report_p))
    assert leaves.keys() == leaves_p.keys()
    for path, value in leaves.items():
        if "compression_ratio" in path:
            continue
        if isinstance(value, float):
            assert math.isclose(value, leaves_p[path], rel_tol=1e-12, abs_tol=1e-12), path
        else:
            assert value == leaves_p[path], path


# ---------------------------------------------------------------------------
# determinism across all commands


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "synth:parity", "--seed", "7"],
        ["profile", "synth:circle:n=40", "--seed", "7"],
        ["qprofile", "synth:phase_ring:n=12", "--map", "angle", "--seed", "7"],
        ["qprofile", "synth:gaussian_blob:n=6,d=2", "--map", "amplitude", "--seed", "7"],
    ],
)
def test_commands_byte_identical(args, capsys):
    _, out_a, _ = run_cli(args, capsys)
    _, out_b, _ = run_cli(args, capsys)
    assert out_a == out_b


# Kernel and thread settings of OpenBLAS, read once when numpy loads. They act
# on OpenBLAS only: under another BLAS every setting runs the same code.
OPENBLAS_SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "one_thread": {"OPENBLAS_NUM_THREADS": "1"},
}
CHILD_MAIN = """import sys
from datacomplexity.cli import main
for seed in sys.argv[1].split(","):
    if main([*sys.argv[2:], "--seed", seed]):
        sys.exit(1)
"""


def run_child(setting, argv, seeds):
    """stdout of `datacomplexity <argv> --seed s` for each seed in turn, run in
    one child process whose only OpenBLAS variables are those of `setting`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env.update(OPENBLAS_SETTINGS[setting], PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    seeds = ",".join(str(s) for s in seeds)
    proc = subprocess.run([sys.executable, "-c", CHILD_MAIN, seeds, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_barren_identical_on_every_openblas_kernel():
    """No BLAS or LAPACK call reaches a barren report: its fitted slope is a
    closed-form least-squares fit, so the report is the same on every
    OpenBLAS kernel and thread count."""
    argv = ["barren", "--n-max", "6", "--samples", "200"]
    outs = {setting: run_child(setting, argv, range(4)) for setting in OPENBLAS_SETTINGS}
    differ = [setting for setting, out in outs.items() if out != outs["default"]]
    assert differ == []


# The entries of a product-map report that read eigvalsh of the Gram, the one
# LAPACK call left on that path
EIGVALSH_ENTRIES = {"ensemble_rank_eff", "m1_support_dimension", "m4_kernel_flatness"}


def test_product_map_entries_identical_on_every_openblas_kernel():
    """An angle or basis report takes its Gram, QFIs and entanglement
    entries from per-qubit factors, elementwise, with no BLAS call: on every
    OpenBLAS kernel and thread count, every metric entry but the three that
    read eigvalsh of the Gram is the same (composites read those three)."""
    for fm_kind in ("angle", "basis"):
        argv = ["qprofile", "synth:gaussian_blob:n=96,d=8", "--map", fm_kind, "--format", "csv"]
        rows = {setting: run_child(setting, argv, [0, 3]).splitlines() for setting in OPENBLAS_SETTINGS}
        entries = [row.partition(",")[0] for row in rows["default"]]
        assert entries.count("m3_entanglement_entropy") == 2
        for setting, lines in rows.items():
            assert len(lines) == len(entries)
            differ = {name for name, row, default in zip(entries, lines, rows["default"]) if row != default}
            assert {name for name in differ if not name.startswith("composite_")} <= EIGVALSH_ENTRIES, (fm_kind, setting, differ)


# The child's own peak RSS in KiB. Not ru_maxrss: Linux carries the peak of
# the spawning process (this test run) into the child's ru_maxrss at exec.
SCALE_CHILD = """import re, sys
from datacomplexity.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read())[1], file=sys.stderr)
sys.exit(code)
"""


def test_angle_map_at_full_register_stays_small():
    """256 rows on 14 qubits held as per-qubit factors: the run peaks far
    below the 256 x 2^14 amplitude array and its half-split SVD (about
    180 MiB), and the entanglement entries are exact."""
    argv = ["qprofile", "synth:gaussian_blob:n=256,d=14", "--map", "angle", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCALE_CHILD, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    for name in ("m3_entanglement_entropy", "mean_entanglement_entropy", "multipartite_correlation"):
        assert f"{name},0.0,0.0" in rows
    assert "mean_schmidt_rank,1.0,0.0078125" in rows
    peak_kib = int(proc.stderr.split()[-1])
    assert peak_kib < 100 * 1024


def test_shipped_schema_matches_module():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "docs", "report_schema_v1.json")) as fh:
        shipped = json.load(fh)
    assert shipped == REPORT_SCHEMA_V1
