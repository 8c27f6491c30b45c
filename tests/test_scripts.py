"""The experiment scripts run their verbs through cli.main and their whole
body through cli.run: they write the verbs' bytes and exit with the verbs'
codes, without a traceback."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import datacomplexity
from datacomplexity import cli
from datacomplexity.cli import main
from datacomplexity.synthetic import GENERATORS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
STUDY = ["--n-min", "2", "--n-max", "4", "--samples", "200"]


def run_script(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    code = cli.run(module.main)  # as the script's `__main__` line runs it
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_barren_study_writes_the_verbs_report_and_csv(tmp_path, monkeypatch, capsys):
    code, out, err = run_script("run_barren_study", [*STUDY, "--out", str(tmp_path / "b")], monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert "fitted slope of ln Var vs n" in out
    assert main(["barren", *STUDY, "--seed", "42", "--output", str(tmp_path / "c")]) == 0
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"b{suffix}").read_bytes() == (tmp_path / f"c{suffix}").read_bytes()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--samples", "100"], 4, "invalid configuration: n_samples must be >= 200"),
        (["--n-min", "2", "--n-max", "3", "--samples", "200"], 1, "error: need at least 3 study points"),
        ([*STUDY, "--seed", "2", "--cost", "local", "--depth", "1"], 1, "error: fitted alpha -0.0173 < 0"),
    ],
    ids=["verb_validation", "fit_error", "growing_variance"],
)
def test_barren_study_failures_exit_with_code_and_message(argv, code, message, monkeypatch, capsys):
    got, _, err = run_script("run_barren_study", argv, monkeypatch, capsys)
    assert got == code
    assert message in err
    assert "Traceback" not in err


def test_profile_synthetics_writes_the_verbs_reports(tmp_path, monkeypatch, capsys):
    code, out, _ = run_script("profile_synthetics", ["--seed", "3", "--out-dir", str(tmp_path)], monkeypatch, capsys)
    assert code == 0
    assert f"wrote {len(GENERATORS)} reports" in out
    for name in GENERATORS:
        main(["profile", f"synth:{name}", "--seed", "3"])
        assert (tmp_path / f"{name}.json").read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_profile_synthetics_invalid_seed_exits_4(monkeypatch, capsys):
    code, _, err = run_script("profile_synthetics", ["--seed", "-1"], monkeypatch, capsys)
    assert code == 4
    assert "invalid configuration: seed must be >= 0" in err


@pytest.mark.parametrize("name", ["run_barren_study", "profile_synthetics"])
def test_script_usage_error_exits_4(name, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(name, ["--seed", "abc"], monkeypatch, capsys)
    assert exc.value.code == 4
    assert "error: argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [("run_barren_study", STUDY), ("profile_synthetics", [])])
def test_closed_stdout_exit_2(name, argv):
    """The scripts' own printing meets a closed stdout as the verbs do: one
    line on stderr and exit 2, with no traceback."""
    src = str(Path(datacomplexity.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "cannot write <stdout>: Broken pipe\n"
