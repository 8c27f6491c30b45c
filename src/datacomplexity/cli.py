"""Command-line front end.

Verbs: profile (classical metrics + composite), qprofile (quantum embedding
metrics + composites), barren (gradient-variance study), report (render a
saved report). Exit codes are pinned: 0 ok, 2 input problem or closed
stdout, 3 encoding capacity, 4 argument validation, 5 report schema
mismatch, 1 partial run.

Outputs are byte-identical across runs for fixed (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import lru_cache

from .config import ConfigProfile, load_config, validate_config
from .dataset import load_dataset
from .errors import (
    CapacityError,
    DataComplexityError,
    EmptyDataset,
    InvalidConfig,
    ParseError,
    ZeroVector,
)
from .report import (
    REPORT_SCHEMA_V1,
    barren_study_report,
    profile_classical,
    profile_quantum,
    render_report,
)
from .synthetic import generate, parse_synth_uri

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_VALIDATION = 4
EXIT_SCHEMA = 5


class ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 4 (argument validation), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. A parser is a web of
    reference cycles, so one per main() call is garbage that only the cycle
    collector frees, late; in a process that calls main() repeatedly it grew
    resident memory by about 10 KB per call. Parsing does not change it."""
    parser = ArgumentParser(
        prog="datacomplexity",
        description="Profile the complexity of classical and quantum-embedded datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--output", help="write the result to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_profile = sub.add_parser("profile", help="classical metric suite on a dataset")
    p_profile.add_argument("input", help="CSV/JSON path or synth:<generator>[:k=v,...]")
    p_profile.add_argument("--header", action="store_true", help="first CSV row is a header")
    p_profile.add_argument(
        "--no-standardize", action="store_true", help="compute metrics on raw columns"
    )
    add_common(p_profile)

    p_q = sub.add_parser("qprofile", help="quantum embedding metrics on a dataset")
    p_q.add_argument("input", help="CSV/JSON path or synth:<generator>[:k=v,...]")
    p_q.add_argument("--map", choices=("basis", "angle", "amplitude"), default="angle")
    p_q.add_argument("--qubits", type=int, help="register size (default: minimum required)")
    p_q.add_argument("--header", action="store_true")
    add_common(p_q)

    p_b = sub.add_parser("barren", help="gradient-variance scaling study")
    p_b.add_argument("--n-min", type=int, default=2)
    p_b.add_argument("--n-max", type=int, default=8)
    p_b.add_argument("--depth", type=int, default=4)
    p_b.add_argument("--samples", type=int, default=500)
    p_b.add_argument("--cost", choices=("global", "local"), default="global")
    add_common(p_b)

    p_r = sub.add_parser("report", help="render a saved report as text")
    p_r.add_argument("report_path")

    return parser


def _load_config(args) -> ConfigProfile:
    """The --config file (or the defaults), with --seed applied, validated."""
    cfg = load_config(args.config) if args.config else validate_config(ConfigProfile())
    if args.seed is not None:
        cfg = validate_config(dataclasses.replace(cfg, seed=args.seed))
    return cfg


def _load_inputs(args) -> tuple[ConfigProfile, "Dataset"]:
    cfg = _load_config(args)
    if args.input.startswith("synth:"):
        spec = parse_synth_uri(args.input, default_seed=cfg.seed)
        ds = generate(spec)
    else:
        ds = load_dataset(args.input, has_header=args.header)
    return cfg, ds


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_csv(obj: dict) -> str:
    lines = ["metric,raw,normalized"]
    for name, entry in sorted(obj["metrics"].items()):
        lines.append(f"{name},{entry['raw']!r},{entry['normalized']!r}")
    for comp in obj["composites"]:
        lines.append(f"composite_{comp['kind']},{comp['value']!r},{comp['value']!r}")
    return "\n".join(lines) + "\n"


def _emit_report(report, args) -> int:
    """Write a profile report; a partial report (an error: flag) exits 1."""
    _emit(_report_csv(report.to_json_obj()) if args.format == "csv" else report.to_json(), args.output)
    partial = any(f.startswith("error:") for f in report.metrics.flags)
    return EXIT_PARTIAL if partial else EXIT_OK


def _cmd_profile(args) -> int:
    cfg, ds = _load_inputs(args)
    return _emit_report(profile_classical(ds, cfg, use_standardized=not args.no_standardize), args)


def _cmd_qprofile(args) -> int:
    cfg, ds = _load_inputs(args)
    return _emit_report(profile_quantum(ds, args.map, cfg, n_qubits=args.qubits), args)


def _cmd_barren(args) -> int:
    report = barren_study_report(
        args.n_min, args.n_max, args.depth, args.samples, args.cost, _load_config(args)
    )
    csv = report.gradient_study.to_csv()
    if args.output:
        base = args.output.removesuffix(".json").removesuffix(".csv")
        _emit(report.to_json(), base + ".json")
        _emit(csv, base + ".csv")
    else:
        _emit(csv if args.format == "csv" else report.to_json(), None)
    return EXIT_OK


def _cmd_report(args) -> int:
    import jsonschema  # here, not at module level: no other verb needs its slow import

    try:
        with open(args.report_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"report is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        jsonschema.validate(obj, REPORT_SCHEMA_V1)
    except jsonschema.ValidationError as exc:
        print(f"report does not match schema v1: {exc.message}", file=sys.stderr)
        return EXIT_SCHEMA
    sys.stdout.write(render_report(obj))
    return EXIT_OK


def run(work) -> int:
    """work()'s exit code, with stdout flushed. A failure prints one line on
    stderr and returns its documented exit code: main and the experiment
    scripts run their whole body through here."""
    try:
        code = work()
        sys.stdout.flush()  # here, so that a closed stdout fails inside the try
        return code
    except BrokenPipeError as exc:
        # stdout was closed early (`| head`, say): send the rest to devnull,
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write <stdout>: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        if exc.filename is None:  # names no path (a full disk under stdout, say)
            raise
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, EmptyDataset, ZeroVector) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataComplexityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"profile": _cmd_profile, "qprofile": _cmd_qprofile, "barren": _cmd_barren, "report": _cmd_report}
    return run(lambda: command[args.command](args))


if __name__ == "__main__":
    raise SystemExit(main())
