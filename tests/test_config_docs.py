"""The field table of docs/config_format.md against ConfigProfile.

The docs are the oracle: each row's type, default and rule are read from
the table, compared with the field's declaration, and the rule is driven
through `profile --config` at its edges. The rule column has a fixed
grammar: `> x`, `>= x`, `a..b` (integers), `[a, b]` (numbers), `"p" or "q"`,
and `N entries >= 0` or `entries >= 0` for a weight group.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from datacomplexity.cli import main
from datacomplexity.config import ConfigProfile, Rule

DOCS = Path(__file__).resolve().parent.parent / "docs" / "config_format.md"
# the type column, as the annotation it stands for ("tuple" for any tuple[float, ...])
DOC_TYPES = {
    "array of numbers": "tuple",
    "number": "float",
    "number or `null`": "float | None",
    "integer": "int",
    "string": "str",
}


def documented_fields():
    """name -> (type, default, rule) for each row of the field table. A
    default is JSON, except that p/q stands for the float p / q."""
    rows = {}
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            name, kind, default, rule = (cell.strip() for cell in line.strip("|").split("|")[:4])
            default = json.loads(re.sub(r"(\d+)/(\d+)", lambda m: repr(int(m[1]) / int(m[2])), default.strip("`")))
            rows[name.strip("`")] = (kind, default, rule.strip("`"))
    return rows


DOCUMENTED = documented_fields()


def rule_cases(kind, default, rule):
    """(the rule as Rule keywords, values just outside it, values at its edges)."""

    def beyond(x, direction):
        return x + direction if kind == "integer" else math.nextafter(x, direction * math.inf)

    if m := re.fullmatch(r"(?:(\d+) )?entries >= 0", rule):
        size = int(m[1]) if m[1] else None
        below, zero = ([value, *default[1:]] for value in (beyond(0, -1), 0))
        longer, shorter = [*default, 0.5], default[:-1]
        if size:
            return {"lo": 0, "size": size}, [below, longer, shorter], [default, zero]
        return {"lo": 0, "size": None}, [below], [default, zero, longer]
    if " or " in rule:
        choices = tuple(json.loads(choice) for choice in rule.split(" or "))
        return {"choices": choices}, [choice.upper() for choice in choices], list(choices)
    if m := re.fullmatch(r"(>=?) (\S+)", rule):
        bound = json.loads(m[2])
        if m[1] == ">":
            return {"gt": bound}, [bound], [beyond(bound, 1)]
        return {"lo": bound}, [beyond(bound, -1)], [bound]
    m = re.fullmatch(r"(\S+)\.\.(\S+)", rule) or re.fullmatch(r"\[(\S+), (\S+)\]", rule)
    assert m, f"rule outside the grammar: {rule!r}"
    lo, hi = json.loads(m[1]), json.loads(m[2])
    return {"lo": lo, "hi": hi}, [beyond(lo, -1), beyond(hi, 1)], [lo, hi]


def test_table_matches_the_declarations():
    fields = dataclasses.fields(ConfigProfile)
    assert list(DOCUMENTED) == [f.name for f in fields]
    for f in fields:
        kind, default, rule = DOCUMENTED[f.name]
        assert DOC_TYPES[kind] == ("tuple" if f.type.startswith("tuple[float") else f.type), f.name
        value = getattr(ConfigProfile(), f.name)
        assert default == (list(value) if isinstance(value, tuple) else value), f.name
        assert f.metadata["rule"] == Rule(**rule_cases(kind, default, rule)[0]), f.name


@pytest.mark.parametrize("name", list(DOCUMENTED))
def test_documented_rule_holds_at_the_cli(name, tmp_path, capsys):
    """A value just outside the documented rule exits 4 naming the field;
    a value at its edge passes validation."""
    _, outside, edges = rule_cases(*DOCUMENTED[name])
    path = tmp_path / "config.json"

    def run(value):
        path.write_text(json.dumps({name: value}))
        return main(["profile", "synth:parity", "--config", str(path)]), capsys.readouterr().err

    for value in outside:
        code, err = run(value)
        assert code == 4 and f"invalid configuration: {name} must be " in err, (value, err)
    for value in edges:
        code, err = run(value)
        assert code != 4, (value, err)
