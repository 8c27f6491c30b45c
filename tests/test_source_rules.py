"""Source rules for the package and the experiment scripts.

Runtime invariants raise toolkit errors: an assert statement is stripped
under `python -O`, so none may appear in src/ or scripts/. The package and
the scripts import only the standard library, the runtime dependencies and
the package, so that an installed toolkit (and its import time) needs
nothing that only the tests use. Only config.py constructs a random
source, so every stream is derived from the run's seed in one place. One
place builds the error: flag of a failing stage, one writes the metric
entries that every report reads, and no script catches an
exception: every entry point exits through cli.run. No code calls
numpy's LAPACK least-squares solvers (polyfit, lstsq): every fit is the
closed form of qmetrics.least_squares_slope. The register bound MAX_QUBITS
is compared in simulator.require_qubits alone. And src/ holds only what a verb, a script or the acceptance suite reaches, what
the benchmark traces, or a paper formula named in PAPER_FORMULAS: test
oracles live in tests/. Every Python file of the project parses under the
grammar of Python 3.10, the oldest version pyproject.toml accepts.
"""

import ast
import sys
from pathlib import Path

import pytest
from test_bench_tracer import load_tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
# pyproject.toml's [project] dependencies, plus the package itself
RUNTIME_IMPORTS = {"numpy", "jsonschema", "datacomplexity"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _id(path):
    """datacomplexity/<module>.py for a package module, scripts/<name>.py for a script."""
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_id)
def test_module_has_no_assert(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_id)
def test_module_imports_only_runtime_dependencies(path):
    """Every import is stdlib, a runtime dependency or the package (relative
    imports are the package): scipy, say, stays a test-only dependency."""
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.lineno, node.module))
    allowed = set(sys.stdlib_module_names) | RUNTIME_IMPORTS
    foreign = [(line, name) for line, name in imported if name.partition(".")[0] not in allowed]
    assert foreign == [], f"{path.name} imports packages outside the runtime dependencies: {foreign}"


def _error_flags(path):
    """Lines that build an "error:<name>=..." flag: a string or f-string whose
    text, with each replacement field read as {}, starts "error:" and a name."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text.startswith("error:") and text[6:7] not in ("", " "):
            found.append((_id(path), node.lineno))
    return found


def test_one_place_builds_error_flags():
    """A failing stage becomes an error: flag in MetricVector.attempt alone,
    so every partial report records its failures the same way."""
    found = sorted({site for path in MODULES for site in _error_flags(path)})
    assert len(found) == 1 and found[0][0] == "datacomplexity/scoring.py", f"error: flags built at {found}"


# dict methods that change the dict in place
DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _written(target):
    """The attributes a store target writes into: x.entries for both
    x.entries and x.entries[k], through tuple unpacking."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for elt in target.elts for a in _written(elt)]
    if isinstance(target, ast.Starred):
        return _written(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    return [target] if isinstance(target, ast.Attribute) else []


def _scoped_nodes(path):
    """(node, enclosing def) of every node of a module, the def named like
    Class.method ("" at module level, the def itself for its own node)."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(_tree(path), "")


def _entry_writers(path):
    """(module, enclosing def) of every store into an `entries` attribute:
    assigning, augmenting or deleting it or an item of it, or calling a dict
    method that changes it in place."""
    found = set()
    for node, scope in _scoped_nodes(path):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DICT_MUTATORS:
            targets = [node.func.value]
        else:
            targets = []
        if any(a.attr == "entries" for t in targets for a in _written(t)):
            found.add((_id(path), scope))
    return found


def test_one_place_writes_metric_entries():
    """MetricVector.add is the one writer of metric entries (its __init__
    makes the empty dict), so every entry passes its finiteness check."""
    found = set().union(*(_entry_writers(path) for path in MODULES))
    writers = {("datacomplexity/scoring.py", "MetricVector.__init__"), ("datacomplexity/scoring.py", "MetricVector.add")}
    assert found == writers, f"metric entries written in {sorted(found - writers)}"


@pytest.mark.parametrize("path", SCRIPTS, ids=_id)
def test_script_has_no_except(path):
    """A script's failures exit through cli.run, the one handler of every
    entry point, so no script catches an exception itself."""
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.ExceptHandler)]
    assert lines == [], f"{path.name} has except clauses at lines {lines}"


def test_one_register_rule():
    """Every state, circuit, map, ensemble, layout and study bounds its
    register through simulator.require_qubits, so no caller carries its own
    copy of the 1..MAX_QUBITS check."""
    found = {
        (_id(path), scope)
        for path in MODULES
        for node, scope in _scoped_nodes(path)
        if isinstance(node, ast.Compare) and "MAX_QUBITS" in _names(node)
    }
    assert found == {("datacomplexity/simulator.py", "require_qubits")}, f"MAX_QUBITS compared in {sorted(found)}"


PYTHON_FILES = sorted(p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    """pyproject.toml says requires-python >= 3.10: syntax newer than 3.10
    (except*, say) would break that claim on an interpreter the suite does
    not run on."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# Calls that construct a numpy random source; any other call into
# numpy.random (np.random.seed, np.random.uniform, ...) uses its global one.
RANDOM_CONSTRUCTORS = {"SeedSequence", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState", "default_rng", "Generator"}


def _dotted(node):
    """`np.random.default_rng` for the expression np.random.default_rng."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "config.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_config_constructs_random_sources(path):
    """No call of a random source's constructor or of numpy.random, and no
    import of the random module; annotations such as np.random.Generator
    are not calls and stay allowed."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name.rpartition(".")[2] in RANDOM_CONSTRUCTORS or name.startswith(("np.random.", "numpy.random.")):
                found.append((node.lineno, name))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "random"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "random":
            found.append((node.lineno, "random"))
    assert found == [], f"{path.name} constructs random sources outside config.py: {found}"


# numpy's least-squares solvers, both LAPACK calls, at any import path
LEAST_SQUARES_SOLVERS = {"polyfit", "lstsq"}


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_id)
def test_no_lapack_least_squares(path):
    """A LAPACK fit rounds differently on each BLAS kernel; the closed form
    in qmetrics.least_squares_slope gives one slope on all of them."""
    found = [
        (node.lineno, _dotted(node.func))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] in LEAST_SQUARES_SOLVERS
    ]
    assert found == [], f"{path.name} calls a LAPACK least-squares solver: {found}"


# Formulas of the paper that README lists as features although no verb
# reports them; their unit tests are their only callers.
PAPER_FORMULAS = {
    "quantum_interaction_order",
    "pure_state_qfi",
    "circuit_error_rate",
    "generalization_gap",
    "default_tripartition",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name an AST mentions: as a Name, an imported alias or an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _definitions_and_named():
    """(top-level function and class name -> module, the names that other
    top-level statements of src/, the scripts and the acceptance suite
    mention). A definition naming only itself, by recursion, does not count."""
    defined, named = {}, set()
    for path in MODULES:
        for stmt in _tree(path).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if own:
                defined[own] = _id(path)
            named |= _names(stmt) - {own}
    for path in SCRIPTS + [ACCEPTANCE]:
        named |= _names(_tree(path))
    return defined, named


def _traced():
    return {name for names in load_tracer().TRACED.values() for name in names}


def test_every_definition_is_reached_traced_or_a_paper_formula():
    """Every top-level function and class in src/ is named by another
    top-level statement of src/, by a script or by the acceptance suite;
    else the benchmark tracer wraps it, or it is in PAPER_FORMULAS. Test
    oracles and code no verb runs belong in tests/ or nowhere.

    This is a naming rule, one level deep, and no proof of reachability: a
    definition named only by another unreached one passes, and so does one
    that shares its name with an attribute used elsewhere."""
    defined, named = _definitions_and_named()
    allowed = named | _traced() | PAPER_FORMULAS
    unreached = sorted(f"{module}: {name}" for name, module in defined.items() if name not in allowed)
    assert unreached == [], f"top-level definitions that nothing in src/, scripts/ or the acceptance suite names: {unreached}"


def test_paper_formulas_are_defined_and_otherwise_unreached():
    """A PAPER_FORMULAS entry that is no longer defined, or that a verb,
    script, the acceptance suite or the tracer reaches anyway, is stale."""
    defined, named = _definitions_and_named()
    stale = sorted(PAPER_FORMULAS - (defined.keys() - named - _traced()))
    assert stale == [], f"stale PAPER_FORMULAS entries: {stale}"
