"""Source rules for the package and the experiment scripts.

Runtime invariants raise toolkit errors: an assert statement is stripped
under `python -O`, so none may appear in src/ or scripts/. The package and
the scripts import only the standard library, the runtime dependencies and
the package, so that an installed toolkit (and its import time) needs
nothing that only the tests use. And
only config.py constructs a random source, so every stream is derived from
the run's seed in one place.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
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
