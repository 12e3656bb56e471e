"""What the benchmark under ``bench/`` needs of the package.

The benchmark imports package names directly, so a missing one breaks
every job; its tracer wraps the functions listed in ``LAYERS`` and
skips a missing one without a word.  Both are read here with ``ast``,
without importing or running the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from magnodal... import name``."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.module == "magnodal"
                 or node.module.startswith("magnodal."))
            for alias in node.names]


def layers() -> dict[str, tuple[str, ...]]:
    """The ``LAYERS`` literal of ``bench/tracing.py``."""
    for node in parse(BENCH / "tracing.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("bench/tracing.py defines no LAYERS")


def test_bench_scripts_are_found():
    assert {p.name for p in SCRIPTS} >= {"harness.py", "jobs.py",
                                         "oracles.py", "tracing.py"}


def importable(module: str, name: str) -> bool:
    """``from module import name`` succeeds: an attribute or a submodule."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (
        hasattr(mod, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_imported_package_names_exist(path):
    missing = [f"{module}.{name}"
               for module, name in package_imports(parse(path))
               if not importable(module, name)]
    assert missing == []


def test_traced_functions_exist():
    spans = layers()
    assert spans
    missing = [f"{layer}.{fn}" for layer, fns in spans.items() for fn in fns
               if not callable(getattr(
                   importlib.import_module(f"magnodal.{layer}"), fn, None))]
    assert missing == []
