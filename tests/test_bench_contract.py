"""What the benchmark under ``bench/`` needs of the package.

The benchmark imports package names directly, so a missing one breaks
every job; its tracer wraps the functions listed in ``LAYERS`` and
skips a missing one without a word.  Both are read here with ``ast``,
without importing or running the benchmark.

The benchmark's oracle counts nodal surpluses with ``nodal_surplus``,
which runs the same admissibility kernel as the jobs it checks.  The
last test runs the oracle on a sample of every workload's jobs twice,
once with the scalar admissibility oracle of ``conftest`` in its place,
and the two predictions must agree.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import scalar_nodal_surplus

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


#: Jobs of each workload, at seed 0, whose predictions are compared:
#: every tenth of the sweeps, which are slow to predict, and all others.
ORACLE_SAMPLE = {"sweep": slice(None, None, 10),
                 "classes": slice(None, None, 10), "torus": slice(None)}


@pytest.mark.parametrize("workload", sorted(ORACLE_SAMPLE))
def test_oracle_agrees_with_the_scalar_checks(workload, tmp_path,
                                              monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    oracles = importlib.import_module("oracles")
    jobs = importlib.import_module("jobs").build_jobs(workload, 0,
                                                      str(tmp_path))
    sample = jobs[ORACLE_SAMPLE[workload]]
    kernel = [oracles.expected(job) for job in sample]
    monkeypatch.setattr(oracles, "nodal_surplus", scalar_nodal_surplus)
    assert [oracles.expected(job) for job in sample] == kernel
