"""Tests of the benchmark itself: oracle, tracing, references, exit codes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from jobs import JobResult, build_jobs, run_job  # noqa: E402

import magnodal  # noqa: E402


def _jobs(workload, tmp_path, seed=0):
    return build_jobs(workload, seed, str(tmp_path))


def _first(jobs, label):
    return next(job for job in jobs if job.label == label)


def test_planted_wrong_count_is_a_failed_job(tmp_path):
    job = _first(_jobs("sweep", tmp_path), "strong-K4")
    result = run_job(job)
    exp = oracles.expected(job)
    assert oracles.check(job, exp, result).ok

    payload = json.loads(result.stdout)
    payload["counts"][0] += 1
    payload["counts"][1] -= 1
    planted = JobResult(result.code, json.dumps(payload), None,
                        result.seconds, result.cpu_seconds)
    verdict = oracles.check(job, exp, planted)
    assert not verdict.ok and verdict.defect is None

    passes = [harness.Pass(1.0, [planted], [1.0])]
    verdicts, _ = harness.check_passes("sweep", 1, [job], passes)
    assert not verdicts[0][0].ok and verdicts[0][0].defect is None


def test_skip_defect_is_counted_but_explained(tmp_path):
    job = next(j for j in _jobs("sweep", tmp_path)
               if j.label == "zero-diag-K4" and j.meta["skip"])
    verdict = oracles.check(job, oracles.expected(job), run_job(job))
    assert not verdict.ok
    assert verdict.defect == "skip-partial-counts"


def test_failed_jobs_do_not_depend_on_the_pass_count():
    ok, bad = oracles.Verdict(True), oracles.Verdict(False, "wrong")
    row = [ok, bad, ok, bad]
    assert harness.tally([row] * 3) == (12, 6, 4, 2)
    assert harness.tally([row] * 5)[2:] == (4, 2)
    assert harness.tally([row, [ok, ok, bad, bad]])[2:] == (4, 3)


def test_polygon_connectivity_matches_grashof():
    assert oracles.polygon_connectivity([1, 1, 1]) == "two-components"
    assert oracles.polygon_connectivity([5, 1, 1]) == "empty"
    # Non-Grashof quadrilateral: one circle of configurations.
    assert oracles.polygon_connectivity([1, 0.8, 0.3, 0.3]) == "connected"
    # Grashof quadrilateral: two circles.
    assert oracles.polygon_connectivity([1, 1, 0.9, 0.2]) == \
        "two-components"


def test_rank_tolerance_defect_needs_a_resolved_eigenvalue():
    spectrum = [-1.35, -0.075, -0.0016, 8.8e-8, 0.091]
    assert oracles._zero_band_swallowed(spectrum, 3)
    assert not oracles._zero_band_swallowed(spectrum, 2)
    assert not oracles._zero_band_swallowed([-1.35, -0.075, 1e-15, 0.1], 2)
    assert not oracles._zero_band_swallowed([-1.35, -0.075, 1e-3, 0.1], 2)


def _bindings():
    """Every module binding of every traced function, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "magnodal"
                               or name.startswith("magnodal.")):
            continue
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, "__module__", "") \
                    .startswith("magnodal"):
                out[(name, attr)] = value
    return out


def test_wrappers_are_restored_after_traced_run(tmp_path):
    before = _bindings()
    jobs = _jobs("torus", tmp_path)[:3] + _jobs("sweep", tmp_path)[:2]
    tracer, traced = harness.traced_pass(jobs)
    assert len(tracer.name) > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(hasattr(v, "__wrapped__") for v in after.values())
    assert magnodal.eigh is magnodal.spectral.eigh


def test_tracer_wraps_every_binding(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        modules = {mod.__name__ for mod, attr, _ in tracer.patched
                   if attr == "eigh"}
        assert {"magnodal.spectral", "magnodal.nodal", "magnodal.morse",
                "magnodal.linkage", "magnodal.transversality",
                "magnodal.families", "magnodal.cli"} <= modules
    assert tracer.patched == []


def _traced_calls(jobs):
    tracer, traced = harness.traced_pass(jobs)
    layer = harness.per_layer(tracer, jobs, traced, 0.0)
    return {k: v for k, v in layer.items() if k.endswith(".calls")}


def test_calls_repeat_for_a_fixed_seed(tmp_path):
    jobs = []
    for workload, count in (("sweep", 6), ("classes", 6), ("torus", 40)):
        d = tmp_path / workload
        d.mkdir()
        jobs += _jobs(workload, d, seed=7)[:count]
    first = _traced_calls(jobs)
    second = _traced_calls(jobs)
    assert first == second
    assert first["spectral.eigh.calls"] > 0


@pytest.mark.parametrize("workload", ["classes", "torus"])
def test_default_seed_reproduces_references(workload, tmp_path):
    refs = harness.load_references()[workload]
    jobs = _jobs(workload, tmp_path, seed=harness.DEFAULT_SEED)
    assert len(refs) == len(jobs)
    for job, ref in zip(jobs, refs):
        if ref is None:
            continue
        verdict = oracles.matches_reference(job, run_job(job), ref)
        assert verdict.ok, (job.label, verdict.reason)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
