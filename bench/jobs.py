"""Workload definitions: seeded inputs and the CLI jobs that consume them.

A job is one in-process ``magnodal.cli.main([...])`` call, exactly the
command a user would type, on an operator file generated here from the
workload seed with ``magnodal.families``.  The job mix of a workload is
fixed (same commands, same graph sizes, same counts); the seed only
draws the random graphs, diagonals, couplings, eigenvalue positions and
command seeds, so every seed does about the same amount of work.

The counts are chosen so that, with the jobs ranked by time, the 50th
and the 90th percentile both fall well inside a block of jobs of one
size: a percentile that sat between two sizes would jump between them
from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from magnodal import cli
from magnodal.families import (
    complete_graph,
    complete_minus_matching,
    matching_family_for_betti,
    random_connected_graph,
    random_join_fixture,
    random_operator,
    random_regular_like_graph,
    strong_diagonal_fixture,
    surplus_probe_operator,
)
from magnodal.operators import SupportedMatrix, operator_to_json

WORKLOADS = ("sweep", "classes", "torus")

# Mixed into the workload seed so the three workloads draw unrelated inputs.
_WORKLOAD_TAG = {"sweep": 101, "classes": 202, "torus": 303}


@dataclass
class Job:
    """One CLI invocation plus what its oracle needs to know."""

    label: str
    kind: str
    argv: list[str]
    op: SupportedMatrix | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class JobResult:
    """What one execution of a job left behind."""

    code: int | None
    stdout: str
    error: str | None
    seconds: float
    cpu_seconds: float

    def payload(self):
        """The canonical JSON payload, or None when there is none."""
        if self.code != 0 or not self.stdout.strip():
            return None
        try:
            return json.loads(self.stdout)
        except json.JSONDecodeError:
            return None


def run_job(job: Job) -> JobResult:
    """Run one job in-process with stdout and stderr captured.

    ``cli.main`` is looked up at call time so that a traced run sees
    the wrapped entry point.  An exception escaping ``cli.main`` is a
    crash of the program under test and is recorded, not raised.
    """
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
        error = None
    except Exception as exc:  # the crash is the measured outcome
        code = None
        error = f"{type(exc).__name__}: {exc}"
    return JobResult(code, out.getvalue(), error, time.perf_counter() - t0,
                     time.process_time() - c0)


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Generate the inputs of a workload into ``workdir`` and its jobs."""
    if workload not in _WORKLOAD_TAG:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, _WORKLOAD_TAG[workload]])
    jobs = {"sweep": _sweep, "classes": _classes, "torus": _torus}[workload](
        rng)
    for i, job in enumerate(jobs):
        if job.op is not None:
            path = os.path.join(workdir, f"op{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(operator_to_json(job.op), fh)
            job.argv = [path if a == "{op}" else a for a in job.argv]
    return jobs


def _avg_dist(label, h, *flags) -> Job:
    return Job(label, "avg-dist", ["avg-dist", "--op", "{op}", *flags], h,
               {"classes": "--classes" in flags,
                "skip": "--skip-inadmissible" in flags})


# ---------------------------------------------------------------------------
# sweep: full 2^|E| signing enumerations


#: (vertices, edges, jobs) of the random-operator part of ``sweep``.
#: Ranked by time: the zero-diagonal and strong K4 jobs, 52 random jobs
#: of 64 signings (the median), 20 of 128 (with the narrow ones, whose
#: cost varies with their inadmissible signings), 12 of 256 (the 90th
#: percentile), 6 larger.
SWEEP_RANDOM = ((5, 6, 52), (5, 7, 8), (6, 8, 12), (6, 9, 3), (6, 10, 1))


def _sweep(rng) -> list[Job]:
    jobs = []
    for n, m, count in SWEEP_RANDOM:
        for i in range(count):
            h = random_operator(random_connected_graph(n, m, rng), rng)
            flags = ("--skip-inadmissible",) if i % 2 else ()
            jobs.append(_avg_dist(f"random-n{n}-e{m}", h, *flags))
    for n, count in ((4, 8), (5, 2)):
        for i in range(count):
            eta = float(rng.uniform(100.0, 150.0))
            h = strong_diagonal_fixture(complete_graph(n), eta=eta)
            job = _avg_dist(f"strong-K{n}", h,
                            *(("--skip-inadmissible",) if i % 2 else ()))
            job.meta["binomial"] = True
            jobs.append(job)
    # Narrow diagonal spread: some signings are inadmissible, which
    # drives both the exit-2 path and the skip path.
    for i in range(12):
        h = random_operator(random_connected_graph(5, 7, rng), rng,
                            diag_spread=0.0)
        jobs.append(_avg_dist("narrow-n5-e7", h,
                              *(("--skip-inadmissible",) if i % 2 else ())))
    k4 = complete_graph(4)
    zero = SupportedMatrix(k4, np.zeros(4),
                           -np.ones(k4.num_edges, dtype=np.complex128))
    jobs.append(_avg_dist("zero-diag-K4", zero))
    jobs.append(_avg_dist("zero-diag-K4", zero, "--skip-inadmissible"))
    return jobs


# ---------------------------------------------------------------------------
# classes: one representative per switching class


#: (family, beta, jobs) of the surplus-probe part of ``classes``.  Ranked
#: by time: 42 jobs on 6 or 7 edges (with K4), 18 of cmm beta 4 (the
#: median), 14 on 9 to 11 edges (with K5), 20 on 12 or 13 edges (the 90th
#: percentile), 6 on 13 to 15 edges (with K6).
CLASSES_PROBE = (
    ("cmm", 3, 26), ("cmm", 4, 18), ("cmm", 5, 4), ("cmm", 6, 2),
    ("cmm", 7, 18), ("cmm", 8, 2), ("cmm", 9, 1), ("cmm", 10, 1),
    ("rrl", 3, 8), ("rrl", 4, 2), ("rrl", 5, 4), ("rrl", 6, 2),
    ("rrl", 7, 1),
)


def _probe_graph(family: str, beta: int, rng):
    """A graph drawn the way ``clt-experiment`` draws it."""
    if family == "cmm":
        n, t = matching_family_for_betti(beta)
        return complete_minus_matching(n, t, rng=rng)
    return random_regular_like_graph(beta, rng)


def _classes(rng) -> list[Job]:
    jobs = []
    for family, beta, count in CLASSES_PROBE:
        for _ in range(count):
            g = _probe_graph(family, beta, rng)
            jobs.append(_avg_dist(f"{family}-b{beta}",
                                  surplus_probe_operator(g, rng), "--classes"))
    for n, count in ((4, 8), (5, 2), (6, 1)):
        for _ in range(count):
            eta = float(rng.uniform(100.0, 150.0))
            h = strong_diagonal_fixture(complete_graph(n), eta=eta)
            job = _avg_dist(f"strong-K{n}", h, "--classes")
            job.meta["binomial"] = True
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# torus: single-point eigensolves, Newton polish, Hessians


#: (family, beta, jobs) of the critical-scan part of ``torus``.  Ranked
#: by time: 80 transversality checks on random operators (the median),
#: 34 joins and linkages, 11 small verifications, 20 beta-3 scans on K4
#: (the 90th percentile), then the larger scans and the K5 verification.
TORUS_SCANS = (("cmm", 3, 20), ("cmm", 4, 1), ("rrl", 4, 1), ("cmm", 5, 1),
               ("cmm", 6, 1))

#: (vertices, edges, jobs) of random operators for verify-index.
TORUS_VERIFY = ((5, 7, 4), (5, 8, 3))


def _torus(rng) -> list[Job]:
    jobs = []
    for family, beta, count in TORUS_SCANS:
        for _ in range(count):
            g = _probe_graph(family, beta, rng)
            h = surplus_probe_operator(g, rng)
            k = int(rng.integers(1, g.n + 1))
            seed = int(rng.integers(0, 2 ** 31))
            jobs.append(Job(f"scan-{family}-b{beta}", "critical-scan",
                            ["critical-scan", "--op", "{op}", "--k", str(k),
                             "--starts", "4", "--seed", str(seed)], h,
                            {"k": k}))
    verify_ops = [(f"verify-strong-K{n}",
                   strong_diagonal_fixture(complete_graph(n),
                                           eta=float(rng.uniform(100, 150))))
                  for n in (4, 4, 5)]
    for n, m, count in TORUS_VERIFY:
        verify_ops += [(f"verify-random-n{n}-e{m}",
                        random_operator(random_connected_graph(n, m, rng),
                                        rng)) for _ in range(count)]
    for beta in (3, 4):
        verify_ops.append((f"verify-cmm-b{beta}",
                           surplus_probe_operator(_probe_graph("cmm", beta,
                                                               rng), rng)))
    for label, h in verify_ops:
        jobs.append(Job(label, "verify-index",
                        ["verify-index", "--op", "{op}"], h))
    for degree in (3, 4, 5, 6):
        for _ in range(6):
            seed = int(rng.integers(0, 2 ** 31))
            jobs.append(Job(f"linkage-d{degree}", "linkage-analyze",
                            ["linkage-analyze", "--emit-fixture", str(degree),
                             "--seed", str(seed)], None, {"degree": degree}))
    for _ in range(10):
        h, k = random_join_fixture(rng)
        jobs.append(Job("transversality-join", "transversality-check",
                        ["transversality-check", "--op", "{op}",
                         "--k", str(k)], h, {"k": k, "join": True}))
    for m in (7, 8) * 8:
        h = random_operator(random_connected_graph(5, m, rng), rng)
        for k in range(1, 6):
            jobs.append(Job(f"transversality-random-e{m}",
                            "transversality-check",
                            ["transversality-check", "--op", "{op}",
                             "--k", str(k)], h, {"k": k, "join": False}))
    return jobs
