"""Benchmark harness: set-up, timed passes, traced pass, oracle, report.

One run of one workload:

1. ``setup_s``: ``SETUP_PROBES`` fresh interpreters each import the
   package, generate the inputs, write the operator files and run one
   warm-up job; the time from spawning one to its first timed job is a
   sample and the median is reported.
2. The run's own set-up, then the timed phase: closed-loop passes over
   the job list, one job at a time, until ``--seconds`` have elapsed
   and at least ``MIN_PASSES`` passes are done.  Each job's wall and
   CPU time is recorded with the reference unit timed before and after
   it (``calibration.py``).
3. With ``--trace 1``, one more pass with every layer wrapped
   (``tracing.py``); the per-layer numbers come from its spans.
4. Outside any timed region, every execution is checked against the
   oracle (``oracles.py``) and, for the default seed, against the stored
   references.

The last line of stdout is the JSON result; the lines before it are the
human-readable report.  A copy of the report with the environment goes
to ``.bench_runs/`` in the checkout, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import oracles
import tracing
from calibration import NOMINAL_UNIT_S, reference_unit
from jobs import WORKLOADS, build_jobs, run_job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
REFERENCES = os.path.join(HERE, "references.json")

DEFAULT_SEED = 0
SETUP_PROBES = 7
#: Fewest timed passes: a job's median needs three samples to drop one.
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

_CALLS = ("spectral.eigh", "spectral.multiplicity",
          "graphs.connected_components", "graphs.cycle_basis",
          "nodal.nodal_count", "operators.gauge_classes_of_signings",
          "operators.signs_for_index", "operators.magnetic_action",
          "morse.gradient_coords", "morse.hessian_eigenvalue",
          "linkage.sample_configuration", "transversality.is_transverse_at")
_SELF = ("spectral.eigh", "spectral.multiplicity",
         "graphs.connected_components", "nodal.average_surplus_distribution",
         "nodal.nodal_count", "operators.gauge_classes_of_signings",
         "operators.signs_for_index", "operators.magnetic_action",
         "morse.critical_scan", "morse.gradient_coords",
         "morse.hessian_eigenvalue", "morse.verify_index_equals_surplus",
         "linkage.analyze_exceptional", "linkage.build_exceptional_fixture",
         "transversality.is_transverse_at", "cli.main",
         "serialize.dumps_canonical")

PER_LAYER = tuple(
    [(f"{s}.calls", "count") for s in _CALLS]
    + [(f"{s}.self_s", "s") for s in _SELF]
    + [("nodal.signings_solved", "count"), ("nodal.admissible_ratio", "ratio"),
       ("operators.classes_per_signing_visited", "ratio"),
       ("morse.eigh_per_start", "calls/start"),
       ("morse.polish_converged_ratio", "ratio"),
       ("serialize.bytes_out", "bytes"), ("trace.overhead_s", "s")])


@dataclass
class Pass:
    wall: float
    results: list
    #: Per job, the mean of the reference units timed before and after it.
    units: list


def _warm_up(jobs) -> None:
    run_job(jobs[0])


def pin_to_one_cpu() -> int:
    """Pin this process, and the probes it spawns, to its lowest CPU.

    The jobs then run on the CPU the reference unit is timed on, so the
    calibration sees that CPU's speed and stolen time.  The package's
    default thread pool still starts; its two threads share the CPU,
    which costs the sweep nothing measurable (its CPU time equals its
    wall time on two free cores).
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _pass(jobs, tracer: tracing.Tracer | None = None) -> Pass:
    """One closed-loop pass, a reference unit before and after each job."""
    t0 = time.perf_counter()
    results, refs = [], []
    for i, job in enumerate(jobs):
        refs.append(reference_unit())
        if tracer is not None:
            tracer.job_id = i
        results.append(run_job(job))
    refs.append(reference_unit())
    wall = time.perf_counter() - t0 - sum(refs)
    return Pass(wall, results, [(a + b) / 2.0 for a, b in zip(refs, refs[1:])])


def run_passes(jobs, seconds: float) -> list[Pass]:
    """Passes over the job list until ``seconds`` elapse, at least three."""
    passes: list[Pass] = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        passes.append(_pass(jobs))
    return passes


def traced_pass(jobs) -> tuple[tracing.Tracer, Pass]:
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _pass(jobs, tracer)
    return tracer, traced


def calibrated_seconds(p: Pass) -> float:
    """A pass's job times in nominal-host seconds (``calibration.py``)."""
    return NOMINAL_UNIT_S * sum(r.seconds / u
                                for r, u in zip(p.results, p.units))


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES
                  ) -> list[float]:
    """Spawn-to-first-timed-job time of fresh interpreters.

    Not calibrated: start-up is mostly loading files and libraries, which
    the reference unit does not track.
    """
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, RUN_PY, "--setup-probe", "--workload",
                 workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                _, err = proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        samples.append(elapsed)
    return samples


def setup_probe(workload: str, seed: int) -> int:
    workdir = tempfile.mkdtemp(prefix="probe-", dir=RUNS_DIR)
    try:
        _warm_up(build_jobs(workload, seed, workdir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# checking


def load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check_passes(workload, seed, jobs, passes) -> tuple[list, float]:
    """Verdict per execution, and the seconds the oracle took."""
    t0 = time.perf_counter()
    expected = [oracles.expected(job) for job in jobs]
    refs = load_references().get(workload) if seed == DEFAULT_SEED else None
    if refs is not None and len(refs) != len(jobs):
        raise RuntimeError("stored references do not match the job list")
    verdicts = []
    for p in passes:
        row = []
        for i, (job, result) in enumerate(zip(jobs, p.results)):
            v = oracles.check(job, expected[i], result)
            if v.ok and refs is not None and refs[i] is not None:
                v = oracles.matches_reference(job, result, refs[i])
            row.append(v)
        verdicts.append(row)
    return verdicts, time.perf_counter() - t0


def tally(timed) -> tuple[int, int, int, int]:
    """Executions, failed executions, jobs and failed jobs of the passes.

    An operation of the result line is a job: every pass runs the same
    jobs on the same inputs, and a job fails when any of its executions
    fails.  So the job counts depend on the seed only, not on how many
    passes the host's speed allowed.
    """
    executions = sum(len(row) for row in timed)
    failed_executions = sum(not v.ok for row in timed for v in row)
    failed = sum(not all(v.ok for v in col) for col in zip(*timed))
    return executions, failed_executions, len(timed[0]), failed


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup: list[float], passes: list[Pass]
               ) -> tuple[dict, dict]:
    """The untraced metrics, and the same timings uncalibrated.

    Each job's time is divided by the reference unit timed around it
    (``calibration.py``) and scaled to nominal-host seconds; the job's
    value is then its median over the passes, so a burst of outside load
    that hits one pass moves no job.  ``wall_s`` and ``cpu_s`` are sums
    over the jobs (one pass at median speed); the job quantiles are
    taken over the jobs, one sample each.
    """
    seconds = np.array([[r.seconds for r in p.results] for p in passes])
    cpu = np.array([[r.cpu_seconds for r in p.results] for p in passes])
    units = np.array([p.units for p in passes]) / NOMINAL_UNIT_S

    def timings(wall, cpu_time):
        return {"wall_s": float(wall.sum()),
                "job_p50_s": float(np.quantile(wall, 0.5)),
                "job_p90_s": float(np.quantile(wall, 0.9)),
                "cpu_s": float(cpu_time.sum())}

    calibrated = {
        "setup_s": float(np.median(setup)),
        **timings(np.median(seconds / units, axis=0),
                  np.median(cpu / units, axis=0)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {**timings(np.median(seconds, axis=0), np.median(cpu, axis=0)),
           "reference_unit_s": float(np.median(units) * NOMINAL_UNIT_S)}
    return calibrated, raw


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: tracing.Tracer, jobs, traced: Pass,
              untraced_wall: float) -> dict:
    a = tracer.arrays()
    names = a["names"].tolist()
    calls = np.bincount(a["name"], minlength=len(names))
    own = np.bincount(a["name"], weights=tracing.self_times(a),
                      minlength=len(names))
    out = {f"{s}.calls": int(calls[names.index(s)]) for s in _CALLS}
    out.update({f"{s}.self_s": float(own[names.index(s)]) for s in _SELF})

    solved = admissible = attempted = starts = converged = 0
    for job, result in zip(jobs, traced.results):
        p = result.payload()
        if p is None:
            continue
        if job.kind == "avg-dist":
            ok = p["n_samples"] // job.op.graph.n
            admissible += ok
            attempted += ok + p["skipped_signings"]
            solved += 2 ** p["betti"] if job.meta["classes"] \
                else ok + p["skipped_signings"]
        elif job.kind == "critical-scan":
            starts += p["starts_attempted"]
            converged += p["starts_attempted"] - p["unconverged"]
    eigh_id = names.index("spectral.eigh")
    sfi_id = names.index("operators.signs_for_index")
    scan_eigh = int(np.count_nonzero(
        tracing.inside(a, "morse.critical_scan") & (a["name"] == eigh_id)))
    visited = int(np.count_nonzero(
        tracing.inside(a, "operators.gauge_classes_of_signings")
        & (a["name"] == sfi_id)))
    found = tracer.classes_found
    out.update({
        "nodal.signings_solved": solved,
        "nodal.admissible_ratio": _ratio(admissible, attempted),
        "operators.classes_per_signing_visited": _ratio(
            found, max(found, visited)),
        "morse.eigh_per_start": _ratio(scan_eigh, starts),
        "morse.polish_converged_ratio": _ratio(converged, starts),
        "serialize.bytes_out": tracer.bytes_out,
        "trace.overhead_s": calibrated_seconds(traced) - untraced_wall,
    })
    return out


# ---------------------------------------------------------------------------
# environment and report


def _blas_threads():
    """OpenBLAS thread count through its C API, when it is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, jobs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # numpy < 1.25 layout
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out=print) -> dict:
    """One full run of one workload; returns the result record."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    setup = measure_setup(workload, seed)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR)
    try:
        jobs = build_jobs(workload, seed, workdir)
        _warm_up(jobs)
        passes = run_passes(jobs, seconds)
        metrics, raw = end_to_end(setup, passes)
        checked = list(passes)
        if trace:
            tracer, traced = traced_pass(jobs)
            checked.append(traced)
            layer = per_layer(tracer, jobs, traced, metrics["wall_s"])
            tracer.save(os.path.join(RUNS_DIR, f"spans-{workload}.npz"))
        verdicts, oracle_s = check_passes(workload, seed, jobs, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = verdicts[:len(passes)]
    executions, failed_executions, attempted, failed = tally(timed)
    unexplained = [(jobs[i], v) for row in verdicts
                   for i, v in enumerate(row) if not v.ok and v.defect is None]
    defects = {}
    for row in timed:
        for i, v in enumerate(row):
            if v.defect is not None:
                hit = defects.setdefault(v.defect, {"executions": 0,
                                                    "jobs": set()})
                hit["executions"] += 1
                hit["jobs"].add(i)
    defects = {name: {"executions": hit["executions"],
                      "jobs": len(hit["jobs"]),
                      "labels": sorted({jobs[i].label for i in hit["jobs"]})}
               for name, hit in defects.items()}
    units = dict(PER_LAYER if trace else END_TO_END)
    values = layer if trace else metrics
    record = {
        "environment": environment(workload, seed, jobs),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "job_wall_s": [[r.seconds for r in p.results] for p in passes],
        "oracle_s": oracle_s,
        "executions": executions,
        "failed_executions": failed_executions,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "known_defects": defects,
        "correct": not unexplained,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "raw": raw,
    }
    if trace:
        record["end_to_end"] = metrics
    _report(record, unexplained, out)
    with open(os.path.join(RUNS_DIR, f"result-{workload}-seed{seed}-trace"
                                      f"{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _report(record: dict, unexplained, out) -> None:
    env = record["environment"]
    out(f"workload {env['workload']}  seed {env['seed']}  jobs {env['jobs']}"
        f"  passes {record['passes']}  executions {record['executions']}")
    out(f"environment  {env['machine']} {env['cpu_model']}  cores "
        f"{env['cores']} (pinned to {env['pinned_to_cpus']})  python "
        f"{env['python']}  numpy {env['numpy']}  blas {env['blas']} "
        f"threads {env['blas_threads']}")
    for name, m in record["metrics"].items():
        out(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    out(f"  {'fail_ratio':44s} {record['fail_ratio']:>16.6g} ratio "
        f"({record['failed']} of {record['attempted']} jobs; "
        f"{record['failed_executions']} of {record['executions']} "
        f"executions)")
    out("  uncalibrated: " + "  ".join(
        f"{name} {value:.6g}" for name, value in record["raw"].items()))
    for name, hit in sorted(record["known_defects"].items()):
        out(f"  known defect {name}: {hit['jobs']} of {env['jobs']} jobs "
            f"({', '.join(hit['labels'])}), {hit['executions']} failed "
            f"executions; {oracles.KNOWN_DEFECTS[name]}")
    seen = set()
    for job, v in unexplained:
        if (job.label, v.reason) not in seen and len(seen) < 10:
            seen.add((job.label, v.reason))
            out(f"  FAILED {job.label} {' '.join(job.argv[:1])}: {v.reason}")
    out(f"correct {str(record['correct']).lower()}  (oracle "
        f"{record['oracle_s']:.1f} s)")


def record_references(out=print) -> int:
    """Rewrite the stored references from the current program."""
    refs = {}
    os.makedirs(RUNS_DIR, exist_ok=True)
    for workload in ("classes", "torus"):
        workdir = tempfile.mkdtemp(prefix="refs-", dir=RUNS_DIR)
        try:
            jobs = build_jobs(workload, DEFAULT_SEED, workdir)
            refs[workload] = [oracles.reference_of(job, run_job(job))
                              for job in jobs]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    out(f"wrote {REFERENCES}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--record-references", action="store_true",
                   help="rewrite references.json from the current program")
    return p


def main(argv) -> int:
    args = _parser().parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.record_references:
        return record_references()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    pin_to_one_cpu()
    records = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if len(records) == 1:
        (rec,) = records.values()
        metrics = rec["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, rec in records.items()
                   for k, v in rec["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0
