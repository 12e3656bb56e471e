"""Command-line experiment harness.

Thin wrappers over the library operations plus result persistence.
The library decides every precondition of a computation and raises
its error; a command checks only its own options.
A run with ``--out`` writes a record, built only then, carrying the
config echo, tolerances and results payload; identical configs
reproduce the results payload byte-for-byte.  Exit codes: 0 success,
2 precondition of the underlying statement unmet, 3 input/schema/usage
error, 4 enumeration cap exceeded, 1 internal failure.

``main`` builds the argument parser on its first call and reuses it for
every later call in the process.  The parser holds no per-run state:
``parse_args`` returns a fresh namespace each time, every default is
immutable, the value parsers are pure functions, usage errors raise
instead of being stored, and help text is formatted when it is printed.
An argv that starts with a command name goes straight to its
subparser; any other argv takes the full parse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, nodal
from .errors import (
    AdmissibilityError,
    CapExceededError,
    EigenSolverError,
    GraphMismatchError,
    InternalCrossCheckError,
    SchemaError,
)
from .families import (
    matching_family_for_betti,
    complete_minus_matching,
    random_regular_like_graph,
    surplus_probe_operator,
)
from .graphs import betti_number, graph_from_json
from .linkage import analyze_exceptional, build_exceptional_fixture
from .morse import critical_scan, verify_index_equals_surplus
from .nodal import (
    average_surplus_distribution,
    normalized_distribution,
    position_checks,
)
from .operators import operator_from_json, operator_to_json
from .serialize import csv_text, dumps_canonical, write_csv, write_json
from .spectral import DEGENERACY_TOL, VANISH_TOL, eigh
from .transversality import (
    find_edge_separated_pair,
    is_transverse_at,
    support_components,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # precondition-failure code; route usage problems to the I/O code.
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """A ``--tol-*`` value: a finite number, at least 0."""
    value = float(text)  # argparse reports a ValueError as a usage error
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0: {text}")
    return value


def _at_least(low: int):
    """An integer option value of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a usage error
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}: {text}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="magnodal",
                     description="magnetic nodal-statistics laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for main's dispatch
    tol_defaults = {"degeneracy": DEGENERACY_TOL, "vanish": VANISH_TOL}

    def command(name, func, help, *, op="required", k=None, seed=False,
                tolerances=("degeneracy", "vanish"), table=True):
        """A subcommand with only the shared options its ``func`` reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if op:
            p.add_argument("--graph", help="graph JSON; checked against the "
                           "operator file when both are given")
            p.add_argument("--op", required=op == "required",
                           help="operator JSON")
        if k:
            p.add_argument("--k", type=_at_least(1), required=k == "required",
                           help="1-based eigenvalue index")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=0)
        for tol in tolerances:
            p.add_argument(f"--tol-{tol}", type=_tolerance,
                           default=tol_defaults[tol])
        p.add_argument("--out", help="output path stem; .json and, for "
                       "tabular commands, .csv are written")
        if table:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json", help="stdout payload format")
        return p

    command("spectrum", cmd_spectrum, "eigenvalues of one operator",
            tolerances=())
    command("nodal-dist", cmd_nodal_dist,
            "nodal counts and surpluses of one operator", k="optional")

    p = command("avg-dist", cmd_avg_dist,
                "surplus histogram averaged over all signings")
    p.add_argument("--classes", action="store_true",
                   help="accepted and ignored: the average always solves "
                   "one representative per switching class")
    p.add_argument("--skip-inadmissible", action="store_true",
                   help="drop failing signings instead of aborting; the "
                   "average then runs over admissible signings only")

    p = command("critical-scan", cmd_critical_scan,
                "enumerate and search critical points",
                k="required", seed=True)
    p.add_argument("--starts", type=_at_least(0), default=64)

    command("verify-index", cmd_verify_index,
            "Morse index versus nodal surplus, all classes")

    p = command("linkage-analyze", cmd_linkage_analyze,
                "analyze an exceptional critical point",
                op="optional", k="optional", seed=True, table=False)
    p.add_argument("--emit-fixture", type=_at_least(3), metavar="DEGREE",
                   help="build a fixture of this vanishing-vertex degree "
                   "instead of reading --op, and write it next to --out")

    command("transversality-check", cmd_transversality_check,
            "stratum transversality at one eigenvalue", k="required",
            tolerances=("degeneracy",), table=False)

    p = command("clt-experiment", cmd_clt_experiment,
                "normalized surplus laws against the Gaussian",
                op=None, seed=True)
    p.add_argument("--family",
                   choices=("complete-minus-matching", "random-regular-like"),
                   default="complete-minus-matching")
    p.add_argument("--beta-min", type=int, default=3)
    p.add_argument("--beta-max", type=int, default=8)
    p.add_argument("--samples", type=_at_least(1), default=20)
    p.add_argument("--retry-cap", type=_at_least(0), default=10)

    return parser


#: The parser ``main`` reuses, built by the first ``_parser()`` call.
_PARSER: _Parser | None = None


def _parser() -> _Parser:
    """The parser ``main`` uses, built once per process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


# ---------------------------------------------------------------------------
# plumbing


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _load_operator(args):
    h = operator_from_json(_load_json(args.op))
    if args.graph:
        g = graph_from_json(_load_json(args.graph))
        if g != h.graph:
            raise GraphMismatchError(
                f"graph file {args.graph} does not match the operator's graph")
    k = getattr(args, "k", None)
    if k is not None and k > h.graph.n:
        raise _UsageError(f"--k {k} is outside 1..{h.graph.n}, the "
                          f"eigenvalue positions of the operator")
    return h


def _stem(out: str) -> str:
    root, ext = os.path.splitext(out)
    return root if ext in (".json", ".csv") else out


def _config_echo(args) -> dict:
    """The parsed options; the tolerances are echoed in their own block."""
    return {key: value for key, value in vars(args).items()
            if key not in ("func", "_t0", "out")
            and not key.startswith("tol_")}


def _emit(args, payload: dict, csv_spec=None) -> None:
    """Write the run record and optional CSV table, echo to stdout; the
    record is built only for ``--out``, with the kernel's product cuts
    as ``nodal`` holds them then, and the table's rows, maybe a
    generator, are read once, if printed or written."""
    if args.out:
        write_json(_stem(args.out) + ".json", {
            "artifact": {"name": "magnodal", "version": __version__},
            "config": _config_echo(args),
            "tolerances": {
                "degeneracy": getattr(args, "tol_degeneracy", DEGENERACY_TOL),
                "vanish": getattr(args, "tol_vanish", VANISH_TOL),
                "product": nodal.PRODUCT_DEGENERATE_TOL,
                "real": nodal.PRODUCT_REAL_TOL,
            },
            "results": payload,
            "wall_time_s": round(time.monotonic() - args._t0, 3),
        })
    if csv_spec is not None and (args.out or args.format == "csv"):
        schema, header, rows = csv_spec
        rows = list(rows)
        if args.out:
            write_csv(_stem(args.out) + ".csv", schema, header, rows)
        if args.format == "csv":
            print(csv_text(header, rows), end="")
            return
    print(dumps_canonical(payload))


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(args) -> None:
    h = _load_operator(args)
    es = eigh(h)
    payload = {"eigenvalues": [float(x) for x in es.values]}
    _emit(args, payload,
          ("magnodal/spectrum", ["k", "eigenvalue"],
           ([k + 1, float(x)] for k, x in enumerate(es.values))))


def cmd_nodal_dist(args) -> None:
    h = _load_operator(args)
    es = eigh(h)
    checks = position_checks(h.graph, h.offdiag[None], es.values[None],
                             es.vectors[None], h.norm_fro,
                             tol_degeneracy=args.tol_degeneracy,
                             tol_vanish=args.tol_vanish)
    beta = betti_number(h.graph)
    rows, histogram = [], [0] * (beta + 1)
    for k in range(1, h.graph.n + 1) if args.k is None else [args.k]:
        exc = checks.error(0, k - 1)
        if exc is not None:
            # the position --k asks for must pass; a table lists failures
            if args.k is not None or not isinstance(exc, AdmissibilityError):
                raise exc
            rows.append({"k": k, "status": "inadmissible",
                         "reason": str(exc), "nodal_count": None,
                         "surplus": None})
            continue
        surplus = int(checks.surplus[0, k - 1])
        count = surplus + k - 1
        histogram[surplus] += 1
        rows.append({"k": k, "status": "ok", "reason": "",
                     "nodal_count": count, "surplus": surplus})
    payload = ({"betti": beta, "rows": rows, "surplus_histogram": histogram,
                "admissible": sum(histogram)} if args.k is None else
               {"k": k, "nodal_count": count, "surplus": surplus,
                "betti": beta})
    _emit(args, payload,
          ("magnodal/nodal", ["k", "status", "nodal_count", "surplus"],
           ([r["k"], r["status"], r["nodal_count"], r["surplus"]]
            for r in rows)))


def cmd_avg_dist(args) -> None:
    h = _load_operator(args)
    dist = average_surplus_distribution(
        h, skip_inadmissible=args.skip_inadmissible,
        tol_degeneracy=args.tol_degeneracy, tol_vanish=args.tol_vanish)
    beta, counts = dist.betti, dist.counts.tolist()
    symmetric = counts == counts[::-1]
    if dist.n_samples == 0:
        # no vertex, or every signing skipped: the average has no samples
        probs = [None] * (beta + 1)
        mean = variance = deviation = None
        reason = ("no eigenvalue positions (the graph has no vertices)"
                  if h.graph.n == 0 else
                  f"no admissible signings ({dist.skipped} skipped)")
        print(f"{reason}; moments undefined", file=sys.stderr)
    else:
        binom = [math.comb(beta, s) / 2 ** beta for s in range(beta + 1)]
        probs = dist.probs.tolist()
        mean, variance = dist.mean, dist.variance
        deviation = float(np.add.reduce(np.abs(dist.probs - binom)))
        print(f"mean {mean:.12g}  variance {variance:.12g}  "
              f"symmetric {symmetric}  binomial L1 {deviation:.3e}",
              file=sys.stderr)
    payload = {
        "betti": beta,
        "counts": counts,
        "n_samples": dist.n_samples,
        "skipped_signings": dist.skipped,
        "mean": mean,
        "variance": variance,
        "symmetric_counts": symmetric,
        "binomial_l1_deviation": deviation,
        "averaged_over": ("admissible signings only"
                          if args.skip_inadmissible else "all signings"),
    }
    _emit(args, payload,
          ("magnodal/avg-dist", ["surplus", "count", "prob"],
           map(list, zip(range(beta + 1), counts, probs))))


def cmd_critical_scan(args) -> None:
    h = _load_operator(args)
    result = critical_scan(h, args.k, starts=args.starts, seed=args.seed,
                           tol_degeneracy=args.tol_degeneracy,
                           tol_vanish=args.tol_vanish)
    payload = {
        "k": args.k,
        "reports": [r.to_payload() for r in result.reports],
        "incorrigible_candidates": [
            {"coords": list(c), "gap": g}
            for c, g in result.incorrigible_candidates],
        "coverage": result.coverage,
        "starts_attempted": result.starts_attempted,
        "unconverged": result.unconverged,
    }
    _emit(args, payload,
          ("magnodal/critical-scan",
           ["classification", "morse_index", "nullity", "origin", "coords"],
           ([r.classification, r.morse_index, r.nullity, r.origin,
             ";".join("%.6f" % c for c in r.coords)]
            for r in result.reports)))


def cmd_verify_index(args) -> None:
    h = _load_operator(args)
    table = verify_index_equals_surplus(h, tol_degeneracy=args.tol_degeneracy,
                                        tol_vanish=args.tol_vanish)
    payload = {
        "rows": [{
            "class": list(r.class_parities), "k": r.k, "status": r.status,
            "surplus": r.surplus, "index": r.index, "nullity": r.nullity,
            "reason": r.reason,
        } for r in table.rows],
        "ok": table.num_ok,
        "skipped": table.num_skipped,
    }
    print(f"verified {table.num_ok} rows, skipped {table.num_skipped}",
          file=sys.stderr)
    _emit(args, payload,
          ("magnodal/verify-index",
           ["class", "k", "status", "surplus", "index", "reason"],
           ([";".join(map(str, r.class_parities)) or "-", r.k, r.status,
             r.surplus, r.index, r.reason] for r in table.rows)))


def cmd_linkage_analyze(args) -> None:
    if args.emit_fixture is not None:
        if any(x is not None for x in (args.op, args.k, args.graph)):
            raise _UsageError("--emit-fixture excludes --op, --k and --graph")
        fx = build_exceptional_fixture(args.emit_fixture, seed=args.seed)
        h, k = fx.point.operator(), fx.k
        if args.out:
            write_json(_stem(args.out) + ".fixture.json", operator_to_json(h))
    else:
        if not args.op:
            raise _UsageError("linkage-analyze needs --op or --emit-fixture")
        if args.k is None:
            raise _UsageError("linkage-analyze needs --k")
        h, k = _load_operator(args), args.k
    analysis = analyze_exceptional(h, k,
                                   tol_degeneracy=args.tol_degeneracy,
                                   tol_vanish=args.tol_vanish,
                                   seed=args.seed)
    payload = {
        "k": k,
        "vanishing_vertex": analysis.vanishing_vertex,
        "bar_lengths": [float(x) for x in analysis.lengths.lengths],
        "bar_angles": [float(x) for x in analysis.link_angles],
        "closure_residual": analysis.closure_residual,
        "manifold_dimension": analysis.manifold_dimension,
        "connectivity": analysis.connectivity.kind,
        "shift_coefficient": analysis.shift_coefficient,
        "reduced_eigenvalue_index": analysis.k_reduced,
        "reduced_surplus": analysis.surplus_reduced,
        "predicted_index": analysis.morse_index_predicted,
        "hessian_index": analysis.hessian_index,
        "hessian_nullity": analysis.hessian_nullity,
        "manifold_samples_checked": analysis.manifold_samples_checked,
    }
    print(f"dimension {analysis.manifold_dimension} "
          f"({analysis.connectivity.kind}), index "
          f"{analysis.hessian_index} = predicted "
          f"{analysis.morse_index_predicted}", file=sys.stderr)
    _emit(args, payload, None)


def cmd_transversality_check(args) -> None:
    h = _load_operator(args)
    report = is_transverse_at(h, args.k, tol_degeneracy=args.tol_degeneracy)
    support, comps = support_components(h.graph, report.basis)
    splitting = len(comps) > 1
    pair = find_edge_separated_pair(report.basis, comps)
    payload = {
        "k": args.k,
        "multiplicity": report.multiplicity,
        "eigenvalue": report.eigenvalue,
        "codimension": report.codimension,
        "transverse": report.transverse,
        "kernel_dimension": report.kernel_dimension,
        "compression_rank": report.compression_rank,
        "smallest_singular_value": (
            None if math.isinf(report.smallest_singular_value)
            else report.smallest_singular_value),
        "support": list(support),
        "splits_graph": splitting,
        "kernel_witness": _matrix_payload(report.kernel_witness),
        "edge_separated_pair": (
            None if pair is None else
            {"u": _vector_payload(pair[0]), "v": _vector_payload(pair[1])}),
    }
    print(f"multiplicity {report.multiplicity}, transverse "
          f"{report.transverse}, splits {splitting}", file=sys.stderr)
    _emit(args, payload, None)


def _matrix_payload(x):
    if x is None:
        return None
    return {"re": [[float(v) for v in row] for row in x.real],
            "im": [[float(v) for v in row] for row in x.imag]}


def _vector_payload(v):
    return {"re": [float(x) for x in np.real(v)],
            "im": [float(x) for x in np.imag(v)]}


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _ks_to_normal(points: np.ndarray, weights: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a discrete law to the Gaussian."""
    order = np.argsort(points)
    xs = points[order]
    ws = weights[order]
    cum = np.cumsum(ws)
    worst = 0.0
    prev = 0.0
    for x, after in zip(xs, cum):
        phi = _phi(float(x))
        worst = max(worst, abs(prev - phi), abs(float(after) - phi))
        prev = float(after)
    return worst


def cmd_clt_experiment(args) -> None:
    if args.beta_min < 1 or args.beta_max < args.beta_min:
        raise _UsageError("need 1 <= beta-min <= beta-max")
    if args.family == "complete-minus-matching":
        for beta in range(args.beta_min, args.beta_max + 1):
            try:
                matching_family_for_betti(beta)
            except ValueError as exc:
                raise _UsageError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    trend = []
    histograms = {}
    for beta in range(args.beta_min, args.beta_max + 1):
        atom_weights: dict[float, float] = {}
        abs_means = []
        abs_var_devs = []
        retries = 0
        produced = 0
        while produced < args.samples:
            if args.family == "complete-minus-matching":
                n, t = matching_family_for_betti(beta)
                g = complete_minus_matching(n, t, rng=rng)
            else:
                g = random_regular_like_graph(beta, rng)
            h = surplus_probe_operator(g, rng)
            try:
                dist = average_surplus_distribution(
                    h, tol_degeneracy=args.tol_degeneracy,
                    tol_vanish=args.tol_vanish)
                rho = normalized_distribution(dist)
            except AdmissibilityError:
                retries += 1
                if retries > args.retry_cap * args.samples:
                    raise
                continue
            produced += 1
            abs_means.append(abs(rho.first_moment))
            abs_var_devs.append(abs(rho.second_moment - 1.0))
            for x, w in zip(rho.points, rho.weights):
                key = float(np.round(x, 9))
                atom_weights[key] = atom_weights.get(key, 0.0) \
                    + float(w) / args.samples
        points = np.array(sorted(atom_weights))
        weights = np.array([atom_weights[x] for x in points])
        ks = _ks_to_normal(points, weights)
        trend.append({
            "beta": beta,
            "samples": produced,
            "resampled": retries,
            "ks_to_normal": ks,
            "mean_abs_mean": float(np.mean(abs_means)),
            "mean_abs_variance_dev": float(np.mean(abs_var_devs)),
        })
        histograms[str(beta)] = {
            "points": [float(x) for x in points],
            "weights": [float(w) for w in weights],
        }
        print(f"beta {beta}: KS {ks:.6f} over {produced} samples",
              file=sys.stderr)
    payload = {
        "family": args.family,
        "note": ("conjecture probe: monotone-trend evidence on named "
                 "families, not a theorem test and not uniform over all "
                 "graphs"),
        "trend": trend,
        "histograms": histograms,
    }
    _emit(args, payload,
          ("magnodal/clt-trend",
           ["beta", "samples", "resampled", "ks_to_normal", "mean_abs_mean",
            "mean_abs_variance_dev"],
           ([row["beta"], row["samples"], row["resampled"],
             row["ks_to_normal"], row["mean_abs_mean"],
             row["mean_abs_variance_dev"]] for row in trend)))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        parser = _parser()
        sub = parser.commands.get(argv[0]) if argv else None
        args = (parser.parse_args(argv) if sub is None else
                sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
        args._t0 = time.monotonic()
        args.func(args)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, GraphMismatchError, OSError,
            UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except AdmissibilityError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return 2
    except (InternalCrossCheckError, EigenSolverError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
