"""Acceptance gate: one timed test per contract criterion.

Each test exercises the public API at the fixed tolerances, records a
one-line verdict for the terminal summary, then asserts.  The last
criterion is a statistical probe; its verdict is reported but never
fails the suite.
"""

import itertools
import json
import time
from math import comb

import numpy as np
import pytest

from conftest import (class_id, cycle_masks, degenerate_ring_fixture,
                      enumerate_signings, forest_mask, gradient_fd,
                      hessian_eigenvalue_fd, index_of, projects_surjectively,
                      record_criterion, torus_point, two_triangle_join)
from magnodal import (
    AdmissibilityError,
    InadmissibleSigningError,
    LinkageLengths,
    OneForm,
    SupportedMatrix,
    TorusPoint,
    abs_part,
    analyze_exceptional,
    average_surplus_distribution,
    betti_number,
    build_exceptional_fixture,
    critical_scan,
    eigenspace_basis,
    eigenvalue_gradient,
    eigh,
    find_edge_separated_pair,
    gauge_classes_of_signings,
    hessian_eigenvalue,
    is_generic,
    is_transverse_at,
    magnetic_action,
    multiplicity,
    nodal_count,
    solvability_and_connectivity,
    support_components,
    verify_index_equals_surplus,
)
from magnodal.cli import main as cli_main
from magnodal.families import (
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    random_connected_graph,
    random_join_fixture,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.morse import gradient_coords


def finish(number, name, t0, failures, detail=""):
    elapsed = time.monotonic() - t0
    verdict = "pass" if not failures else "FAIL"
    note = f"{elapsed:.1f}s" + (f", {detail}" if detail else "")
    record_criterion(number, name, verdict, note)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def spectral_scale(es) -> float:
    """Scale of the relative gap cuts below, ``max(1, max |eigenvalue|)``."""
    return max(1.0, float(np.max(np.abs(es.values))))


def small_fixtures():
    tri = SupportedMatrix(cycle_graph(3), np.array([0.1, 0.2, 0.3]),
                          -np.ones(3, dtype=np.complex128))
    half = SupportedMatrix(cycle_graph(3), np.array([0.0, 1.5, 5.0]),
                           np.array([-1.0, 0.5, -1.0], dtype=np.complex128))
    return [
        ("k3-strong", strong_diagonal_fixture(complete_graph(3))),
        ("k4-strong", strong_diagonal_fixture(complete_graph(4))),
        ("c3-moderate", tri),
        ("c3-planted", half),
        ("join", two_triangle_join()[0]),
        ("ring4", degenerate_ring_fixture(4)[0]),
    ]


def test_criterion_01_counting_identities():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(101)
    graphs = [cycle_graph(3), complete_graph(4)]
    while len(graphs) < 22:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 12) + 1))
        graphs.append(random_connected_graph(n, m, rng))
    for g in graphs:
        h = random_operator(g, rng)
        m = g.num_edges
        count = sum(1 for _ in enumerate_signings(h))
        if count != 2 ** m:
            failures.append(f"signing count {count} != 2^{m}")
        classes = gauge_classes_of_signings(h)
        if classes.num_classes != 2 ** betti_number(g):
            failures.append(f"class count {classes.num_classes} on n={g.n}")
        masks = cycle_masks(g)
        ids = [class_id(masks, index) for index in range(1 << m)]
        sizes = np.bincount(ids, minlength=classes.num_classes)
        if not np.all(sizes == 2 ** (g.n - 1)) \
                or classes.class_size != 2 ** (g.n - 1):
            failures.append(f"uneven class sizes on n={g.n} m={m}")
        flips = [index_of(row)
                 for row in classes.rows(np.arange(classes.num_classes))]
        if [ids[f] for f in flips] != list(range(classes.num_classes)) \
                or any(f & forest_mask(g) for f in flips):
            failures.append(f"representatives not forest-gauge members on "
                            f"n={g.n} m={m}")
    finish(1, "counting identities", t0, failures, f"{len(graphs)} graphs")


def test_criterion_02_binomial_average():
    t0 = time.monotonic()
    failures = []
    expected = {3: (12, 12), 4: (32, 96, 96, 32)}
    for n, counts in expected.items():
        h = strong_diagonal_fixture(complete_graph(n), eta=100.0)
        dist = average_surplus_distribution(h)
        beta = dist.betti
        if tuple(int(c) for c in dist.counts) != counts:
            failures.append(f"K{n} counts {list(dist.counts)}")
        for s, c in enumerate(dist.counts):
            if int(c) * 2 ** beta != comb(beta, s) * dist.n_samples:
                failures.append(f"K{n} s={s} not exactly binomial")
        if abs(dist.mean - beta / 2) > 1e-12:
            failures.append(f"K{n} mean {dist.mean}")
        if abs(dist.variance - beta / 4) > 1e-12:
            failures.append(f"K{n} variance {dist.variance}")
    finish(2, "binomial average", t0, failures)


def test_criterion_03_nodal_bounds():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(303)
    done = attempts = 0
    while done < 500 and attempts < 5000:
        attempts += 1
        n = int(rng.integers(3, 11))
        m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 18) + 1))
        g = random_connected_graph(n, m, rng)
        h = random_operator(g, rng)
        signs = rng.choice([-1.0, 1.0], size=m)
        h = SupportedMatrix(g, h.diag.real, h.offdiag * signs)
        k = int(rng.integers(1, n + 1))
        try:
            phi = nodal_count(h, k)
        except AdmissibilityError:
            continue
        beta = betti_number(g)
        if not k - 1 <= phi <= k - 1 + beta:
            failures.append(f"bound broken n={n} m={m} k={k} phi={phi}")
        done += 1
    if done < 500:
        failures.append(f"only {done} admissible instances in {attempts}")
    finish(3, "nodal bounds", t0, failures, f"{done} instances")


def test_criterion_04_index_equals_surplus():
    t0 = time.monotonic()
    failures = []
    sizes = {3: 6, 4: 32}
    for n, total in sizes.items():
        h = strong_diagonal_fixture(complete_graph(n), eta=100.0)
        table = verify_index_equals_surplus(h)
        if table.num_ok != total or table.num_skipped != 0:
            failures.append(
                f"K{n} table ok={table.num_ok} skipped={table.num_skipped}")
        base = abs_part(h)
        for parities in itertools.product((0.0, np.pi),
                                          repeat=betti_number(h.graph)):
            p = torus_point(base, np.array(parities))
            for k in range(1, n + 1):
                a = hessian_eigenvalue(p, k)
                f = hessian_eigenvalue_fd(p, k)
                rel = np.linalg.norm(a - f) / max(1.0, np.linalg.norm(a))
                if rel > 1e-4:
                    failures.append(f"K{n} hessian fd rel {rel:.2e} at k={k}")
    finish(4, "index equals surplus", t0, failures)


def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(505)
    done = attempts = 0
    while done < 100 and attempts < 1000:
        attempts += 1
        n = int(rng.integers(3, 8))
        m = int(rng.integers(n, min(n * (n - 1) // 2, 12) + 1))
        g = random_connected_graph(n, m, rng)
        base = abs_part(random_operator(g, rng))
        p = TorusPoint(base, rng.uniform(0, 2 * np.pi, size=m))
        es = eigh(p.operator())
        gaps = np.diff(es.values)
        simple = [k for k in range(1, n + 1)
                  if (k == 1 or gaps[k - 2] > 1e-4 * spectral_scale(es))
                  and (k == n or gaps[k - 1] > 1e-4 * spectral_scale(es))]
        if not simple:
            continue
        k = int(rng.choice(simple))
        exact = eigenvalue_gradient(p, k).values
        norm = float(np.linalg.norm(exact))
        if norm < 1e-3:
            continue
        rel = np.linalg.norm(exact - gradient_fd(p, k)) / norm
        if rel > 1e-6:
            failures.append(f"gradient fd rel {rel:.2e} n={n} m={m} k={k}")
        done += 1
    if done < 100:
        failures.append(f"only {done} usable points in {attempts} attempts")
    finish(5, "gradient correctness", t0, failures, f"{done} points")


def test_criterion_06_symmetry_criticality():
    t0 = time.monotonic()
    failures = []
    checked = 0
    for name, h in small_fixtures():
        scale = float(np.linalg.norm(h.to_dense()))
        for signing in enumerate_signings(h):
            p = TorusPoint.from_operator(signing)
            es = eigh(p.operator())
            for k in range(1, h.graph.n + 1):
                if multiplicity(es, k, 1e-8)[0] != 1:
                    continue
                gnorm = float(np.linalg.norm(
                    eigenvalue_gradient(p, k).values))
                if gnorm > 1e-10 * scale:
                    failures.append(f"{name} k={k}: |grad|={gnorm:.2e}")
                checked += 1
    finish(6, "symmetry criticality", t0, failures, f"{checked} gradients")


def test_criterion_07_perfect_morse_count():
    t0 = time.monotonic()
    failures = []
    h = strong_diagonal_fixture(complete_graph(3), eta=100.0)
    assert betti_number(h.graph) == 1
    base = abs_part(h)
    for k in (1, 2, 3):
        scan = critical_scan(h, k, starts=24, seed=0)
        sym = [r for r in scan.reports if r.classification == "symmetry"]
        indices = sorted(r.morse_index for r in sym)
        # beta = 1: one index-0 class and one index-1 class, nothing else
        if indices != [0, 1] or len(scan.reports) != 2:
            failures.append(f"k={k}: scan found {len(scan.reports)} reports "
                            f"indices {indices}")
        if scan.incorrigible_candidates:
            failures.append(f"k={k}: unexpected incorrigible candidates")
    ts = np.arange(0.0, 2 * np.pi, 1e-3)
    grads = np.empty((3, ts.size))
    for i, t in enumerate(ts):
        p = torus_point(base, np.array([t]))
        for j, k in enumerate((1, 2, 3)):
            grads[j, i] = gradient_coords(p, k)[0]

    def dist_to_roots(t):
        return min(abs((t - r + np.pi) % (2 * np.pi) - np.pi)
                   for r in (0.0, np.pi))

    for j, k in enumerate((1, 2, 3)):
        gk = grads[j]
        scale_g = float(np.max(np.abs(gk)))
        nz = np.flatnonzero(np.abs(gk) > 1e-9 * scale_g)
        signs = np.sign(gk[nz])
        flips = 0
        for a, b in zip(range(nz.size), np.roll(np.arange(nz.size), -1)):
            if signs[a] * signs[b] < 0:
                flips += 1
                t1, t2 = ts[nz[a]], ts[nz[b]]
                if t2 < t1:
                    t2 += 2 * np.pi
                if dist_to_roots((t1 + t2) / 2) > 0.02:
                    failures.append(f"k={k}: crossing near {t1:.3f} away "
                                    f"from symmetry points")
        if flips != 2:
            failures.append(f"k={k}: {flips} grid sign changes, expected 2")
        near_zero = ts[np.abs(gk) < 1e-2 * scale_g]
        if near_zero.size and max(dist_to_roots(t) for t in near_zero) > 0.05:
            failures.append(f"k={k}: gradient nearly vanishes away from "
                            f"symmetry points")
    finish(7, "perfect Morse count", t0, failures,
           f"grid {ts.size} points per k")


def test_criterion_08_exceptional_analysis():
    t0 = time.monotonic()
    failures = []
    for degree in (3, 4, 5):
        fx = build_exceptional_fixture(degree, seed=0)
        an = analyze_exceptional(fx.point.operator(), fx.k)
        if an.hessian_nullity != degree - 3:
            failures.append(f"d={degree}: nullity {an.hessian_nullity}")
        if an.manifold_dimension != degree - 3:
            failures.append(f"d={degree}: dim {an.manifold_dimension}")
        shift = 2 if an.shift_coefficient < 0 else 0
        if an.morse_index_predicted != an.surplus_reduced + shift:
            failures.append(f"d={degree}: prediction formula broken")
        if an.hessian_index != an.morse_index_predicted:
            failures.append(
                f"d={degree}: hessian index {an.hessian_index} != "
                f"predicted {an.morse_index_predicted}")
        if an.closure_residual > 1e-8:
            failures.append(f"d={degree}: closure {an.closure_residual:.2e}")
    finish(8, "exceptional analysis", t0, failures)


def test_criterion_09_linkage_combinatorics():
    t0 = time.monotonic()
    failures = []
    cases = [
        ((5.0, 1.0, 1.0), "empty", None),
        ((1.0, 1.0, 1.0), "two-components", 0),
        ((1.0, 1.0, 1.0, 1.2, 0.9), "connected", 2),
    ]
    for lengths, kind, dim in cases:
        topo = solvability_and_connectivity(LinkageLengths(np.array(lengths)))
        if topo.kind != kind or topo.dimension != dim:
            failures.append(f"{lengths}: got {topo.kind} dim {topo.dimension}")

    def brute(vals, tol=1e-9):
        for signs in itertools.product((-1.0, 1.0), repeat=len(vals)):
            if abs(float(np.dot(signs, vals))) <= tol:
                return False
        return True

    rng = np.random.default_rng(909)
    for _ in range(100):
        m = int(rng.integers(3, 9))
        vals = rng.uniform(0.2, 3.0, size=m)
        if rng.uniform() < 0.4:
            signs = rng.choice([-1.0, 1.0], size=m - 1)
            planted = abs(float(np.dot(signs, vals[:-1])))
            if planted > 1e-6:
                vals[-1] = planted
        verdict = is_generic(LinkageLengths(vals))
        if verdict != brute(vals):
            failures.append(f"genericity mismatch on {np.round(vals, 3)}")
    finish(9, "linkage combinatorics", t0, failures, "100 random length sets")


def test_criterion_10_transversality_agreement():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(1010)

    def check_agreement(rep, label):
        kernel_says = rep.kernel_dimension == 0
        rank_says = rep.compression_rank == rep.multiplicity ** 2
        if not (rep.transverse == kernel_says == rank_says):
            failures.append(f"{label}: criteria disagree")

    instances = 0
    while instances < 140:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 12) + 1))
        g = random_connected_graph(n, m, rng)
        h = magnetic_action(OneForm(g, rng.uniform(0, 2 * np.pi, m)),
                            random_operator(g, rng))
        es = eigh(h)
        gaps = np.diff(es.values)
        simple = [k for k in range(1, n + 1)
                  if (k == 1 or gaps[k - 2] > 1e-6 * spectral_scale(es))
                  and (k == n or gaps[k - 1] > 1e-6 * spectral_scale(es))]
        if not simple:
            continue
        k = int(rng.choice(simple))
        rep = is_transverse_at(h, k)
        if rep.multiplicity != 1 or not rep.transverse:
            failures.append(f"simple cluster not transverse n={n} k={k}")
        check_agreement(rep, f"m=1 n={n} k={k}")
        instances += 1
    double_fixtures = [random_join_fixture(rng) for _ in range(40)]
    double_fixtures += [degenerate_ring_fixture(n)
                        for n in (4, 6, 8, 10) for _ in range(5)]
    for h, k in double_fixtures:
        rep = is_transverse_at(h, k)
        if rep.multiplicity != 2:
            failures.append("degenerate fixture lost its multiplicity")
        check_agreement(rep, "m=2 fixture")
        instances += 1
    if instances != 200:
        failures.append(f"{instances} instances, expected 200")

    soundness = [two_triangle_join()]
    soundness += [random_join_fixture(rng) for _ in range(5)]
    soundness += [degenerate_ring_fixture(n) for n in (4, 6)]
    witnessed = 0
    for h, k in soundness:
        g = h.graph
        rep = is_transverse_at(h, k)
        basis = eigenspace_basis(h, k)
        surjective = any(projects_surjectively(basis, e) for e in g.edges)
        _, comps = support_components(g, basis)
        if (surjective or len(comps) < 2) and not rep.transverse:
            failures.append("sufficient condition met but not transverse")
        pair = find_edge_separated_pair(basis, comps)
        if pair is not None:
            u, v = pair
            if rep.transverse:
                failures.append("edge-separated pair on a transverse cluster")
            x = np.outer(u, v.conj()) + np.outer(v, u.conj())
            dense = h.to_dense()
            resid = np.linalg.norm(
                (dense - rep.eigenvalue * np.eye(g.n)) @ x)
            bound = 1e-9 * np.linalg.norm(dense) * np.linalg.norm(x)
            if resid > bound:
                failures.append(f"witness residual {resid:.2e} > {bound:.2e}")
            witnessed += 1
    if witnessed < 6:
        failures.append(f"only {witnessed} kernel witnesses exercised")

    points = doubles = 0
    for n, t in ((4, 1), (5, 2), (6, 3), (6, 1)):
        g = complete_minus_matching(n, t)
        h = SupportedMatrix(g, np.arange(n, dtype=float),
                            -np.ones(g.num_edges, dtype=np.complex128))
        for _ in range(125):
            hp = magnetic_action(
                OneForm(g, rng.uniform(0, 2 * np.pi, g.num_edges)), h)
            es = eigh(hp)
            k = 1
            while k <= n:
                m, k0 = multiplicity(es, k, 1e-8)
                if m == 2:
                    doubles += 1
                    _, comps = support_components(
                        g, eigenspace_basis(hp, k0))
                    if len(comps) > 1:
                        failures.append(
                            f"splitting double eigenspace on n={n} t={t}")
                k = k0 + m
            points += 1
    if points != 500:
        failures.append(f"sweep covered {points} points, expected 500")
    finish(10, "transversality agreement", t0, failures,
           f"200 instances, 500-point sweep, {doubles} doubles seen")


def test_criterion_11_average_symmetry():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(1111)
    graphs_done = graph_attempts = 0
    while graphs_done < 10 and graph_attempts < 60:
        graph_attempts += 1
        n = int(rng.integers(4, 8))
        m = int(rng.integers(n - 1, min(14, n * (n - 1) // 2) + 1))
        g = random_connected_graph(n, m, rng)
        level = float(rng.uniform(-1.0, 1.0))
        dist = None
        for _ in range(20):
            off = -rng.uniform(0.5, 1.5, size=m).astype(np.complex128)
            h = SupportedMatrix(g, np.full(n, level), off)
            try:
                dist = average_surplus_distribution(h)
                break
            except InadmissibleSigningError:
                continue
        if dist is None:
            # e.g. twin leaves pin an eigenvector at the diagonal level
            # in every signing; such a graph has no admissible operator
            continue
        if not np.array_equal(dist.counts, dist.counts[::-1]):
            failures.append(
                f"asymmetric counts {list(dist.counts)} on n={n} m={m}")
        graphs_done += 1
    if graphs_done < 10:
        failures.append(f"only {graphs_done} graphs in {graph_attempts}")
    finish(11, "average symmetry", t0, failures, f"{graphs_done} graphs")


def test_criterion_12_conjecture_probe(capsys):
    t0 = time.monotonic()
    code = cli_main(["clt-experiment", "--beta-min", "3", "--beta-max", "8",
                     "--samples", "20", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    ks = [row["ks_to_normal"] for row in payload["trend"]]
    assert len(ks) == 6
    monotone = all(ks[i + 1] <= ks[i] + 1e-12 for i in range(len(ks) - 1))
    trail = " ".join(f"{v:.4f}" for v in ks)
    elapsed = time.monotonic() - t0
    verdict = "pass (informative)" if monotone \
        else "FAIL (informative, not gating)"
    record_criterion(12, "conjecture probe", verdict,
                     f"{elapsed:.1f}s, KS trend {trail}")
