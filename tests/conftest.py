"""Shared pytest plumbing.

The acceptance suite records one verdict per criterion; the terminal
summary hook prints them as stable one-per-line output at the end of
the run, whether or not output capture is active.

``classes_by_enumeration`` is the switching-class oracle: it visits
every one of the ``2^|E|`` signings and groups them by cycle parities,
so it stays independent of the forest-gauge rows that
``gauge_classes_of_signings`` builds from the class ids.
``enumerate_signings`` streams those signings as matrices, and
``eigenvalue_at``, ``gradient_fd`` and ``hessian_eigenvalue_fd`` are
the finite-difference oracles for the analytic Morse derivatives.
``cycle_basis_by_lca`` is the fundamental-cycle oracle: it walks each
cycle through the lowest common ancestor, independent of the root
paths in ``graphs``.
``scalar_polish`` is the Newton oracle: one start at a time, one
``eigh`` per trial point, against which the lockstep ``morse._polish``
must agree bit for bit.  ``scalar_report`` is the report oracle: one
point at a time, one Hessian and one ``morse_index`` per point, against
which the stacked ``morse._reports_at`` must agree bit for bit.
"""

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from hypothesis import strategies as st

from magnodal.errors import CapExceededError, NonSimpleEigenvalueError
from magnodal.graphs import Chain, CycleBasis, Graph, cycle_basis
from magnodal.morse import (CRITICAL_TOL, TWO_PI, CriticalPointReport,
                            GaugeChart, TorusPoint, _classify, _hessian_at,
                            gauge_chart, morse_index)
from magnodal.nodal import _simple_eigen
from magnodal.operators import SupportedMatrix, signs_for_index
from magnodal.spectral import eigh

ACCEPTANCE_RESULTS: list[tuple[int, str, str, str]] = []


def record_criterion(number: int, name: str, verdict: str, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, name, verdict, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number, name, verdict, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {number:02d} {name}: {verdict}"
        if detail:
            line += f"  ({detail})"
        tr.write_line(line)


def small_graphs(max_n: int):
    """Hypothesis strategy: any graph on at most ``max_n`` vertices."""
    def on(n):
        pairs = [(r, s) for r in range(n) for s in range(r + 1, n)]
        return st.lists(st.booleans(), min_size=len(pairs),
                        max_size=len(pairs)).map(
            lambda keep: Graph(n, tuple(e for e, k in zip(pairs, keep) if k)))
    return st.integers(0, max_n).flatmap(on)


def cycle_masks(g: Graph) -> list[int]:
    """Edge bitmask of each fundamental cycle of ``cycle_basis(g)``."""
    return [sum(1 << int(i) for i in np.flatnonzero(chain.coeffs))
            for chain in cycle_basis(g).cycles]


def class_id(masks: list[int], index: int) -> int:
    """Class of enumeration index ``index`` (bit i flips edge i).

    Bit j is the parity of the flipped edges on cycle j.
    """
    return sum(((index & mask).bit_count() & 1) << j
               for j, mask in enumerate(masks))


def signs_of(index: int, num_edges: int) -> tuple[int, ...]:
    """Sign tuple of enumeration index ``index``."""
    return tuple(-1 if (index >> i) & 1 else 1 for i in range(num_edges))


def index_of(signs) -> int:
    """Enumeration index of a sign row: the inverse of ``signs_of``."""
    return sum(1 << i for i, s in enumerate(signs) if s < 0)


@dataclass(frozen=True)
class EnumeratedClasses:
    class_of: list[int]
    class_ids: tuple[int, ...]
    class_sizes: tuple[int, ...]
    representatives: tuple[tuple[int, ...], ...]


def forest_mask(g: Graph) -> int:
    """Edge bitmask of the spanning forest of ``cycle_basis(g)``."""
    return sum(1 << g.edge_index[e] for e in cycle_basis(g).forest_edges)


def classes_by_enumeration(g: Graph) -> EnumeratedClasses:
    """Switching classes of the signings of ``g`` by visiting all of them.

    Returns the class of every enumeration index, the sorted class ids,
    their sizes, and per class the sign tuple of its one member whose
    forest edges are all +1.
    """
    masks = cycle_masks(g)
    forest = forest_mask(g)
    class_of = []
    reps: dict[int, tuple[int, ...]] = {}
    sizes: dict[int, int] = {}
    for index in range(1 << g.num_edges):
        cid = class_id(masks, index)
        class_of.append(cid)
        sizes[cid] = sizes.get(cid, 0) + 1
        if not index & forest:
            assert cid not in reps, "two forest-gauge members in one class"
            reps[cid] = signs_of(index, g.num_edges)
    ids = tuple(sorted(sizes))
    return EnumeratedClasses(class_of, ids, tuple(sizes[c] for c in ids),
                             tuple(reps[c] for c in ids))


def enumerate_signings(h: SupportedMatrix, cap: int = 20
                       ) -> Iterator[SupportedMatrix]:
    """Stream all sign patterns applied to a real matrix.

    Yields ``2**|E|`` matrices in binary-counter order over the
    canonical edge order (edge 0 is the least significant bit).  Refuses
    graphs with more than ``cap`` edges instead of attempting the
    enumeration.
    """
    if not h.is_real:
        raise ValueError("signing enumeration is defined for real matrices")
    m = h.graph.num_edges
    if m > cap:
        raise CapExceededError(
            f"signing enumeration over {m} edges exceeds the cap of {cap}; "
            f"raise the cap explicitly to proceed")
    for index in range(1 << m):
        yield SupportedMatrix(h.graph, h.diag,
                              h.offdiag * signs_for_index(index, m))


def eigenvalue_at(p: TorusPoint, k: int) -> float:
    return eigh(p.operator()).value(k)


def gradient_fd(p: TorusPoint, k: int, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient over every edge angle, for checking."""
    out = np.empty(p.graph.num_edges)
    for i in range(p.graph.num_edges):
        delta = np.zeros(p.graph.num_edges)
        delta[i] = step
        up = TorusPoint(p.base, p.angles + delta)
        dn = TorusPoint(p.base, p.angles - delta)
        out[i] = (eigenvalue_at(up, k) - eigenvalue_at(dn, k)) / (2.0 * step)
    return out


def hessian_eigenvalue_fd(p: TorusPoint, k: int, *,
                          chart: GaugeChart | None = None,
                          step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian over the gauge-slice coordinates."""
    if chart is None:
        chart = gauge_chart(p.graph)
    dim = chart.dim
    idx = chart.nonforest_indices

    def value(offsets: np.ndarray) -> float:
        delta = np.zeros(p.graph.num_edges)
        delta[idx] = offsets
        return eigenvalue_at(TorusPoint(p.base, p.angles + delta), k)

    H = np.empty((dim, dim))
    f0 = value(np.zeros(dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        H[i, i] = (value(ei) - 2.0 * f0 + value(-ei)) / step ** 2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = step
            H[i, j] = H[j, i] = (
                value(ei + ej) - value(ei - ej) - value(-ei + ej)
                + value(-ei - ej)) / (4.0 * step ** 2)
    return H


def cycle_basis_by_lca(g: Graph, forest, parent) -> CycleBasis:
    """Fundamental cycles over a forest, each walked edge by edge.

    The cycle of a non-forest edge ``(r, s)`` steps from ``r`` to ``s``,
    up the tree from ``s`` to the lowest common ancestor of ``r`` and
    ``s``, and down from there to ``r``.
    """
    forest_set = set(forest)
    nonforest = tuple(e for e in g.edges if e not in forest_set)

    def path_up(v: int) -> list[int]:
        path = [v]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path

    cycles = []
    for (r, s) in nonforest:
        up_r = path_up(r)
        up_s = path_up(s)
        in_r = {v: i for i, v in enumerate(up_r)}
        j = 0
        while up_s[j] not in in_r:
            j += 1
        lca = up_s[j]
        coeffs = np.zeros(g.num_edges, dtype=np.int64)

        def add_step(a: int, b: int) -> None:
            i = g.index_of(a, b)
            coeffs[i] += 1 if a < b else -1

        add_step(r, s)
        v = s
        while v != lca:
            add_step(v, parent[v])
            v = parent[v]
        down = []
        v = r
        while v != lca:
            down.append(v)
            v = parent[v]
        for v in reversed(down):
            add_step(parent[v], v)
        cycles.append(Chain(g, coeffs))
    return CycleBasis(g, tuple(forest), nonforest, tuple(cycles))


def eigenvalue_gap(es, k: int) -> float:
    """Distance from the k-th eigenvalue to the nearest other one."""
    gaps = [abs(es.values[j] - es.values[k - 1])
            for j in range(es.n) if j != k - 1]
    return float(min(gaps)) if gaps else float("inf")


def scalar_polish(base, chart, k: int, start, gtol: float,
                  tol_degeneracy: float):
    """One start of ``morse._polish``, run on its own.

    Damped Newton steps on the gauge-slice gradient with the analytic
    Hessian as Jacobian and backtracking on the squared norm; each trial
    point is one ``eigh`` of its own operator.  Returns ``(status, x,
    aux, solve)`` as the lockstep does for this start.
    """
    idx = chart.nonforest_indices

    def solve(coords):
        h = TorusPoint.from_coords(base, coords, chart).operator()
        es = eigh(h)
        try:
            return _simple_eigen(h, k, es, tol_degeneracy)
        except NonSimpleEigenvalueError:
            return eigenvalue_gap(es, k)

    x = np.mod(np.array(start, dtype=np.float64), TWO_PI)
    s = solve(x)
    if isinstance(s, float):
        return "degenerate", x, s, None
    for _ in range(60):
        g = s.gradient[idx]
        J = _hessian_at(s, chart, tol_degeneracy)
        delta, *_ = np.linalg.lstsq(J, -g, rcond=None)
        if float(np.max(np.abs(g))) <= gtol:
            xn = np.mod(x + delta, TWO_PI)
            sn = solve(xn)
            if not isinstance(sn, float) and float(np.linalg.norm(
                    sn.gradient[idx])) < float(np.linalg.norm(g)):
                x, s = xn, sn
            return "ok", x, float(np.linalg.norm(delta)), s
        f0 = float(g @ g)
        t = 1.0
        improved = False
        while t >= 2.0 ** -12:
            xn = np.mod(x + t * delta, TWO_PI)
            sn = solve(xn)
            if isinstance(sn, float):
                return "degenerate", xn, sn, None
            gn = sn.gradient[idx]
            if float(gn @ gn) < f0 * (1.0 - 0.25 * t) + 1e-300:
                x, s = xn, sn
                improved = True
                break
            t *= 0.5
        if not improved:
            return "stuck", x, 0.0, None
    return "maxiter", x, 0.0, None


def scalar_report(coords, h, es, k: int, chart, origin: str, *,
                  tol_degeneracy: float, tol_vanish: float, rank_tol: float):
    """The report ``morse._reports_at`` gives at chart ``coords``, from
    the operator ``h`` there and its eigensystem ``es``, built alone."""
    coords = tuple(float(c) for c in coords)
    try:
        s = _simple_eigen(h, k, es, tol_degeneracy)
    except NonSimpleEigenvalueError as exc:
        return CriticalPointReport(coords, k, "incorrigible",
                                   exc.multiplicity, (), None, None, None,
                                   None, origin)
    report = _classify(s, CRITICAL_TOL, tol_vanish)
    gnorm = float(np.linalg.norm(s.gradient[chart.nonforest_indices]))
    hess = _hessian_at(s, chart, tol_degeneracy)
    spectrum = tuple(float(x) for x in np.linalg.eigvalsh(hess)) \
        if hess.size else ()
    index, nullity = morse_index(hess, rank_tol)
    return CriticalPointReport(coords, k, report.kind, 1, report.vanishing,
                               gnorm, spectrum, index, nullity, origin)
