"""Eigenvalue Morse data on the torus of phase perturbations.

A real properly supported matrix spans a torus of operators, one angle
per edge.  Vertex phases act on that torus, and a gauge slice that pins
the angles of the graph's spanning forest to zero gives coordinates on
the quotient: one angle per independent cycle.  Eigenvalues become
functions of those coordinates, and this module computes their
gradients, Hessians, Morse indices, and critical points.  The scan and
the index check visit the ``2^beta`` symmetry points, coordinates in
{0, pi}, through one generator that solves each point once.

Every derivative starts from one solve at the point, ``nodal``'s
``_simple_eigen``: the operator, its eigensystem, the simple k-th
eigenpair and the edge products.  The eigenvalue Hessian is assembled
from first-order eigenvector responses through the spectral
pseudo-inverse; second-order perturbation theory makes it valid at
every simple eigenvalue, so the critical-point search uses it as its
Newton Jacobian.  Restricting the full torus Hessian to the gauge slice
loses nothing because the vertex-phase directions are in its kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AdmissibilityError,
    GraphMismatchError,
    InternalCrossCheckError,
    NonSimpleEigenvalueError,
    NotCriticalError,
    VanishingEigenvectorError,
)
from .graphs import CycleBasis, Graph, OneForm, cycle_basis
from .nodal import _count, _simple_eigen, _SimpleEigen
from .operators import (
    FLUX_TOL,
    SupportedMatrix,
    abs_part,
    is_gauge_equiv_to_symmetry,
    magnetic_action,
    phase_form,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    EigenSystem,
    eigh,
    is_nowhere_vanishing,
)

TWO_PI = 2.0 * np.pi

#: Gradient entries below this times the matrix norm count as critical.
CRITICAL_TOL = 1e-9

#: Relative threshold separating zero Hessian eigenvalues from signed ones.
RANK_TOL = 1e-7

#: Points closer than this in the torus metric are the same point.
DEDUP_TOL = 1e-6

#: Relative asymmetry the assembled Hessian may carry before it raises.
HESSIAN_SYM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GaugeChart:
    """Gauge slice data: cycle basis and non-forest coordinate positions."""

    graph: Graph
    basis: CycleBasis

    @property
    def nonforest_indices(self) -> np.ndarray:
        return np.array([self.graph.edge_index[e]
                         for e in self.basis.nonforest_edges], dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.basis.nonforest_edges)


def gauge_chart(graph: Graph) -> GaugeChart:
    return GaugeChart(graph, cycle_basis(graph))


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """Point of the phase torus over a real base matrix.

    Stores the full vector of edge angles reduced modulo 2 pi.  A point
    built from chart coordinates keeps its forest angles at zero and is
    addressed through its non-forest coordinates.
    """

    base: SupportedMatrix
    angles: np.ndarray

    def __post_init__(self):
        if not self.base.is_real:
            raise ValueError("the torus base matrix must be real")
        a = np.mod(np.asarray(self.angles, dtype=np.float64), TWO_PI)
        if a.shape != (self.base.graph.num_edges,):
            raise ValueError("angle vector length does not match the edge count")
        a.setflags(write=False)
        object.__setattr__(self, "angles", a)

    @property
    def graph(self) -> Graph:
        return self.base.graph

    @classmethod
    def from_coords(cls, base: SupportedMatrix, coords, chart: GaugeChart
                    ) -> "TorusPoint":
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (chart.dim,):
            raise ValueError("coordinate vector length does not match the chart")
        angles = np.zeros(base.graph.num_edges)
        angles[chart.nonforest_indices] = coords
        return cls(base, angles)

    @classmethod
    def from_operator(cls, h: SupportedMatrix, alpha: OneForm | None = None
                      ) -> "TorusPoint":
        """Point representing ``alpha`` acting on a properly supported ``h``.

        ``h`` may be real or complex.  The base becomes the entrywise
        modulus of ``h``, with the phases of ``h`` (its signs, when it is
        real) absorbed into the angles; ``phase_form`` rejects a zero
        edge entry.
        """
        angles = phase_form(h).values.copy()
        if alpha is not None:
            if alpha.graph != h.graph:
                raise GraphMismatchError("one-form on a different graph")
            angles = angles + alpha.values
        return cls(abs_part(h), angles)

    def operator(self) -> SupportedMatrix:
        return magnetic_action(OneForm(self.graph, self.angles), self.base)

    def coords(self, chart: GaugeChart) -> np.ndarray:
        return self.angles[chart.nonforest_indices].copy()

    def with_coords(self, chart: GaugeChart, coords) -> "TorusPoint":
        return TorusPoint.from_coords(self.base, coords, chart)

    def conjugate(self) -> "TorusPoint":
        return TorusPoint(self.base, -self.angles)


def eigenvalue_gradient(p: TorusPoint, k: int, *,
                        es: EigenSystem | None = None,
                        tol_degeneracy: float = DEGENERACY_TOL) -> OneForm:
    """Gradient of the k-th eigenvalue in the edge angles.

    The derivative along edge ``(r, s)`` is
    ``2 Im(conj(h_rs) v_r conj(v_s))`` with ``h`` the operator at the
    point and ``v`` its k-th eigenvector.  Undefined at a degenerate
    eigenvalue; such a point is a candidate non-smooth critical point.
    """
    return OneForm(p.graph, _simple_eigen(p.operator(), k, es,
                                          tol_degeneracy).gradient)


def gradient_coords(p: TorusPoint, k: int, chart: GaugeChart, *,
                    es: EigenSystem | None = None,
                    tol_degeneracy: float = DEGENERACY_TOL) -> np.ndarray:
    """Gradient restricted to the gauge-slice coordinates."""
    g = eigenvalue_gradient(p, k, es=es, tol_degeneracy=tol_degeneracy)
    return g.values[chart.nonforest_indices].copy()


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


@dataclass(frozen=True, eq=False)
class CriticalityReport:
    critical: bool
    kind: str
    multiplicity: int
    max_imag_product: float
    vanishing: tuple[int, ...]


def is_critical(p: TorusPoint, k: int, tol: float = CRITICAL_TOL, *,
                es: EigenSystem | None = None,
                tol_degeneracy: float = DEGENERACY_TOL,
                tol_vanish: float = VANISH_TOL) -> CriticalityReport:
    """Criticality test with a coarse classification.

    A degenerate eigenvalue counts as critical and is reported as
    ``incorrigible`` (the eigenvalue is not smooth there).  A smooth
    point is critical when every edge product is real within
    ``tol * norm``; it is then a ``symmetry`` point when some phase
    action makes the operator real, and ``exceptional`` when instead
    the eigenvector vanishes somewhere.
    """
    try:
        s = _simple_eigen(p.operator(), k, es, tol_degeneracy)
    except NonSimpleEigenvalueError as exc:
        return CriticalityReport(True, "incorrigible", exc.multiplicity,
                                 float("nan"), ())
    return _classify(s, tol, tol_vanish)


def _classify(s: _SimpleEigen, tol: float, tol_vanish: float
              ) -> CriticalityReport:
    """``is_critical`` at a simple eigenvalue."""
    worst = s.max_imag_product
    _, vanishing = is_nowhere_vanishing(s.v, tol_vanish)
    if not s.is_flat(tol):
        return CriticalityReport(False, "smooth-regular", 1, worst,
                                 tuple(vanishing))
    if not vanishing:
        h, products = s.h, s.products
        # Criticality within tol * scale allows each entry phase to sit
        # off a multiple of pi by about tol * scale / |product|, so the
        # flux test gets that slack before concluding the invariant is
        # broken.  The test is monotone in its tolerance, so one run at
        # the larger of FLUX_TOL and the slack decides.
        flux_tol = FLUX_TOL
        floor = float(np.min(np.abs(products.real))) if products.size \
            else 1.0
        if floor > 0.0:
            flux_tol = max(FLUX_TOL,
                           h.graph.num_edges * tol * h.norm_fro / floor)
        equiv, _ = is_gauge_equiv_to_symmetry(h, tol=flux_tol)
        if not equiv:
            raise InternalCrossCheckError(
                "critical point with a simple eigenvalue and nowhere-"
                "vanishing eigenvector must be phase-equivalent to a real "
                "matrix, but the cycle fluxes are not multiples of pi")
        return CriticalityReport(True, "symmetry", 1, worst, ())
    return CriticalityReport(True, "exceptional", 1, worst, tuple(vanishing))


@dataclass(frozen=True, eq=False)
class FrozenFormHessian:
    """Hessian blocks of the frozen-eigenvector quadratic form.

    The form evaluates the operator at perturbed angles against the
    unperturbed eigenvector.  Its Hessian splits into a diagonal edge
    block and a vertex-phase block; the edge block's negative entries
    reproduce the nodal count and the phase block's negative eigenvalue
    count reproduces ``k - 1``.
    """

    edge_diag: np.ndarray
    gauge_block: np.ndarray

    @property
    def edge_block_index(self) -> int:
        return int(np.count_nonzero(self.edge_diag < 0.0))

    def gauge_block_index(self, rank_tol: float = RANK_TOL) -> int:
        return morse_index(self.gauge_block, rank_tol)[0]


def hessian_frozen_form(p: TorusPoint, k: int, *,
                        es: EigenSystem | None = None,
                        tol_critical: float = CRITICAL_TOL,
                        tol_degeneracy: float = DEGENERACY_TOL
                        ) -> FrozenFormHessian:
    """Both Hessian blocks of the frozen form at a critical point."""
    s = _simple_eigen(p.operator(), k, es, tol_degeneracy)
    if not s.is_flat(tol_critical):
        raise NotCriticalError(
            f"edge products have imaginary part {s.max_imag_product:.3e}; "
            f"the frozen-form Hessian needs a critical point")
    dense = s.h.to_dense() - s.lam * np.eye(s.h.graph.n)
    block = np.conj(s.v)[:, None] * dense * s.v[None, :]
    gauge_block = 2.0 * block.real
    gauge_block = 0.5 * (gauge_block + gauge_block.T)
    return FrozenFormHessian(-2.0 * s.products.real, gauge_block)


def hessian_eigenvalue(p: TorusPoint, k: int, *,
                       chart: GaugeChart | None = None,
                       es: EigenSystem | None = None,
                       tol_degeneracy: float = DEGENERACY_TOL) -> np.ndarray:
    """Eigenvalue Hessian on the gauge-slice coordinates.

    Entry ``(i, j)`` couples unit angle directions on non-forest edges
    ``i`` and ``j``.  Second-order perturbation theory gives it at any
    simple eigenvalue, critical or not.  Each direction perturbs the
    operator on a single edge; the first-order eigenvector responses
    come from one solve against the spectral pseudo-inverse, and equal
    directions pick up the diagonal frozen-form term.  The result is
    symmetrized after an asymmetry check against ``HESSIAN_SYM_TOL``.
    """
    return _hessian(_simple_eigen(p.operator(), k, es, tol_degeneracy),
                    chart if chart is not None else gauge_chart(p.graph),
                    tol_degeneracy)


def _hessian(s: _SimpleEigen, chart: GaugeChart, tol_degeneracy: float
             ) -> np.ndarray:
    """``hessian_eigenvalue`` at a simple eigenvalue."""
    if chart.dim == 0:
        return np.zeros((0, 0))
    idx = chart.nonforest_indices
    rs = np.array(s.h.graph.edges)[idx]
    cols = np.arange(chart.dim)
    hrs = s.h.offdiag[idx]
    W = np.zeros((s.h.graph.n, chart.dim), dtype=np.complex128)
    W[rs[:, 0], cols] = 1j * hrs * s.v[rs[:, 1]]
    W[rs[:, 1], cols] = -1j * np.conj(hrs) * s.v[rs[:, 0]]
    # Pseudo-inverse of h - lam on every column at once; the cluster
    # at lam is masked out exactly as in ``pseudo_inverse_apply``.
    shift = s.es.values - s.lam
    mask = np.abs(shift) > tol_degeneracy * s.es.spectral_scale
    inv = np.divide(1.0, shift, out=np.zeros_like(shift), where=mask)
    Vp = -s.es.vectors @ (inv[:, None] * (s.es.vectors.conj().T @ W))
    H = 2.0 * np.real(Vp.conj().T @ W).T
    H[cols, cols] += -2.0 * s.products.real[idx]
    asym = float(np.max(np.abs(H - H.T)))
    if asym > HESSIAN_SYM_TOL * max(1.0, float(np.max(np.abs(H)))):
        raise InternalCrossCheckError(
            f"assembled Hessian asymmetry {asym:.3e} beyond tolerance")
    return 0.5 * (H + H.T)


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


def morse_index(hess: np.ndarray, rank_tol: float = RANK_TOL
                ) -> tuple[int, int]:
    """Count of negative and of near-zero Hessian eigenvalues.

    The zero band is ``rank_tol`` times the largest magnitude
    eigenvalue; for the zero matrix everything is nullity.
    """
    hess = np.asarray(hess, dtype=np.float64)
    if hess.size == 0:
        return 0, 0
    w = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return 0, len(w)
    cut = rank_tol * scale
    index = int(np.count_nonzero(w < -cut))
    nullity = int(np.count_nonzero(np.abs(w) <= cut))
    return index, nullity


# ---------------------------------------------------------------------------
# critical point search


@dataclass(frozen=True, eq=False)
class CriticalPointReport:
    coords: tuple[float, ...]
    k: int
    classification: str
    multiplicity: int
    vanishing: tuple[int, ...]
    gradient_norm: float | None
    hessian_eigenvalues: tuple[float, ...] | None
    morse_index: int | None
    nullity: int | None
    origin: str
    conjugate_of: tuple[float, ...] | None = None

    def to_payload(self) -> dict:
        return {
            "coords": list(self.coords),
            "k": self.k,
            "classification": self.classification,
            "multiplicity": self.multiplicity,
            "vanishing": list(self.vanishing),
            "gradient_norm": self.gradient_norm,
            "hessian_eigenvalues": (None if self.hessian_eigenvalues is None
                                    else list(self.hessian_eigenvalues)),
            "morse_index": self.morse_index,
            "nullity": self.nullity,
            "origin": self.origin,
            "conjugate_of": (None if self.conjugate_of is None
                             else list(self.conjugate_of)),
        }


@dataclass(frozen=True, eq=False)
class ScanResult:
    reports: tuple[CriticalPointReport, ...]
    incorrigible_candidates: tuple[tuple[tuple[float, ...], float], ...]
    coverage: str
    starts_attempted: int
    unconverged: int


def _torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(np.mod(a - b, TWO_PI))
    return float(np.max(np.minimum(d, TWO_PI - d))) if d.size else 0.0


def _halton(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the Halton sequence in ``[0, 1)^dim``."""
    def primes(k: int) -> list[int]:
        out, cand = [], 2
        while len(out) < k:
            if all(cand % q for q in out):
                out.append(cand)
            cand += 1
        return out

    bases = primes(dim)
    points = np.empty((count, dim))
    for j, b in enumerate(bases):
        for i in range(count):
            f, r, x = 1.0, 0.0, i + 1
            while x > 0:
                f /= b
                r += f * (x % b)
                x //= b
            points[i, j] = r
    return points


def _report_at(p: TorusPoint, h: SupportedMatrix, es: EigenSystem, k: int,
               chart: GaugeChart, origin: str, *, tol_degeneracy: float,
               tol_vanish: float, rank_tol: float) -> CriticalPointReport:
    """Report at ``p`` from its operator ``h`` and eigensystem ``es``."""
    coords = tuple(float(c) for c in p.coords(chart))
    try:
        s = _simple_eigen(h, k, es, tol_degeneracy)
    except NonSimpleEigenvalueError as exc:
        return CriticalPointReport(coords, k, "incorrigible",
                                   exc.multiplicity, (), None, None, None,
                                   None, origin)
    report = _classify(s, CRITICAL_TOL, tol_vanish)
    gnorm = float(np.linalg.norm(s.gradient[chart.nonforest_indices]))
    hess = _hessian(s, chart, tol_degeneracy)
    spectrum = tuple(float(x) for x in np.linalg.eigvalsh(hess)) \
        if hess.size else ()
    index, nullity = morse_index(hess, rank_tol)
    return CriticalPointReport(coords, k, report.kind, 1, report.vanishing,
                               gnorm, spectrum, index, nullity, origin)


def _polish(base: SupportedMatrix, chart: GaugeChart, k: int,
            start: np.ndarray, gtol: float, tol_degeneracy: float
            ) -> tuple[str, np.ndarray, float, _SimpleEigen | None]:
    """Drive the gauge-slice gradient to zero from one start.

    Damped Newton steps on the gradient map, with the analytic
    eigenvalue Hessian as Jacobian and backtracking on the squared
    norm; every trial point costs one eigensolve, shared by its
    gradient and Hessian.  Returns a status, the final coordinates, an
    auxiliary number and, for a converged run, the solve at the final
    coordinates (``None`` otherwise).  The number is the eigenvalue gap
    for the degenerate status, read from the eigensystem that failed the
    simplicity check, or the last Newton decrement for a converged run.
    A small residual gradient over a nearly flat Hessian still means a
    sizable position error, and the decrement is what bounds it.
    """
    idx = chart.nonforest_indices

    def solve(coords: np.ndarray) -> _SimpleEigen | float:
        """The solve at ``coords``, or the eigenvalue gap from the same
        eigensystem when the k-th eigenvalue is not simple."""
        h = TorusPoint.from_coords(base, coords, chart).operator()
        es = eigh(h)
        try:
            return _simple_eigen(h, k, es, tol_degeneracy)
        except NonSimpleEigenvalueError:
            return _gap(es, k)

    x = np.mod(start.copy(), TWO_PI)
    s = solve(x)
    if isinstance(s, float):
        return "degenerate", x, s, None
    for _ in range(60):
        g = s.gradient[idx]
        J = _hessian(s, chart, tol_degeneracy)
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


def _gap(es: EigenSystem, k: int) -> float:
    """Distance from the k-th eigenvalue to the nearest other one."""
    gaps = [abs(es.values[j] - es.values[k - 1])
            for j in range(es.n) if j != k - 1]
    return float(min(gaps)) if gaps else float("inf")


def _symmetry_points(base: SupportedMatrix, chart: GaugeChart):
    """Yield ``(bits, point, operator, eigensystem)`` per symmetry class.

    The ``2^beta`` gauge-slice points have coordinate ``pi`` where the
    bit is 1 and 0 elsewhere, in ``itertools.product`` order; the first
    is the base matrix itself.
    """
    for bits in itertools.product((0, 1), repeat=chart.dim):
        p = TorusPoint.from_coords(
            base, np.array([np.pi if b else 0.0 for b in bits]), chart)
        h = p.operator()
        yield bits, p, h, eigh(h)


def critical_scan(h: SupportedMatrix, k: int, *, starts: int = 64,
                  seed: int = 0, tol_degeneracy: float = DEGENERACY_TOL,
                  tol_vanish: float = VANISH_TOL,
                  rank_tol: float = RANK_TOL) -> ScanResult:
    """Enumerate symmetry points and search for further critical points.

    All ``2**beta`` symmetry classes are visited exactly (coordinates
    in {0, pi}); on top of that a low-discrepancy grid and ``starts``
    seeded random starts are polished toward gradient zeros.  Found
    points are deduplicated against each other and against conjugate
    partners.  The search side is best effort only and the coverage
    note says so.
    """
    if not h.is_real:
        raise ValueError("critical_scan expects a real base matrix")
    base = abs_part(h)
    chart = gauge_chart(h.graph)
    beta = chart.dim

    reports: list[CriticalPointReport] = []
    incorrigible: list[tuple[tuple[float, ...], float]] = []
    for _, p, hp, es in _symmetry_points(base, chart):
        if not reports:  # the base matrix sets the gradient tolerance
            gtol = 1e-10 * max(1.0, float(np.max(np.abs(es.values))))
        reports.append(_report_at(p, hp, es, k, chart, "symmetry-enumeration",
                                  tol_degeneracy=tol_degeneracy,
                                  tol_vanish=tol_vanish, rank_tol=rank_tol))

    known = [np.array(r.coords) for r in reports]
    unconverged = 0
    attempted = 0
    found: list[tuple[np.ndarray, float, _SimpleEigen]] = []
    if beta > 0:
        grid = _halton(min(128, max(8, 2 ** beta)), beta) * TWO_PI
        rng = np.random.default_rng(seed)
        random_starts = rng.uniform(0.0, TWO_PI, size=(starts, beta))
        for start in np.vstack([grid, random_starts]):
            attempted += 1
            status, x, aux, s = _polish(base, chart, k, start, gtol,
                                        tol_degeneracy)
            if status == "degenerate":
                coords = tuple(float(c) for c in x)
                if all(_torus_distance(x, np.array(c)) > DEDUP_TOL
                       for c, _ in incorrigible):
                    incorrigible.append((coords, aux))
                continue
            if status != "ok":
                unconverged += 1
                continue
            radius = max(DEDUP_TOL, 10.0 * aux)
            if any(_torus_distance(x, c) <= radius for c in known):
                continue
            if any(_torus_distance(x, c) <= max(radius, r)
                   for c, r, _ in found):
                continue
            found.append((x, radius, s))

    # Pair conjugate search points; keep the lexicographically smaller
    # coordinates as the primary report.
    consumed = set()
    for i, (x, radius, s) in enumerate(found):
        if i in consumed:
            continue
        partner = None
        for j in range(i + 1, len(found)):
            if j in consumed:
                continue
            if _torus_distance(np.mod(-x, TWO_PI), found[j][0]) \
                    <= max(radius, found[j][1]):
                partner = j
                break
        p = TorusPoint.from_coords(base, x, chart)
        rep = _report_at(p, s.h, s.es, k, chart, "search",
                         tol_degeneracy=tol_degeneracy,
                         tol_vanish=tol_vanish, rank_tol=rank_tol)
        if partner is not None:
            consumed.add(partner)
            rep = replace(
                rep,
                conjugate_of=tuple(float(c) for c in found[partner][0]))
        reports.append(rep)

    coverage = (f"symmetry classes enumerated exactly (2^{beta}); search used "
                f"{attempted} polished starts, {unconverged} unconverged; "
                f"non-symmetry findings are best effort, absence is not "
                f"certified")
    return ScanResult(tuple(reports), tuple(incorrigible), coverage,
                      attempted, unconverged)


# ---------------------------------------------------------------------------
# index versus surplus


@dataclass(frozen=True, eq=False)
class VerifyRow:
    class_parities: tuple[int, ...]
    k: int
    status: str
    surplus: int | None = None
    index: int | None = None
    nullity: int | None = None
    reason: str = ""


@dataclass(frozen=True, eq=False)
class IndexSurplusTable:
    rows: tuple[VerifyRow, ...]

    @property
    def num_ok(self) -> int:
        return sum(1 for r in self.rows if r.status == "ok")

    @property
    def num_skipped(self) -> int:
        return sum(1 for r in self.rows if r.status == "skipped")


def verify_index_equals_surplus(h: SupportedMatrix, *,
                                tol_degeneracy: float = DEGENERACY_TOL,
                                tol_vanish: float = VANISH_TOL,
                                rank_tol: float = RANK_TOL
                                ) -> IndexSurplusTable:
    """Check Morse index equals nodal surplus over all symmetry classes.

    Every switching class is represented by the gauge-slice point with
    coordinates in {0, pi}.  For each admissible pair (class, k) the
    eigenvalue Hessian must be nondegenerate with index equal to the
    nodal surplus; a violation raises.  Inadmissible pairs are recorded
    as skipped with the reason.
    """
    if not h.is_real:
        raise ValueError("verification expects a real matrix")
    chart = gauge_chart(h.graph)
    rows: list[VerifyRow] = []
    for bits, _, hs, es in _symmetry_points(abs_part(h), chart):
        for k in range(1, h.graph.n + 1):
            try:
                s = _simple_eigen(hs, k, es, tol_degeneracy)
                surplus = _count(s, tol_vanish) - (k - 1)
            except AdmissibilityError as exc:
                if isinstance(exc, NonSimpleEigenvalueError):
                    reason = f"multiplicity {exc.multiplicity}"
                elif isinstance(exc, VanishingEigenvectorError):
                    reason = f"vanishes at {list(exc.vertices)}"
                else:  # degenerate products
                    reason = str(exc)
                rows.append(VerifyRow(bits, k, "skipped", reason=reason))
                continue
            index, nullity = morse_index(_hessian(s, chart, tol_degeneracy),
                                         rank_tol)
            if nullity != 0:
                raise InternalCrossCheckError(
                    f"Hessian at class {bits}, k={k} is degenerate "
                    f"(nullity {nullity}); the index comparison needs a "
                    f"nondegenerate critical point")
            if index != surplus:
                raise InternalCrossCheckError(
                    f"Morse index {index} differs from nodal surplus "
                    f"{surplus} at class {bits}, k={k}")
            rows.append(VerifyRow(bits, k, "ok", surplus=surplus,
                                  index=index, nullity=nullity))
    return IndexSurplusTable(tuple(rows))
