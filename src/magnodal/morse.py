"""Eigenvalue Morse data on the torus of phase perturbations.

A real properly supported matrix spans a torus of operators, one angle
per edge.  Vertex phases act on that torus, and a gauge slice that pins
the angles of the graph's spanning forest to zero gives coordinates on
the quotient: one angle per independent cycle.  Eigenvalues become
functions of those coordinates, and this module computes their
gradients, Hessians, Morse indices, and critical points.  The scan and
the index check visit the ``2^beta`` symmetry points, coordinates in
{0, pi}, through one stacked real eigensolve.  Their Hessians are
assembled as stacks too: one for a scan's symmetry points, one for its
search reports, and one per k for an index check; the Morse indices of
each phase come from one stacked eigensolve of its Hessians.

Every derivative starts from one solve at the point, ``nodal``'s
``_simple_eigen``: the operator, its eigensystem, the simple k-th
eigenpair and the edge products.  The eigenvalue Hessian is assembled
from first-order eigenvector responses through the spectral
pseudo-inverse; second-order perturbation theory makes it valid at
every simple eigenvalue, so the critical-point search uses it as its
Newton Jacobian.  Restricting the full torus Hessian to the gauge slice
loses nothing because the vertex-phase directions are in its kernel.

The search polishes all of its starts in lockstep: each Newton round
builds the trial operators of every active start as one stack, solves
it with one ``spectral.eigh_stack`` call per solver path (real or
complex), checks simplicity and takes edge products and gradients
across the stack, and assembles one stacked Hessian for the starts
that moved.  The stacked kernels do per row exactly the arithmetic of
a single solve, so every start follows its one-start trajectory bit
for bit.
"""

from __future__ import annotations

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
    gauge_classes_of_signings,
    is_gauge_equiv_to_symmetry,
    magnetic_action,
    phase_form,
    unit_phases,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    EigenSystem,
    eigh_stack,
    is_nowhere_vanishing,
    simple_positions,
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
        """Edge positions of the chart coordinates, read-only; cached
        with the cycle basis."""
        return self.basis.nonforest_indices

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
    return _hessian_at(_simple_eigen(p.operator(), k, es, tol_degeneracy),
                       chart if chart is not None else gauge_chart(p.graph),
                       tol_degeneracy)


@dataclass(frozen=True, eq=False)
class _Solves:
    """Solves of a stack of operators on one graph, one per row.

    ``offdiag`` (S, m) holds each operator's edge entries, ``values``
    (S, n) and ``vectors`` (S, n, n) its ascending eigenvalues and
    phase-normalized eigenvector columns, and ``products`` (S, m) the
    edge products of its k-th eigenvector.  All rows come from one
    solver path: real vectors for real operators, complex otherwise.
    """

    offdiag: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    k: int
    products: np.ndarray

    @classmethod
    def stack(cls, solves) -> "_Solves":
        """The single solves ``solves``, all at one k, one per row."""
        return cls(np.stack([s.h.offdiag for s in solves]),
                   np.stack([s.es.values for s in solves]),
                   np.stack([s.es.vectors for s in solves]), solves[0].k,
                   np.stack([s.products for s in solves]))

    def take(self, rows) -> "_Solves":
        return _Solves(self.offdiag[rows], self.values[rows],
                       self.vectors[rows], self.k, self.products[rows])

    def simple_eigen(self, base: SupportedMatrix, row: int) -> _SimpleEigen:
        """Row ``row`` as a ``_SimpleEigen`` that holds no stack memory."""
        values, vectors = self.values[row].copy(), self.vectors[row].copy()
        values.setflags(write=False)
        vectors.setflags(write=False)
        es = EigenSystem(values, vectors)
        return _SimpleEigen(
            SupportedMatrix(base.graph, base.diag, self.offdiag[row]), es,
            self.k, es.vector(self.k), es.value(self.k),
            self.products[row].copy())


def _hessian_at(s: _SimpleEigen, chart: GaugeChart, tol_degeneracy: float
                ) -> np.ndarray:
    """``hessian_eigenvalue`` at a simple eigenvalue: a stack of one."""
    return _hessian(_Solves.stack([s]), chart, tol_degeneracy)[0]


def _hessian(s: _Solves, chart: GaugeChart, tol_degeneracy: float
             ) -> np.ndarray:
    """``hessian_eigenvalue`` of every row of a stack, shape (S, d, d).

    Each row sees the arithmetic of a single solve: the batched matrix
    products call the same BLAS kernel per row.
    """
    count, k = len(s.values), s.k
    if chart.dim == 0:
        return np.zeros((count, 0, 0))
    idx = chart.nonforest_indices
    rs = chart.graph.endpoints[idx]
    cols = np.arange(chart.dim)
    v = s.vectors[:, :, k - 1]
    lam = s.values[:, k - 1:k]
    hrs = s.offdiag[:, idx]
    W = np.zeros((count, chart.graph.n, chart.dim), dtype=np.complex128)
    W[:, rs[:, 0], cols] = 1j * hrs * v[:, rs[:, 1]]
    W[:, rs[:, 1], cols] = -1j * np.conj(hrs) * v[:, rs[:, 0]]
    # Pseudo-inverse of h - lam on every column at once; the cluster
    # at lam is masked out exactly as in ``pseudo_inverse_apply``.
    shift = s.values - lam
    scale = np.maximum(1.0, np.max(np.abs(s.values), axis=1))
    mask = np.abs(shift) > (tol_degeneracy * scale)[:, None]
    inv = np.divide(1.0, shift, out=np.zeros_like(shift), where=mask)
    Vp = -s.vectors @ (inv[:, :, None]
                       * (s.vectors.conj().swapaxes(1, 2) @ W))
    H = 2.0 * np.real(Vp.conj().swapaxes(1, 2) @ W).swapaxes(1, 2)
    H[:, cols, cols] += -2.0 * s.products.real[:, idx]
    Ht = H.swapaxes(1, 2)
    asym = np.max(np.abs(H - Ht), axis=(1, 2))
    bad = asym > HESSIAN_SYM_TOL * np.maximum(
        1.0, np.max(np.abs(H), axis=(1, 2)))
    if np.any(bad):
        raise InternalCrossCheckError(
            f"assembled Hessian asymmetry {asym[np.argmax(bad)]:.3e} "
            f"beyond tolerance")
    return 0.5 * (H + Ht)


def morse_index(hess: np.ndarray, rank_tol: float = RANK_TOL
                ) -> tuple[int, int]:
    """Count of negative and of near-zero Hessian eigenvalues.

    The zero band is ``rank_tol`` times the largest magnitude
    eigenvalue; for the zero matrix everything is nullity.
    """
    _, index, nullity = _morse_indices(
        np.asarray(hess, dtype=np.float64)[None], rank_tol)
    return int(index[0]), int(nullity[0])


def _morse_indices(hess: np.ndarray, rank_tol: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``morse_index`` of every matrix of a stack (S, d, d), with spectra.

    Returns the ascending eigenvalues (S, d) of the symmetrized
    matrices, from one stacked solve, and the indices and nullities
    (S,).  Symmetrizing leaves the bits of an exactly symmetric matrix,
    such as an assembled Hessian, unchanged.  Empty matrices have index
    and nullity 0.
    """
    count, d = hess.shape[0], hess.shape[-1]
    if hess.size == 0:
        zeros = np.zeros(count, dtype=np.int64)
        return np.zeros((count, d)), zeros, zeros
    w = np.linalg.eigvalsh(0.5 * (hess + hess.swapaxes(1, 2)))
    scale = np.max(np.abs(w), axis=1)
    cut = (rank_tol * scale)[:, None]
    index = np.count_nonzero(w < -cut, axis=1)
    nullity = np.where(scale == 0.0, d,
                       np.count_nonzero(np.abs(w) <= cut, axis=1))
    return w, index, nullity


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


def _torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-metric torus distance from the point ``a`` to each row of ``b``."""
    d = np.abs(np.mod(a - b, TWO_PI))
    return np.max(np.minimum(d, TWO_PI - d), axis=-1)


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


def _reports_at(points, k: int, chart: GaugeChart, origin: str, *,
                tol_degeneracy: float, tol_vanish: float, rank_tol: float
                ) -> list[CriticalPointReport]:
    """One report per ``(coords, h, es)`` of ``points``: chart
    coordinates, the operator there and its eigensystem.

    A point whose k-th eigenvalue is not simple is ``incorrigible``;
    every other point is classified on its own.  The Hessians of the
    simple points are assembled as one stack, and their spectra,
    indices and nullities come from one stacked solve.
    """
    reports, simple, solves = [], [], []
    for coords, h, es in points:
        coords = tuple(float(c) for c in coords)
        try:
            s = _simple_eigen(h, k, es, tol_degeneracy)
        except NonSimpleEigenvalueError as exc:
            reports.append(CriticalPointReport(
                coords, k, "incorrigible", exc.multiplicity, (), None, None,
                None, None, origin))
            continue
        report = _classify(s, CRITICAL_TOL, tol_vanish)
        gnorm = float(np.linalg.norm(s.gradient[chart.nonforest_indices]))
        simple.append(len(reports))
        solves.append(s)
        reports.append(CriticalPointReport(
            coords, k, report.kind, 1, report.vanishing, gnorm, None, None,
            None, origin))
    if solves:
        spectra, index, nullity = _morse_indices(
            _hessian(_Solves.stack(solves), chart, tol_degeneracy), rank_tol)
        for i, w, ind, nul in zip(simple, spectra.tolist(), index.tolist(),
                                  nullity.tolist()):
            reports[i] = replace(reports[i], hessian_eigenvalues=tuple(w),
                                 morse_index=ind, nullity=nul)
    return reports


def _offdiag_at(base: SupportedMatrix, chart: GaugeChart, coords: np.ndarray
                ) -> np.ndarray:
    """Edge entries (S, m) of the operators at chart coordinates (S, d).

    Row by row these are the bits of
    ``TorusPoint.from_coords(base, coords[i], chart).operator().offdiag``.
    """
    angles = np.zeros((len(coords), base.graph.num_edges))
    angles[:, chart.nonforest_indices] = coords
    return base.offdiag * unit_phases(np.mod(angles, TWO_PI))


# Phases of a start in ``_polish``.
_START, _LINE, _FINAL, _DONE = range(4)


def _polish(base: SupportedMatrix, chart: GaugeChart, k: int,
            starts: np.ndarray, gtol: float, tol_degeneracy: float
            ) -> list[tuple[str, np.ndarray, float, _SimpleEigen | None]]:
    """Drive the gauge-slice gradient to zero from every row of ``starts``.

    Per start: damped Newton steps on the gradient map, with the
    analytic eigenvalue Hessian as Jacobian and backtracking on the
    squared norm; every trial point costs one eigensolve, shared by its
    gradient and Hessian.  Returns per start a status, the final
    coordinates, an auxiliary number and, for a converged run, the
    solve at the final coordinates (``None`` otherwise).  The number is
    the eigenvalue gap for the degenerate status, read from the
    eigensystem that failed the simplicity check, or the last Newton
    decrement for a converged run.  A small residual gradient over a
    nearly flat Hessian still means a sizable position error, and the
    decrement is what bounds it.

    The starts run in lockstep.  Each round solves the one trial point
    of every active start in one stacked eigensolve per solver path
    (operators that are exactly real take the real path), runs the
    simplicity check, edge products and gradients across the stack, and
    assembles one stacked Hessian for the starts that moved to a new
    point.  Position, step, step length, squared gradient norm, Newton
    count and phase are per-start arrays; the least-squares step is a
    per-start call.  Each start follows the one-start trajectory bit
    for bit.
    """
    idx = chart.nonforest_indices
    rs = base.graph.endpoints
    count = len(starts)
    x = np.mod(starts, TWO_PI)       # current point
    trial = x.copy()                 # point solved in the next round
    g = np.zeros_like(x)             # gradient at x
    delta = np.zeros_like(x)         # Newton step from x
    t = np.ones(count)               # step length of the trial
    f0 = np.zeros(count)             # squared gradient norm at x
    aux = np.zeros(count)            # Newton decrement of a final check
    newton = np.zeros(count, dtype=np.int64)
    phase = np.full(count, _START)
    held: dict[int, _SimpleEigen] = {}  # solve at x during a final check
    out: list = [None] * count

    def advance(r: np.ndarray, off: np.ndarray) -> None:
        """One round for the starts ``r``, all on one solver path."""
        values, vectors = eigh_stack(base.graph, base.diag, off)
        v = vectors[:, :, k - 1]
        s = _Solves(off, values, vectors, k,
                    np.conj(v[:, rs[:, 0]]) * off * v[:, rs[:, 1]])
        simple = simple_positions(values, tol_degeneracy)[:, k - 1]
        gn = (-2.0 * s.products.imag)[:, idx]
        moved = []
        for j, i in enumerate(r):
            if phase[i] == _FINAL:
                # keep the last Newton step only if it lowers the gradient
                if simple[j] and float(np.linalg.norm(gn[j])) \
                        < float(np.linalg.norm(g[i])):
                    out[i] = ("ok", trial[i].copy(), float(aux[i]),
                              s.simple_eigen(base, j))
                else:
                    out[i] = ("ok", x[i].copy(), float(aux[i]), held[i])
                del held[i]
            elif not simple[j]:
                gap = np.min(np.abs(np.delete(values[j], k - 1)
                                    - values[j, k - 1]))
                out[i] = ("degenerate", trial[i].copy(), float(gap), None)
            elif phase[i] == _LINE and not float(gn[j] @ gn[j]) \
                    < f0[i] * (1.0 - 0.25 * t[i]) + 1e-300:
                t[i] *= 0.5
                if t[i] < 2.0 ** -12:
                    out[i] = ("stuck", x[i].copy(), 0.0, None)
            else:  # the start itself or an accepted step
                x[i], g[i] = trial[i], gn[j]
                if newton[i] == 60:
                    out[i] = ("maxiter", x[i].copy(), 0.0, None)
                else:
                    moved.append(j)
            if out[i] is not None:
                phase[i] = _DONE
        if moved:
            J = _hessian(s.take(moved), chart, tol_degeneracy)
            for Jj, j in zip(J, moved):
                i = r[j]
                newton[i] += 1
                step, *_ = np.linalg.lstsq(Jj, -g[i], rcond=None)
                delta[i], t[i] = step, 1.0
                if float(np.max(np.abs(g[i]))) <= gtol:
                    phase[i] = _FINAL
                    aux[i] = float(np.linalg.norm(step))
                    held[i] = s.simple_eigen(base, j)
                else:
                    phase[i] = _LINE
                    f0[i] = float(g[i] @ g[i])
        live = r[phase[r] != _DONE]
        trial[live] = np.mod(x[live] + t[live, None] * delta[live], TWO_PI)

    while True:
        rows = np.flatnonzero(phase != _DONE)
        if not rows.size:
            return out
        off = _offdiag_at(base, chart, trial[rows])
        # Exactly real operators take the real solver path, as in
        # ``eigh``; the others share one complex stack.
        real = np.all(off.imag == 0.0, axis=1)
        for path in (real, ~real):
            if np.any(path):
                advance(rows[path], off[path])


def _symmetry_points(base: SupportedMatrix, chart: GaugeChart
                     ) -> list[tuple[tuple[int, ...], SupportedMatrix,
                                     EigenSystem]]:
    """``(bits, operator, eigensystem)`` per symmetry class.

    The ``2^beta`` gauge-slice points have coordinate ``pi`` where the
    bit is 1 and 0 elsewhere, in ``itertools.product`` order (the last
    bit varies fastest); the first is the base matrix itself.  Each is
    the forest-gauge representative of the switching class whose id
    has bit ``j`` set where coordinate ``j`` is ``pi``, so the signs
    come from ``gauge_classes_of_signings``, which refuses a beta over
    ``SIGNING_CAP``.  The operators are real, and one stacked real
    solve covers them all.
    """
    d = chart.dim
    classes = gauge_classes_of_signings(base)
    bits = (np.arange(classes.num_classes)[:, None]
            >> np.arange(d - 1, -1, -1)) & 1
    off = base.offdiag * classes.rows(bits @ (1 << np.arange(d)))
    values, vectors = eigh_stack(base.graph, base.diag, off)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return [(tuple(row), SupportedMatrix(base.graph, base.diag, o),
             EigenSystem(w, V))
            for row, o, w, V in zip(bits.tolist(), off, values, vectors)]


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
    note says so.  A beta over ``SIGNING_CAP`` raises
    ``CapExceededError`` before anything is solved.
    """
    if not h.is_real:
        raise ValueError("critical_scan expects a real base matrix")
    base = abs_part(h)
    chart = gauge_chart(h.graph)
    beta = chart.dim

    tols = dict(tol_degeneracy=tol_degeneracy, tol_vanish=tol_vanish,
                rank_tol=rank_tol)
    points = [([np.pi if b else 0.0 for b in bits], hp, es)
              for bits, hp, es in _symmetry_points(base, chart)]
    # the base matrix, the first point, sets the gradient tolerance
    gtol = 1e-10 * max(1.0, float(np.max(np.abs(points[0][2].values))))
    reports = _reports_at(points, k, chart, "symmetry-enumeration", **tols)
    incorrigible: list[tuple[tuple[float, ...], float]] = []

    known = np.array([r.coords for r in reports])
    unconverged = 0
    attempted = 0
    found: list[_SimpleEigen] = []
    if beta > 0:
        grid = _halton(min(128, max(8, 2 ** beta)), beta) * TWO_PI
        rng = np.random.default_rng(seed)
        random_starts = rng.uniform(0.0, TWO_PI, size=(starts, beta))
        polished = _polish(base, chart, k, np.vstack([grid, random_starts]),
                           gtol, tol_degeneracy)
        attempted = len(polished)
        # Landing points kept so far, each compared against in one array
        # operation per start.
        stuck_x = np.empty((attempted, beta))
        found_x = np.empty((attempted, beta))
        found_r = np.empty(attempted)
        for status, x, aux, s in polished:
            if status == "degenerate":
                if np.all(_torus_distance(x, stuck_x[:len(incorrigible)])
                          > DEDUP_TOL):
                    stuck_x[len(incorrigible)] = x
                    incorrigible.append((tuple(float(c) for c in x), aux))
                continue
            if status != "ok":
                unconverged += 1
                continue
            radius = max(DEDUP_TOL, 10.0 * aux)
            if np.any(_torus_distance(x, known) <= radius):
                continue
            nf = len(found)
            if np.any(_torus_distance(x, found_x[:nf])
                      <= np.maximum(radius, found_r[:nf])):
                continue
            found_x[nf], found_r[nf] = x, radius
            found.append(s)

    # Pair conjugate search points; the one found first is the primary
    # report.
    nf = len(found)
    consumed = np.zeros(nf, dtype=bool)
    primaries, partners = [], []
    for i in range(nf):
        if consumed[i]:
            continue
        close = (_torus_distance(np.mod(-found_x[i], TWO_PI),
                                 found_x[i + 1:nf])
                 <= np.maximum(found_r[i], found_r[i + 1:nf])) \
            & ~consumed[i + 1:]
        partner = None
        if np.any(close):
            partner = i + 1 + int(np.argmax(close))
            consumed[partner] = True
        primaries.append(i)
        partners.append(partner)
    if primaries:
        search = _reports_at([(np.mod(found_x[i], TWO_PI), found[i].h,
                               found[i].es) for i in primaries],
                             k, chart, "search", **tols)
        for rep, partner in zip(search, partners):
            if partner is not None:
                rep = replace(rep, conjugate_of=tuple(
                    float(c) for c in found_x[partner]))
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
    nodal surplus; a violation raises, at the first failing pair in
    class-major order.  Inadmissible pairs are recorded as skipped with
    the reason.  The Hessians are assembled as one stack per k, and
    their indices come from one stacked solve.  A beta over
    ``SIGNING_CAP`` raises ``CapExceededError`` before anything is
    solved.
    """
    if not h.is_real:
        raise ValueError("verification expects a real matrix")
    chart = gauge_chart(h.graph)
    n = h.graph.n
    rows: list = []  # a skipped VerifyRow, or (bits, k, surplus) to check
    solves: list[list[tuple[int, _SimpleEigen]]] = [[] for _ in range(n)]
    for bits, hs, es in _symmetry_points(abs_part(h), chart):
        for k in range(1, n + 1):
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
            solves[k - 1].append((len(rows), s))
            rows.append((bits, k, surplus))
    at = [i for per_k in solves for i, _ in per_k]
    if at:
        _, index, nullity = _morse_indices(np.concatenate([
            _hessian(_Solves.stack([s for _, s in per_k]), chart,
                     tol_degeneracy) for per_k in solves if per_k]), rank_tol)
        counts = dict(zip(at, zip(index.tolist(), nullity.tolist())))
    for i, row in enumerate(rows):
        if isinstance(row, VerifyRow):
            continue
        (bits, k, surplus), (index, nullity) = row, counts[i]
        if nullity != 0:
            raise InternalCrossCheckError(
                f"Hessian at class {bits}, k={k} is degenerate "
                f"(nullity {nullity}); the index comparison needs a "
                f"nondegenerate critical point")
        if index != surplus:
            raise InternalCrossCheckError(
                f"Morse index {index} differs from nodal surplus "
                f"{surplus} at class {bits}, k={k}")
        rows[i] = VerifyRow(bits, k, "ok", surplus=surplus, index=index,
                            nullity=nullity)
    return IndexSurplusTable(tuple(rows))
