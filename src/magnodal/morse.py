"""Eigenvalue Morse data on the torus of phase perturbations.

A real properly supported matrix spans a torus of operators, one angle
per edge.  Vertex phases act on that torus, and a gauge slice that pins
the angles of the graph's spanning forest to zero gives coordinates on
the quotient: one angle per independent cycle, on the non-forest edges
at the forest's ``nonforest`` positions.  Eigenvalues become
functions of those coordinates, and this module computes their
gradients, Hessians, Morse indices, and critical points.  The scan and
the index check visit the ``2^beta`` symmetry points, coordinates in
{0, pi}, which are the switching-class representatives of the signing
average.  Both walk the class sum's generator, ``nodal._class_blocks``,
in symmetry-point order: per block one stacked real eigensolve, checked
once at every position by ``nodal``'s admissibility kernel,
``_stack_checks``, for simplicity, vanishing entries, criticality and
surplus.  The index check decides every (class, k) pair of a block from
those masks and words its skip reasons from them
(``_StackChecks.error``), with no second solve; a scan reads each
block's column at k, then checks its search reports as one stack, at
every position as a block is, and reads their column at k too.  The
Hessians read the edge products the kernel checked; each stack
assembles them as one stack (per k, in the index check), and their
Morse indices come from one stacked solve.

Every derivative at a single point solves the point's operator itself,
through ``nodal``'s checked solve of a stack of one, ``_checked``, which
raises the kernel's error when the k-th eigenvalue is not simple; no
function takes an eigensystem from its caller.  The eigenvalue Hessian is
assembled from first-order eigenvector responses through the spectral
pseudo-inverse; second-order perturbation theory makes it valid at
every simple eigenvalue, so the critical-point search uses it as its
Newton Jacobian.  Restricting the full torus Hessian to the gauge slice
loses nothing because the vertex-phase directions are in its kernel.

The search polishes all of its starts in lockstep, one round per
Newton trial: the trial operators of every live start form one stack,
solved on the complex path even where a trial lands exactly on a
symmetry point; the rest of the round, Newton Hessians and one
stacked least-squares call included, runs once over the stack.  It
fills one solve stack as it goes, a row per start, from which the
search reports take their rows.  The stacked kernels do per row
exactly the arithmetic of a single solve, so every start follows its
one-start trajectory bit for bit.  Every eigenvalue cluster is decided
by ``spectral``'s one degeneracy test, ``cluster_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    AdmissibilityError,
    GraphMismatchError,
    InternalCrossCheckError,
    NonSimpleEigenvalueError,
    VanishingEigenvectorError,
)
from .graphs import Graph, OneForm, SpanningForest, num_components
from .nodal import _checked, _class_blocks, _Solves, _StackChecks
from .operators import (
    FLUX_TOL,
    SupportedMatrix,
    abs_part,
    entry_phases,
    flux_defects,
    frobenius_norms,
    gauge_classes_of_signings,
    magnetic_action,
    phase_form,
    unit_phases,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    _check_k,
    _lstsq,
    cluster_mask,
    eigh_stack,
    eigvalsh_dense,
)

TWO_PI = 2.0 * np.pi

#: Relative threshold separating zero Hessian eigenvalues from signed ones.
RANK_TOL = 1e-7

#: Points closer than this in the torus metric are the same point.
DEDUP_TOL = 1e-6

#: Relative asymmetry the assembled Hessian may carry before it raises.
HESSIAN_SYM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """Point of the phase torus over a real base matrix.

    Stores the full vector of edge angles reduced modulo 2 pi.  A point
    on the gauge slice has its forest angles at zero; its coordinates
    are its angles at the forest's non-forest positions.
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


def eigenvalue_gradient(p: TorusPoint, k: int) -> OneForm:
    """Gradient of the k-th eigenvalue in the edge angles.

    The derivative along edge ``(r, s)`` is
    ``2 Im(conj(h_rs) v_r conj(v_s))`` with ``h`` the operator at the
    point and ``v`` its k-th eigenvector.  Undefined at a degenerate
    eigenvalue; such a point is a candidate non-smooth critical point.
    """
    s, _ = _checked(p.operator(), k)
    return OneForm(p.graph, -2.0 * s.products[0].imag)


def gradient_coords(p: TorusPoint, k: int) -> np.ndarray:
    """Gradient restricted to the gauge-slice coordinates."""
    g = eigenvalue_gradient(p, k)
    return g.values[p.graph.spanning_forest.nonforest].copy()


def _kinds(s: _Solves, scale: np.ndarray, checks: _StackChecks
           ) -> list[str]:
    """Kind of each row of ``s`` at a simple eigenvalue, from column
    ``k - 1`` of its ``checks``, with ``_check_symmetry`` run on the
    ``symmetry`` rows, whose norms are in ``scale`` (S,).

    A row is critical when every edge product is real within the
    checks' ``tol_real`` times its norm; it is then a ``symmetry`` point
    when its eigenvector vanishes nowhere, and ``exceptional`` when it
    vanishes somewhere.  Any other row is ``smooth-regular``.
    """
    col = s.k - 1
    flat = checks.flat[:, col]
    symmetric = checks.simple[:, col] & flat \
        & ~np.any(checks.vanishing[:, col], axis=1)
    if np.any(symmetric):
        _check_symmetry(checks.graph, s.offdiag[symmetric],
                        s.products[symmetric], scale[symmetric],
                        checks.tol_real)
    return np.where(flat, np.where(symmetric, "symmetry", "exceptional"),
                    "smooth-regular").tolist()


def _check_symmetry(graph: Graph, offdiag: np.ndarray, products: np.ndarray,
                    scale: np.ndarray, tol: float) -> None:
    """Cross-check the rows of a stack of critical points, each with a
    simple eigenvalue and a nowhere-vanishing eigenvector: every one
    must be phase-equivalent to a real matrix.

    ``offdiag`` and ``products`` (S, m) are the edge entries and edge
    products, ``scale`` (S,) the Frobenius norms.  Criticality within
    ``tol * scale`` allows each entry phase to sit off a multiple of pi
    by about ``tol * scale / |product|``, so the flux test gets that
    slack before concluding the invariant is broken.  The test is
    monotone in its tolerance, so one run at the larger of ``FLUX_TOL``
    and the slack decides.
    """
    m = graph.num_edges
    floor = np.min(np.abs(products.real), axis=1) if m \
        else np.ones(len(products))
    slack = np.divide(m * tol * scale, floor, out=np.zeros_like(floor),
                      where=floor > 0.0)
    if np.any(flux_defects(graph, entry_phases(offdiag))
              > np.maximum(FLUX_TOL, slack)):
        raise InternalCrossCheckError(
            "critical point with a simple eigenvalue and nowhere-"
            "vanishing eigenvector must be phase-equivalent to a real "
            "matrix, but the cycle fluxes are not multiples of pi")


def hessian_eigenvalue(p: TorusPoint, k: int) -> np.ndarray:
    """Eigenvalue Hessian on the gauge-slice coordinates.

    Entry ``(i, j)`` couples unit angle directions on non-forest edges
    ``i`` and ``j``.  Second-order perturbation theory gives it at any
    simple eigenvalue, critical or not.  Each direction perturbs the
    operator on a single edge; the first-order eigenvector responses
    come from one solve against the spectral pseudo-inverse, and equal
    directions pick up the diagonal frozen-form term.  The result is
    symmetrized after an asymmetry check against ``HESSIAN_SYM_TOL``.
    """
    s, _ = _checked(p.operator(), k)
    return _hessian(s, p.graph.spanning_forest, DEGENERACY_TOL)[0]


def _hessian(s: _Solves, forest: SpanningForest, tol_degeneracy: float
             ) -> np.ndarray:
    """``hessian_eigenvalue`` of every row of a stack, shape (S, d, d).

    Each row sees the arithmetic of a single solve: the batched matrix
    products call the same BLAS kernel per row.
    """
    graph, idx = forest.graph, forest.nonforest
    count, k, d = len(s.values), s.k, len(idx)
    if d == 0:
        return np.zeros((count, 0, 0))
    rs = graph.endpoints[idx]
    cols = np.arange(d)
    v = s.vectors[:, :, k - 1]
    lam = s.values[:, k - 1]
    hrs = s.offdiag[:, idx]
    W = np.zeros((count, graph.n, d), dtype=np.complex128)
    W[:, rs[:, 0], cols] = 1j * hrs * v[:, rs[:, 1]]
    W[:, rs[:, 1], cols] = -1j * np.conj(hrs) * v[:, rs[:, 0]]
    # Pseudo-inverse of h - lam on every column at once, without the
    # cluster at lam.
    shift = s.values - lam[:, None]
    inv = np.divide(1.0, shift, out=np.zeros_like(shift),
                    where=~cluster_mask(s.values, lam, tol_degeneracy))
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


def morse_index(hess: np.ndarray) -> tuple[int, int]:
    """Count of negative and of near-zero Hessian eigenvalues.

    The zero band is ``RANK_TOL``, read when it runs, times the largest
    magnitude eigenvalue; for the zero matrix everything is nullity.
    """
    _, index, nullity = _morse_indices(
        np.asarray(hess, dtype=np.float64)[None], RANK_TOL)
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
    w = eigvalsh_dense(0.5 * (hess + hess.swapaxes(1, 2)))
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
        """Every field by name, with tuples as lists."""
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(v) if isinstance(v, tuple) else v
                for name, v in items}


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


def _first_of_clusters(xs: np.ndarray, radii: np.ndarray,
                       known: np.ndarray) -> list[int]:
    """Indices of the first landing point of each cluster among the rows
    of ``xs`` (S, d): a row is dropped within its radius in ``radii`` (S,)
    of a ``known`` point, or within the larger radius of a kept row."""
    kept: list[int] = []
    for i, (x, radius) in enumerate(zip(xs, radii.tolist())):
        if not (np.any(_torus_distance(x, known) <= radius)
                or np.any(_torus_distance(x, xs[kept])
                          <= np.maximum(radius, radii[kept]))):
            kept.append(i)
    return kept


def _halton(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the Halton sequence in ``[0, 1)^dim``."""
    def primes(k: int) -> list[int]:
        out, cand = [], 2
        while len(out) < k:
            if all(cand % q for q in out):
                out.append(cand)
            cand += 1
        return out

    points = np.zeros((count, dim))
    for j, b in enumerate(primes(dim)):
        f, x = 1.0, np.arange(1, count + 1)
        while x.any():  # one digit of every index; a spent one adds 0
            f /= b
            points[:, j] += f * (x % b)
            x //= b
    return points


def _reports_at(coords: np.ndarray, base: SupportedMatrix, s: _Solves,
                forest: SpanningForest, origin: str, *,
                checks: _StackChecks | None = None, tol_degeneracy: float,
                tol_vanish: float) -> list[CriticalPointReport]:
    """One report per row of ``s``, the solve at gauge-slice coordinates
    ``coords`` (S, d) of an operator over ``base``.

    The admissibility kernel decides simplicity, vanishing entries and
    criticality for every row at once, at the tolerances ``tol_*`` and
    the kernel's default realness cut, in ``checks`` or else at each
    row's norm, read at k.  A row whose k-th eigenvalue is not simple is
    ``incorrigible``; every other row is classified from those masks by
    ``_kinds``, and its symmetry cross-check, gradient norm and Hessian
    are stacked too: the Hessians are assembled as one stack, and their
    spectra, indices and nullities, at ``RANK_TOL``, come from one
    stacked solve.
    """
    k, scale = s.k, frobenius_norms(base.diag, s.offdiag)
    if checks is None:
        checks = s.checks(base.graph, scale, tol_degeneracy=tol_degeneracy,
                          tol_vanish=tol_vanish)
    simple, vanishing = checks.simple[:, k - 1], checks.vanishing[:, k - 1]
    kinds = _kinds(s, scale, checks)
    rows = np.flatnonzero(simple)
    grad = (-2.0 * s.products[rows].imag)[:, forest.nonforest]
    gnorm = np.sqrt(_squares(grad))
    spectra, index, nullity = _morse_indices(
        _hessian(s.take(rows), forest, tol_degeneracy), RANK_TOL)
    points = [tuple(x) for x in coords.tolist()]
    reports: list = [None] * len(points)
    bad = np.flatnonzero(~simple)
    for i, m in zip(bad.tolist(), checks.multiplicity(bad, k - 1).tolist()):
        reports[i] = CriticalPointReport(points[i], k, "incorrigible", m, (),
                                         None, None, None, None, origin)
    for j, i in enumerate(rows.tolist()):
        reports[i] = CriticalPointReport(
            points[i], k, kinds[i], 1,
            tuple(np.flatnonzero(vanishing[i]).tolist()), float(gnorm[j]),
            tuple(spectra[j].tolist()), int(index[j]), int(nullity[j]),
            origin)
    return reports


def _squares(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of ``x`` (S, d), with the bits of
    ``x[i] @ x[i]`` for a contiguous copy of the row, and so of
    ``np.linalg.norm(x[i]) ** 2`` before the root.

    The batched product runs one dot product per row.  A dot product's
    bits depend on the stride of its operands, and a column selection
    such as ``a[:, idx]`` leaves strided rows, so the rows are laid out
    contiguously first, as a vector built on its own is.
    """
    x = np.ascontiguousarray(x)
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _offdiag_at(base: SupportedMatrix, forest: SpanningForest,
                coords: np.ndarray) -> np.ndarray:
    """Edge entries (S, m) of the operators at slice coordinates (S, d).

    Row by row these are the bits of ``TorusPoint(base,
    angles).operator().offdiag``, with ``angles`` holding ``coords[i]``
    at the non-forest positions and 0 elsewhere.
    """
    angles = np.zeros((len(coords), base.graph.num_edges))
    angles[:, forest.nonforest] = coords
    return base.offdiag * unit_phases(np.mod(angles, TWO_PI))


# Phases of a start in ``_polish``: the live ones, then its outcomes.
_START, _LINE, _FINAL, _OK, _DEGENERATE, _STUCK, _MAXITER = range(7)


def _polish(base: SupportedMatrix, forest: SpanningForest, k: int,
            starts: np.ndarray, gtol: float, tol_degeneracy: float
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Solves]:
    """Drive the gauge-slice gradient to zero from every row of ``starts``.

    Per start: damped Newton steps on the gradient map, with the
    analytic eigenvalue Hessian as Jacobian and backtracking on the
    squared norm; every trial point costs one eigensolve, shared by its
    gradient and Hessian.  Returns per start an outcome (``_OK``,
    ``_DEGENERATE``, ``_STUCK`` or ``_MAXITER``), the final coordinates
    and an auxiliary number, and one solve stack whose row of a
    converged start is the solve at its final coordinates.  The number
    is the eigenvalue gap of a degenerate start, read from the
    eigensystem that failed the simplicity check, the last Newton
    decrement of a converged one, and 0 otherwise.  A small residual
    gradient over a nearly flat Hessian still means a sizable position
    error, and the decrement is what bounds it.

    The starts run in lockstep, one round per trial point of every live
    start.  The eigensolve and the edge products (one complex stack),
    the simplicity check at k, the gradients, the phase decisions
    (masks over the round), one stack of Newton Hessians and one
    least-squares call (``_lstsq``) run once per round.  Each round
    writes into the solve stack the solves it holds: that of a start
    entering its final check, and that of a kept final step.  So each
    start follows the one-start trajectory bit for bit.
    """
    graph, idx = base.graph, forest.nonforest
    count, n, m = len(starts), graph.n, graph.num_edges
    x = np.mod(starts, TWO_PI)       # current point, then the outcome's
    trial = x.copy()                 # point solved in the next round
    g = np.zeros_like(x)             # gradient at x
    delta = np.zeros_like(x)         # Newton step from x
    t = np.ones(count)               # step length of the trial
    f0 = np.zeros(count)             # squared gradient norm at x
    aux = np.zeros(count)            # Newton decrement or eigenvalue gap
    newton = np.zeros(count, dtype=np.int64)
    phase = np.full(count, _START)
    c = np.complex128
    solves = _Solves(np.zeros((count, m), c), np.zeros((count, n)),
                     np.zeros((count, n, n), c), k, np.zeros((count, m), c))
    while (r := np.flatnonzero(phase < _OK)).size:
        off = _offdiag_at(base, forest, trial[r])
        s = _Solves.at(graph, off, *eigh_stack(graph, base.diag, off), k)
        w = s.values
        others = cluster_mask(w, w[:, k - 1], tol_degeneracy)
        others[:, k - 1] = False  # the rest of the cluster at lambda_k
        simple = ~np.any(others, axis=1)
        gn = (-2.0 * s.products.imag)[:, idx]
        sq = _squares(gn)
        at = phase[r]
        final = at == _FINAL
        # keep the last Newton step only if it lowers the gradient
        kept = np.flatnonzero(final & simple
                              & (np.sqrt(sq) < np.sqrt(_squares(g[r]))))
        x[r[kept]] = trial[r[kept]]
        degenerate = np.flatnonzero(~final & ~simple)
        x[r[degenerate]] = trial[r[degenerate]]
        # the nearest other eigenvalue, which lies in the cluster
        aux[r[degenerate]] = np.min(
            np.abs(w[degenerate] - w[degenerate, k - 1:k]), axis=1,
            where=others[degenerate], initial=np.inf)
        rejected = (simple & (at == _LINE)
                    & ~(sq < f0[r] * (1.0 - 0.25 * t[r]) + 1e-300))
        back = r[rejected]
        t[back] *= 0.5
        stuck = back[t[back] < 2.0 ** -12]
        # the start itself or an accepted step
        accepted = np.flatnonzero(~final & simple & ~rejected)
        a = r[accepted]
        x[a], g[a] = trial[a], gn[accepted]
        maxed = newton[a] == 60
        phase[r[final]], phase[r[degenerate]] = _OK, _DEGENERATE
        phase[stuck], phase[a[maxed]] = _STUCK, _MAXITER
        moved, held = accepted[~maxed], kept  # held: final solves so far
        if moved.size:
            i = r[moved]
            newton[i] += 1
            delta[i] = _lstsq(_hessian(s.take(moved), forest, tol_degeneracy),
                              -g[i])
            t[i] = 1.0
            done = np.max(np.abs(g[i]), axis=1) <= gtol
            phase[i] = np.where(done, _FINAL, _LINE)
            aux[i[done]] = np.sqrt(_squares(delta[i[done]]))
            f0[i[~done]] = _squares(g[i[~done]])
            held = np.concatenate([kept, moved[done]])
        solves.put(r[held], s.take(held))
        live = r[phase[r] < _OK]
        trial[live] = np.mod(x[live] + t[live, None] * delta[live], TWO_PI)
    return phase, x, aux, solves


def _symmetry_blocks(base: SupportedMatrix, **tols):
    """Per block of ``nodal._class_blocks`` over the symmetry points,
    checked at the tolerances ``tols``, their bits (S, d) and the block.

    A point has coordinate ``pi`` where its bit is 1, in
    ``itertools.product`` order (the last bit varies fastest): the id
    order of the classes with the non-forest edges listed backwards.
    The first is the base matrix.  ``gauge_classes_of_signings`` refuses
    a beta over ``SIGNING_CAP`` before the first block is solved.
    """
    classes = gauge_classes_of_signings(base)
    backwards = replace(classes, nonforest=classes.nonforest[::-1])
    for block in _class_blocks(base, backwards, **tols):
        yield (1 - block[0][:, classes.nonforest]) >> 1, block


def critical_scan(h: SupportedMatrix, k: int, *, starts: int = 64,
                  seed: int = 0, tol_degeneracy: float = DEGENERACY_TOL,
                  tol_vanish: float = VANISH_TOL) -> ScanResult:
    """Enumerate symmetry points and search for further critical points.

    All ``2**beta`` symmetry classes are visited exactly (coordinates
    in {0, pi}), in blocks of ``nodal.SWEEP_CHUNK``; on top of that a
    low-discrepancy grid and ``starts`` seeded random starts are
    polished toward gradient zeros.  Found points are deduplicated
    against each other and against conjugate partners.  The search side
    is best effort only and the coverage note says so.  A complex ``h``
    (``AdmissibilityError``), a ``k`` outside ``1..n`` (``ValueError``),
    a zero edge entry (``NotProperlySupportedError``) and a beta over
    ``SIGNING_CAP`` (``CapExceededError``) raise before anything is solved.
    """
    if not h.is_real:
        raise AdmissibilityError(
            "the scan sweeps the torus over a real base matrix; this "
            "operator has complex entries")
    _check_k(k, h.graph.n)
    entry_phases(h.offdiag)  # refuses a zero edge entry, which has no phase
    base = abs_part(h)
    forest = h.graph.spanning_forest
    beta = len(forest.nonforest)

    tols = dict(tol_degeneracy=tol_degeneracy, tol_vanish=tol_vanish)
    reports, known = [], []
    for bits, (_, off, vectors, checks) in _symmetry_blocks(base, **tols):
        if not known:
            # the base matrix, the first point, sets the gradient tolerance
            gtol = 1e-10 * max(1.0, float(np.max(np.abs(checks.values[0]))))
        known.append(np.where(bits == 1, np.pi, 0.0))
        reports += _reports_at(
            known[-1], base, _Solves(off, checks.values, vectors, k,
                                     checks.products[:, k - 1]),
            forest, "symmetry-enumeration", checks=checks, **tols)
    known = np.concatenate(known)
    incorrigible, unconverged, attempted = [], 0, 0
    if beta > 0:
        grid = _halton(min(128, max(8, 2 ** beta)), beta) * TWO_PI
        rng = np.random.default_rng(seed)
        random_starts = rng.uniform(0.0, TWO_PI, size=(starts, beta))
        status, xs, auxs, solves = _polish(
            base, forest, k, np.vstack([grid, random_starts]), gtol,
            tol_degeneracy)
        attempted = len(status)
        unconverged = int(np.count_nonzero(status > _DEGENERATE))
        stuck = np.flatnonzero(status == _DEGENERATE)
        stuck = stuck[_first_of_clusters(
            xs[stuck], np.full(stuck.size, DEDUP_TOL), known[:0])]
        incorrigible = list(zip(map(tuple, xs[stuck].tolist()),
                                auxs[stuck].tolist()))
        ok = np.flatnonzero(status == _OK)
        # a NaN decrement gives the radius DEDUP_TOL
        radii = np.fmax(DEDUP_TOL, 10.0 * auxs[ok])
        kept = _first_of_clusters(xs[ok], radii, known)
        found, fx, fr = ok[kept], xs[ok[kept]], radii[kept]
        # pair conjugates; the one found first is the primary report
        consumed = np.zeros(len(found), dtype=bool)
        primaries, partners = [], []
        for i in range(len(found)):
            if consumed[i]:
                continue
            close = (_torus_distance(np.mod(-fx[i], TWO_PI), fx[i + 1:])
                     <= np.maximum(fr[i], fr[i + 1:])) & ~consumed[i + 1:]
            partner = i + 1 + np.flatnonzero(close)[:1]  # the first, if any
            consumed[partner] = True
            primaries.append(i)
            partners.append(partner)
        if primaries:
            search = _reports_at(np.mod(fx[primaries], TWO_PI), base,
                                 solves.take(found[primaries]), forest,
                                 "search", **tols)
            reports += [replace(r, conjugate_of=tuple(fx[p[0]].tolist()))
                        if p.size else r for r, p in zip(search, partners)]

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


def _skip_reason(exc: AdmissibilityError) -> str:
    """The reason a verification row gives for a pair failing with ``exc``."""
    return (f"multiplicity {exc.multiplicity}"
            if isinstance(exc, NonSimpleEigenvalueError) else
            f"vanishes at {list(exc.vertices)}"
            if isinstance(exc, VanishingEigenvectorError) else str(exc))


def verify_index_equals_surplus(h: SupportedMatrix, *,
                                tol_degeneracy: float = DEGENERACY_TOL,
                                tol_vanish: float = VANISH_TOL
                                ) -> IndexSurplusTable:
    """Check Morse index equals nodal surplus over all symmetry classes.

    Every switching class is represented by the gauge-slice point with
    coordinates in {0, pi}.  For each admissible pair (class, k) the
    eigenvalue Hessian must be nondegenerate, its nullity cut at
    ``RANK_TOL``, read when it runs, with index equal to the nodal
    surplus; a violation raises, at the first failing pair in
    class-major order, ``InternalCrossCheckError`` on a connected graph
    and ``AdmissibilityError`` on a disconnected one, where the identity
    is no theorem.  Inadmissible pairs are recorded as skipped with the
    reason.  The classes are solved in blocks of ``nodal.SWEEP_CHUNK``.
    One admissibility kernel call decides every pair of a block, and its
    masks word the skip reasons and the bound check's error, raised at
    the block's first pair out of bounds.  A block's Hessians are
    assembled as one stack per k, and their indices come from one
    stacked solve.  A complex ``h`` raises ``AdmissibilityError``, and
    a beta over ``SIGNING_CAP`` raises ``CapExceededError``, before
    anything is solved.
    """
    if not h.is_real:
        raise AdmissibilityError(
            "index-versus-surplus verification runs over the signings of a "
            "real matrix; this operator has complex entries")
    base = abs_part(h)
    forest = h.graph.spanning_forest
    fault, scope = ((InternalCrossCheckError, "")
                    if num_components(h.graph) == 1 else
                    (AdmissibilityError, "; the index-surplus identity "
                     "holds on connected graphs only"))
    rows = []
    for bits, (_, off, vectors, checks) in _symmetry_blocks(
            base, tol_degeneracy=tol_degeneracy, tol_vanish=tol_vanish):
        admissible, surplus = ~checks.failed, checks.surplus
        if np.any(checks.out_of_bounds):
            raise checks.error(*np.argwhere(checks.out_of_bounds)[0])
        classes = [tuple(b) for b in bits.tolist()]
        index, nullity = np.zeros_like(surplus), np.zeros_like(surplus)
        # each k's Hessians read the products its checks were made on
        hessians = [_hessian(_Solves(off, checks.values, vectors, j + 1,
                                     checks.products[:, j]).take(col),
                             forest, tol_degeneracy)
                    for j, col in enumerate(admissible.T) if np.any(col)]
        if hessians:
            # k-major, as the stacks; the transposed masks keep that order
            _, index.T[admissible.T], nullity.T[admissible.T] = \
                _morse_indices(np.concatenate(hessians), RANK_TOL)
        wrong = admissible & ((nullity != 0) | (index != surplus))
        if np.any(wrong):
            c, j = np.unravel_index(np.argmax(wrong), wrong.shape)
            if nullity[c, j] != 0:
                raise fault(
                    f"Hessian at class {classes[c]}, k={j + 1} is degenerate "
                    f"(nullity {nullity[c, j]}); the index comparison needs "
                    f"a nondegenerate critical point{scope}")
            raise fault(
                f"Morse index {index[c, j]} differs from nodal surplus "
                f"{surplus[c, j]} at class {classes[c]}, k={j + 1}{scope}")
        for c, (b, ok, sc, ic, nc) in enumerate(zip(
                classes, admissible.tolist(), surplus.tolist(),
                index.tolist(), nullity.tolist())):
            rows += [VerifyRow(b, j + 1, "ok", surplus=sj, index=ij,
                               nullity=nj)
                     if okj else VerifyRow(b, j + 1, "skipped", reason=(
                         _skip_reason(checks.error(c, j))))
                     for j, (okj, sj, ij, nj) in enumerate(
                         zip(ok, sc, ic, nc))]
    return IndexSurplusTable(tuple(rows))
