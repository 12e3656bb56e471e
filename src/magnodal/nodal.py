"""Nodal edge counts and surplus statistics over signings.

The nodal count of an eigenvector is the number of edges on which the
product ``conj(v_r) h_rs v_s`` is positive; ``edge_products`` is the one
place these products are formed.  At real matrices, and more
generally at critical points of the eigenvalue, these products are
real; the count then exceeds ``k - 1`` by a surplus between 0 and the
number of independent cycles.  Averaging the surplus over all signings
of a real matrix gives the distribution the rest of the library keeps
poking at from different directions.

Every admissibility decision of the package comes from one kernel,
``_stack_checks``, run on the solves of a stack of operators.  It
decides for every row and every eigenvalue position at once whether
the eigenvalue is simple, which eigenvector entries vanish, whether
the edge products are real and which are too close to zero to carry a
sign, and its masks word every error (``_StackChecks.error``); a
caller at one position k reads column ``k - 1``.  Its callers set the
degeneracy and vanishing cuts; the realness and product cuts,
``PRODUCT_REAL_TOL`` and ``PRODUCT_DEGENERATE_TOL``, are read when it
runs.  Its one entry is ``position_checks``: a class block, the scan's
search points (``_Solves.checks``) and a single operator, solved as a
stack of one (``_checked``), all go through it.  Only ``nodal_count``
and ``nodal_surplus`` take an eigensystem from their caller; every
other single-point computation of the package solves the operator it
reads.  The surplus bounds are a theorem on connected graphs; on a
disconnected graph a count outside them is inadmissible, not an
internal fault.

The signing average solves one representative per switching class, the
member that leaves the spanning forest unflipped.  ``_class_blocks`` is
the package's one walk over the classes: per block of ``SWEEP_CHUNK``
ids it builds the sign rows, makes one stacked real eigensolve and one
``position_checks`` call, and yields the block checked at every
position.  The class sum walks it in id order; ``morse``'s scan and
index check walk it in symmetry-point order.  ``position_checks``
lays the block's eigenvectors out vertex-major once, so
``edge_products`` gathers whole blocks and returns the products
edge-major; every mask then has its vertex or edge axis outermost, and
the verdicts (one pass per mask) and positive counts reduce over it in
long runs, into machine-word counts that cannot wrap.  A block in which
every pair passes goes into the histogram with one ``bincount``.
It runs in real arithmetic: its products ``v_r (h_rs * sign) v_s``
carry the bits of the real parts of the complex ones (every imaginary
factor is an exact zero and a sign flip is exact), up to the signs of
zeros, which no check reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AdmissibilityError,
    CapExceededError,
    DegenerateDistributionError,
    DegenerateEdgeProductError,
    EdgeProductNotRealError,
    InadmissibleSigningError,
    InternalCrossCheckError,
    MagnodalError,
    NonSimpleEigenvalueError,
    VanishingEigenvectorError,
)
from .graphs import Graph, betti_number, num_components
from .operators import (
    SigningClasses,
    SupportedMatrix,
    dense_matrices,
    gauge_classes_of_signings,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    EigenSystem,
    _check_k,
    cluster_mask,
    eigh,
    eigh_dense,
    simple_positions,
)

#: Edge products must be real within this times the matrix norm.
PRODUCT_REAL_TOL = 1e-9

#: Edge products closer to zero than this times the matrix norm have no sign.
PRODUCT_DEGENERATE_TOL = 1e-12


def edge_products(graph: Graph, offdiag: np.ndarray, v: np.ndarray
                  ) -> np.ndarray:
    """The products ``conj(v_r) h_rs v_s`` per canonical edge of
    ``graph``, for the edge entries ``offdiag`` (..., m) of ``h`` and
    the vectors ``v`` (..., n), whose leading axes broadcast.

    The one place the package forms them.  Real vectors are not
    conjugated, so real entries give real products.  The gather runs on
    the vertex axis moved first, so a stack laid out vertex-major in
    memory copies whole blocks, and the products come back laid out
    edge-major.
    """
    rs = graph.endpoints
    offdiag = np.asarray(offdiag)
    pad = offdiag.ndim - v.ndim
    v, offdiag = v[(None,) * pad].T, offdiag[(None,) * -pad].T
    head = v[rs[:, 0]]
    if np.iscomplexobj(head):
        head = np.conj(head)
    return (head * offdiag * v[rs[:, 1]]).T


@dataclass(frozen=True, eq=False)
class _Solves:
    """Solves of a stack of operators on one graph, one per row.

    ``offdiag`` (S, m) holds each operator's edge entries, ``values``
    (S, n) and ``vectors`` (S, n, n) its ascending eigenvalues and
    eigenvector columns, and ``products`` (S, m) the edge products of
    its k-th eigenvector.  The vectors are real for real operators in
    the class blocks and in ``_checked``, and complex in the Newton
    polish, whose solver takes the complex path for every operator.
    """

    offdiag: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    k: int
    products: np.ndarray

    @classmethod
    def at(cls, graph: Graph, offdiag: np.ndarray, values: np.ndarray,
           vectors: np.ndarray, k: int) -> "_Solves":
        """The solves of the operators with edge entries ``offdiag``,
        with the edge products of their k-th eigenvectors."""
        return cls(offdiag, values, vectors, k,
                   edge_products(graph, offdiag, vectors[:, :, k - 1]))

    def take(self, rows) -> "_Solves":
        return _Solves(self.offdiag[rows], self.values[rows],
                       self.vectors[rows], self.k, self.products[rows])

    def put(self, rows, s: "_Solves") -> None:
        self.offdiag[rows], self.values[rows] = s.offdiag, s.values
        self.vectors[rows], self.products[rows] = s.vectors, s.products

    def checks(self, graph: Graph, scale, **tols) -> "_StackChecks":
        """The kernel at every position of every row, at norm ``scale``;
        column ``k - 1`` checks this stack's ``products``."""
        return position_checks(graph, self.offdiag, self.values,
                               self.vectors, scale, **tols)


@dataclass(eq=False)  # a frozen one sets each field through a call
class _StackChecks:
    """The kernel's checks of ``values`` (S, n) and ``products``
    (S, n, m) at every eigenvalue position of operators on ``graph``;
    column ``k - 1`` holds position k.

    ``simple`` and ``flat`` (S, n) mark a simple eigenvalue and edge
    products real within ``tol_real``, ``vanishing`` (S, n, n) the
    vanishing eigenvector entries, ``unresolved`` (S, n, m) the products
    too close to zero to carry a sign, and ``surplus`` (S, n) is the
    positive-product count minus ``k - 1``.  ``unbounded`` and
    ``inadmissible`` are cached on first read, so no field is reassigned
    after construction.
    """

    values: np.ndarray
    products: np.ndarray
    graph: Graph
    beta: int
    tol_degeneracy: float
    tol_real: float
    simple: np.ndarray
    vanishing: np.ndarray
    flat: np.ndarray
    unresolved: np.ndarray
    surplus: np.ndarray

    @cached_property
    def unbounded(self) -> np.ndarray:
        """Pairs whose surplus lies outside ``[0, beta]`` (read unsigned)."""
        return self.surplus.view(np.uintp) > self.beta

    @cached_property
    def inadmissible(self) -> np.ndarray:
        """Pairs on which ``nodal_count`` raises an ``AdmissibilityError``."""
        bad = ~self.simple
        bad |= self.vanishing.any(axis=2)
        if np.iscomplexobj(self.products):
            bad |= ~self.flat
        bad |= self.unresolved.any(axis=2)
        if num_components(self.graph) > 1:
            bad |= self.unbounded
        return bad

    @property
    def out_of_bounds(self) -> np.ndarray:
        """Admissible pairs whose surplus lies outside ``[0, beta]``."""
        return ~self.inadmissible & self.unbounded

    @property
    def failed(self) -> np.ndarray:
        return self.inadmissible | self.unbounded

    def multiplicity(self, rows, col: int):
        """``spectral.multiplicity`` at column ``col`` of ``rows``."""
        values = self.values[rows]
        return np.count_nonzero(cluster_mask(
            values, values[..., col], self.tol_degeneracy), axis=-1)

    def error(self, row: int, col: int) -> MagnodalError | None:
        """The error of the pair (``row``, ``col``), or ``None`` when it
        passes: that of its first failing check, in the order of the
        masks; a failed bound is internal only on a connected graph."""
        k = col + 1
        if not self.simple[row, col]:
            m = int(self.multiplicity(row, col))
            return NonSimpleEigenvalueError(
                f"eigenvalue {k} has multiplicity {m}; it must be simple",
                k=k, multiplicity=m)
        vanishing = np.flatnonzero(self.vanishing[row, col]).tolist()
        if vanishing:
            return VanishingEigenvectorError(
                f"eigenvector {k} vanishes at vertices {vanishing}",
                vertices=vanishing)
        if not self.flat[row, col]:
            worst = float(np.max(np.abs(self.products[row, col].imag)))
            return EdgeProductNotRealError(
                f"edge products for eigenvector {k} are not real "
                f"(max imaginary part {worst:.3e}); the matrix is not at a "
                f"critical point")
        unresolved = np.flatnonzero(self.unresolved[row, col]).tolist()
        if unresolved:
            bad = [self.graph.edges[i] for i in unresolved]
            return DegenerateEdgeProductError(
                f"edge products too close to zero on edges {bad}", edges=bad)
        if self.unbounded[row, col]:
            count, beta = int(self.surplus[row, col]) + k - 1, self.beta
            bounds = f"[{k - 1}, {k - 1 + beta}] for k={k}, beta={beta}"
            if num_components(self.graph) > 1:
                return AdmissibilityError(
                    f"nodal count {count} lies outside the bounds {bounds}, "
                    f"which hold on connected graphs only")
            return InternalCrossCheckError(
                f"nodal count {count} violates the bounds {bounds}")
        return None


def _stack_checks(values: np.ndarray, vectors: np.ndarray,
                  products: np.ndarray, scale, graph: Graph, *,
                  tol_degeneracy: float = DEGENERACY_TOL,
                  tol_vanish: float = VANISH_TOL) -> _StackChecks:
    """The admissibility kernel, the one place where the vanishing,
    realness and product tolerances cut.  The realness and product
    cuts are ``PRODUCT_REAL_TOL`` and ``PRODUCT_DEGENERATE_TOL``, read
    when it runs; ``tol_real`` of the result is the realness cut used.

    ``values`` (S, n) are the ascending spectra of S operators on
    ``graph``, ``vectors`` (S, n, n) and ``products`` (S, n, m) the
    eigenvectors and edge products at every position, and ``scale`` the
    Frobenius norm, one for all rows or one per row.  Real ``products``
    pass the realness check untested; ``unbounded`` and ``inadmissible``
    are formed once, on first read, one array pass per mask, and
    ``failed`` and ``out_of_bounds`` from them.
    """
    scale = np.asarray(scale, dtype=np.float64)[..., None, None]
    flat = (~(np.abs(products.imag) > PRODUCT_REAL_TOL * scale).any(axis=2)
            if np.iscomplexobj(products)
            else np.ones(products.shape[:2], dtype=bool))
    return _StackChecks(
        values, products, graph, betti_number(graph), tol_degeneracy,
        PRODUCT_REAL_TOL, simple_positions(values, tol_degeneracy),
        np.abs(vectors) < tol_vanish,
        flat,
        np.abs(products.real) < PRODUCT_DEGENERATE_TOL * scale,
        np.add.reduce(products.real > 0.0, axis=2, dtype=np.intp)
        - np.arange(values.shape[1]))


def _checked(h: SupportedMatrix, k: int, es: EigenSystem | None = None,
             **tols) -> tuple[_Solves, _StackChecks]:
    """The solve of ``h`` (from ``es`` when given) as a stack of one,
    with the products of its k-th eigenvector, and the kernel's checks
    at every position.  Raises the kernel's error when the k-th
    eigenvalue is not simple, and ``ValueError`` for a ``k`` outside
    ``1..n``."""
    _check_k(k, h.graph.n)
    if es is None:
        es = eigh(h)
    checks = position_checks(h.graph, h.offdiag[None], es.values[None],
                             es.vectors[None], h.norm_fro, **tols)
    if not checks.simple[0, k - 1]:
        raise checks.error(0, k - 1)
    return _Solves(h.offdiag[None], checks.values, es.vectors[None], k,
                   checks.products[:, k - 1]), checks


def nodal_count(h: SupportedMatrix, k: int, *,
                es: EigenSystem | None = None,
                tol_degeneracy: float = DEGENERACY_TOL,
                tol_vanish: float = VANISH_TOL) -> int:
    """Number of edges with a positive edge product for eigenvector k.

    The eigenvalue must be simple, the eigenvector nowhere vanishing,
    and every edge product real and bounded away from zero; each
    failure raises its own error type.  The count lands in ``[k - 1,
    k - 1 + beta]``, or ``InternalCrossCheckError`` is raised on a
    connected graph and ``AdmissibilityError`` on a disconnected one.
    """
    _, checks = _checked(h, k, es, tol_degeneracy=tol_degeneracy,
                         tol_vanish=tol_vanish)
    error = checks.error(0, k - 1)
    if error is not None:
        raise error
    return int(checks.surplus[0, k - 1]) + k - 1


def nodal_surplus(h: SupportedMatrix, k: int, *,
                  es: EigenSystem | None = None,
                  tol_degeneracy: float = DEGENERACY_TOL,
                  tol_vanish: float = VANISH_TOL) -> int:
    """Nodal count minus ``k - 1``; in ``[0, beta]`` on connected graphs."""
    return nodal_count(h, k, es=es, tol_degeneracy=tol_degeneracy,
                       tol_vanish=tol_vanish) - (k - 1)


@dataclass(frozen=True, eq=False)
class SurplusDistribution:
    """Histogram of surplus values with exact integer counts."""

    betti: int
    counts: np.ndarray
    n_samples: int
    skipped: int = 0

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        if c.shape != (self.betti + 1,):
            raise ValueError("count vector must have beta + 1 entries")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        if int(c.sum()) != self.n_samples:
            raise ValueError("counts do not sum to the sample count")

    @cached_property
    def probs(self) -> np.ndarray:
        """Exact ratios of the counts, read-only and divided once; an
        empty histogram has none."""
        if self.n_samples == 0:
            raise DegenerateDistributionError(
                "distribution has no samples; probabilities are undefined")
        p = self.counts / float(self.n_samples)
        p.setflags(write=False)
        return p

    @cached_property
    def mean(self) -> float:
        s = np.arange(self.betti + 1)
        return float(np.dot(s, self.probs))

    @property
    def variance(self) -> float:
        s = np.arange(self.betti + 1)
        return float(np.dot((s - self.mean) ** 2, self.probs))


def position_checks(graph: Graph, offdiag: np.ndarray, values: np.ndarray,
                    vectors: np.ndarray, scale, *,
                    tol_degeneracy: float = DEGENERACY_TOL,
                    tol_vanish: float = VANISH_TOL) -> _StackChecks:
    """The kernel at every eigenvalue position of a stack of operators
    on ``graph``: edge entries ``offdiag`` (S, m), eigenvalues ``values``
    (S, n), eigenvector columns ``vectors`` (S, n, n) and Frobenius norm
    ``scale``, one for all rows or one per row.  The kernel's one entry:
    a single operator, a class block, a stack of search points."""
    # (row, k, vertex), laid out vertex-major: the gather copies whole
    # blocks, and the masks reduce over their outermost axis
    vectors = np.ascontiguousarray(vectors.transpose(1, 2, 0)).T
    return _stack_checks(values, vectors,
                         edge_products(graph, offdiag[:, None], vectors),
                         scale, graph, tol_degeneracy=tol_degeneracy,
                         tol_vanish=tol_vanish)


#: Classes per block of ``_class_blocks``: it holds ``SWEEP_CHUNK * n * n``
#: floats of matrices and as many of eigenvectors, so it stays small.
SWEEP_CHUNK = 256


def _class_blocks(h: SupportedMatrix, classes: SigningClasses, **tols):
    """The package's one walk over the switching ``classes`` of the real
    ``h``: per block of at most ``SWEEP_CHUNK`` ids, in id order, the
    representatives' sign rows and real edge entries (S, m), eigenvector
    columns (S, n, n) from one stacked real eigensolve, and the checks
    at ``tols`` of one ``position_checks`` call, whose ``values`` are
    the eigenvalues.  No sign is normalized: it changes no bit of what
    is read from a real eigenvector."""
    total = classes.num_classes
    for lo in range(0, total, SWEEP_CHUNK):
        rows = classes.rows(np.arange(lo, min(lo + SWEEP_CHUNK, total)))
        offdiag = h.offdiag.real * rows
        values, vectors = eigh_dense(dense_matrices(h.graph, h.diag, offdiag))
        yield rows, offdiag, vectors, position_checks(
            h.graph, offdiag, values, vectors, h.norm_fro, **tols)


def _surplus_counts(h: SupportedMatrix, classes: SigningClasses,
                    skip_inadmissible: bool, **tols) -> tuple[np.ndarray, int]:
    """Surplus histogram of the signings of ``h`` over its ``classes``,
    solved in id order, a block at a time.

    Each block is checked at the tolerances ``tols``.  A class's
    surpluses count ``class_size`` times only when every k passes.  A
    class that fails is counted as ``class_size`` skipped signings or,
    when not skipping, the first one raises ``InadmissibleSigningError``
    at its first failing k.  A surplus out of bounds there raises the
    bound check's error even when skipping.  Both errors are worded from
    the block's masks.  Every product on a zero edge entry is a zero:
    when the kernel leaves one unresolved, skipping drops every class.
    """
    beta, weight = betti_number(h.graph), classes.class_size
    counts = np.zeros(beta + 1, dtype=np.int64)
    skipped = 0
    n, m = h.graph.n, h.graph.num_edges
    if skip_inadmissible and not h.offdiag.all() and position_checks(
            h.graph, np.zeros((1, m)), np.zeros((1, n)), np.ones((1, n, n)),
            h.norm_fro, **tols).unresolved.all():
        return counts, weight * classes.num_classes
    for rows, _, _, checks in _class_blocks(h, classes, **tols):
        failed = checks.failed
        if not failed.any():
            counts += weight * np.bincount(checks.surplus.ravel("K"),
                                           minlength=beta + 1)
            continue
        failing = failed.any(axis=1)
        first = np.argmax(failed, axis=1)
        raising = (checks.out_of_bounds[np.arange(len(rows)), first]
                   if skip_inadmissible else failing)
        if raising.any():
            i = int(np.argmax(raising))
            error = checks.error(i, int(first[i]))
            if not isinstance(error, AdmissibilityError):
                raise error
            k, pattern = int(first[i]) + 1, tuple(int(s) for s in rows[i])
            raise InadmissibleSigningError(
                f"signing with pattern {pattern} is inadmissible at k={k}: "
                f"{error}", signs=pattern, k=k, reason=str(error)) from error
        skipped += weight * int(np.count_nonzero(failing))
        counts += weight * np.bincount(checks.surplus[~failing].ravel(),
                                       minlength=beta + 1)
    return counts, skipped


def average_surplus_distribution(h: SupportedMatrix, *,
                                 skip_inadmissible: bool = False,
                                 tol_degeneracy: float = DEGENERACY_TOL,
                                 tol_vanish: float = VANISH_TOL
                                 ) -> SurplusDistribution:
    """Exact surplus histogram averaged over every signing.

    Switching-equivalent signings are conjugate by a diagonal sign
    matrix, so they share spectrum and nodal counts: only the
    forest-gauge representative of each of the ``2^beta`` switching
    classes is solved, in class-id order and in blocks of
    ``SWEEP_CHUNK`` stacked eigensolves whose sign rows are built per
    block, and its surpluses count ``class_size`` times.  Counts
    are accumulated as integers and divided once, so the probabilities
    are exact ratios.  ``operators.SIGNING_CAP``, read when it runs,
    bounds beta, and a graph whose ``n * 2^|E|`` samples overflow the
    int64 counts is refused too.  A signing counts only when every
    eigenvalue position is admissible at ``tol_degeneracy`` and
    ``tol_vanish`` and the module's product cuts.
    Without ``skip_inadmissible`` the first failing class raises
    ``InadmissibleSigningError``, which carries its representative's
    signs, k and reason.
    With it, failing classes are dropped whole and their signings
    counted in ``skipped``; the result then averages over the admissible
    signings only, a deliberate departure from the all-signings average,
    and ``n_samples`` is ``(2^|E| - skipped) * n``.  When every signing
    is skipped the counts are all zero, ``n_samples`` is 0 and the
    probabilities and moments raise ``DegenerateDistributionError``.  A
    complex ``h`` raises ``AdmissibilityError``.
    """
    if not h.is_real:
        raise AdmissibilityError("the signing average is stated for real "
                                 "matrices; this operator has complex entries")
    m, n = h.graph.num_edges, h.graph.n
    classes = gauge_classes_of_signings(h)
    if n << m >= 1 << 63:
        raise CapExceededError(
            f"{n} vertices times 2^{m} signings overflow the int64 counts")
    counts, skipped = _surplus_counts(h, classes, skip_inadmissible,
                                      tol_degeneracy=tol_degeneracy,
                                      tol_vanish=tol_vanish)
    return SurplusDistribution(betti_number(h.graph), counts,
                               ((1 << m) - skipped) * n, skipped=skipped)


@dataclass(frozen=True, eq=False)
class NormalizedSurplus:
    """Surplus distribution recentred at beta/2 and scaled to unit spread."""

    points: np.ndarray
    weights: np.ndarray
    sigma: float

    @property
    def first_moment(self) -> float:
        return float(np.dot(self.points, self.weights))

    @property
    def second_moment(self) -> float:
        return float(np.dot(self.points ** 2, self.weights))


def normalized_distribution(dist: SurplusDistribution) -> NormalizedSurplus:
    """Map surplus value ``s`` to ``(s - beta/2) / sigma``.

    ``sigma`` is the root mean square deviation from ``beta/2``, so the
    second moment of the result is 1 by construction; the first moment
    is 0 exactly when the counts are symmetric about ``beta/2``.  An
    empty histogram, such as one whose every signing was skipped, has no
    distribution to normalize.
    """
    if dist.n_samples == 0:
        raise DegenerateDistributionError(
            "distribution has no samples; nothing to normalize")
    beta = dist.betti
    s = np.arange(beta + 1, dtype=np.float64)
    p = dist.probs
    var = float(np.dot((s - beta / 2.0) ** 2, p))
    if var <= 0.0:
        raise DegenerateDistributionError(
            "distribution is concentrated at beta/2; nothing to normalize")
    sigma = float(np.sqrt(var))
    return NormalizedSurplus((s - beta / 2.0) / sigma, p.copy(), sigma)
