"""Nodal edge counts and surplus statistics over signings.

The nodal count of an eigenvector is the number of edges on which the
product ``conj(v_r) h_rs v_s`` is positive.  At real matrices, and more
generally at critical points of the eigenvalue, these products are
real; the count then exceeds ``k - 1`` by a surplus between 0 and the
number of independent cycles.  Averaging the surplus over all signings
of a real matrix gives the distribution the rest of the library keeps
poking at from different directions.

Switching-equivalent signings share their spectrum and nodal counts,
so the average solves one representative per switching class, the
member that leaves the spanning forest unflipped, and weights it by the
class size.  The kernel, ``_surplus_counts``, solves the
representatives in chunks of ``SWEEP_CHUNK``, each built from its class
ids and solved by one stacked eigensolve, and runs the admissibility
checks of ``nodal_count`` on every signing and eigenvalue position of
the chunk at once.  A signing enters the histogram only when every
eigenvalue position is admissible; with ``skip_inadmissible`` the
others are dropped whole and counted, so the counts always sum to the
sample count.  Errors come from the scalar code: the first failing
signing is solved again on its own and ``nodal_count`` raises, so it
stays the one place that words them and the oracle the kernel is
tested against.

Every scalar decision at one eigenvalue position starts from one solve,
``_simple_eigen``: the operator, its eigensystem, the simple k-th
eigenpair and the edge products.  ``nodal_count`` runs its checks on
that object, and the Morse module takes its gradients and Hessians
from the same object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    CapExceededError,
    DegenerateDistributionError,
    DegenerateEdgeProductError,
    EdgeProductNotRealError,
    InadmissibleSigningError,
    InternalCrossCheckError,
    NonSimpleEigenvalueError,
    VanishingEigenvectorError,
)
from .graphs import betti_number, num_components
from .operators import (
    SIGNING_CAP,
    SupportedMatrix,
    gauge_classes_of_signings,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    EigenSystem,
    eigh,
    eigh_dense,
    is_nowhere_vanishing,
    multiplicity,
    simple_positions,
)

#: Edge products must be real within this times the matrix norm.
PRODUCT_REAL_TOL = 1e-9

#: Edge products closer to zero than this times the matrix norm have no sign.
PRODUCT_DEGENERATE_TOL = 1e-12


def edge_products(h: SupportedMatrix, v: np.ndarray) -> np.ndarray:
    """The complex products ``conj(v_r) h_rs v_s`` per canonical edge.

    ``v`` may stack vectors along leading axes; the vertex axis is last.
    """
    if not h.graph.edges:
        return np.zeros(v.shape[:-1] + (0,), dtype=np.complex128)
    rs = h.graph.endpoints
    return np.conj(v[..., rs[:, 0]]) * h.offdiag * v[..., rs[:, 1]]


@dataclass(frozen=True, eq=False)
class _SimpleEigen:
    """One solve: operator, simple k-th eigenpair and edge products."""

    h: SupportedMatrix
    es: EigenSystem
    k: int
    v: np.ndarray
    lam: float
    products: np.ndarray

    @property
    def gradient(self) -> np.ndarray:
        """Eigenvalue derivative along each edge angle."""
        return -2.0 * self.products.imag

    @property
    def max_imag_product(self) -> float:
        return float(np.max(np.abs(self.products.imag))) \
            if self.products.size else 0.0

    def is_flat(self, tol: float) -> bool:
        """Criticality: every edge product real within ``tol * norm``."""
        return self.max_imag_product <= tol * self.h.norm_fro


def _simple_eigen(h: SupportedMatrix, k: int, es: EigenSystem | None,
                  tol_degeneracy: float) -> _SimpleEigen:
    """Solve ``h`` (or take ``es``); the k-th eigenvalue must be simple."""
    if es is None:
        es = eigh(h)
    m, _ = multiplicity(es, k, tol_degeneracy)
    if m != 1:
        raise NonSimpleEigenvalueError(
            f"eigenvalue {k} has multiplicity {m}; it must be simple",
            k=k, multiplicity=m)
    v = es.vector(k)
    return _SimpleEigen(h, es, k, v, es.value(k), edge_products(h, v))


def nodal_count(h: SupportedMatrix, k: int, *,
                es: EigenSystem | None = None,
                tol_degeneracy: float = DEGENERACY_TOL,
                tol_vanish: float = VANISH_TOL,
                tol_real: float = PRODUCT_REAL_TOL,
                tol_product: float = PRODUCT_DEGENERATE_TOL) -> int:
    """Number of edges with a positive edge product for eigenvector k.

    The eigenvalue must be simple, the eigenvector nowhere vanishing,
    and every edge product real and bounded away from zero; each
    failure raises its own error type.  On a connected graph the count
    lands in ``[k - 1, k - 1 + beta]``.
    """
    return _count(_simple_eigen(h, k, es, tol_degeneracy), tol_vanish,
                  tol_real, tol_product)


def _count(s: _SimpleEigen, tol_vanish: float,
           tol_real: float = PRODUCT_REAL_TOL,
           tol_product: float = PRODUCT_DEGENERATE_TOL) -> int:
    """``nodal_count`` at a simple eigenvalue."""
    h, k, products = s.h, s.k, s.products
    ok, vanishing = is_nowhere_vanishing(s.v, tol_vanish)
    if not ok:
        raise VanishingEigenvectorError(
            f"eigenvector {k} vanishes at vertices {vanishing}",
            vertices=vanishing)
    if not s.is_flat(tol_real):
        raise EdgeProductNotRealError(
            f"edge products for eigenvector {k} are not real "
            f"(max imaginary part {s.max_imag_product:.3e}); the matrix is "
            f"not at a critical point")
    small = np.abs(products.real) < tol_product * h.norm_fro
    if np.any(small):
        bad = [h.graph.edges[i] for i in np.nonzero(small)[0]]
        raise DegenerateEdgeProductError(
            f"edge products too close to zero on edges {bad}", edges=bad)
    count = int(np.count_nonzero(products.real > 0.0))
    if num_components(h.graph) == 1:
        beta = betti_number(h.graph)
        if not k - 1 <= count <= k - 1 + beta:
            raise InternalCrossCheckError(
                f"nodal count {count} violates the bounds "
                f"[{k - 1}, {k - 1 + beta}] for k={k}, beta={beta}")
    return count


def nodal_surplus(h: SupportedMatrix, k: int, **kwargs) -> int:
    """Nodal count minus ``k - 1``; in ``[0, beta]`` on connected graphs."""
    return nodal_count(h, k, **kwargs) - (k - 1)


@dataclass(frozen=True, eq=False)
class SurplusDistribution:
    """Histogram of surplus values with exact integer counts."""

    betti: int
    counts: np.ndarray
    n_samples: int
    skipped: int = 0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64).copy()
        if c.shape != (self.betti + 1,):
            raise ValueError("count vector must have beta + 1 entries")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        if int(c.sum()) != self.n_samples:
            raise ValueError("counts do not sum to the sample count")

    @property
    def probs(self) -> np.ndarray:
        return self.counts / float(self.n_samples)

    @property
    def mean(self) -> float:
        s = np.arange(self.betti + 1)
        return float(np.dot(s, self.probs))

    @property
    def variance(self) -> float:
        s = np.arange(self.betti + 1)
        p = self.probs
        mu = float(np.dot(s, p))
        return float(np.dot((s - mu) ** 2, p))


def surplus_distribution(h: SupportedMatrix, **kwargs) -> SurplusDistribution:
    """Surplus histogram over all eigenvalue positions of one matrix."""
    es = eigh(h)
    beta = betti_number(h.graph)
    counts = np.zeros(beta + 1, dtype=np.int64)
    for k in range(1, h.graph.n + 1):
        counts[nodal_surplus(h, k, es=es, **kwargs)] += 1
    return SurplusDistribution(beta, counts, h.graph.n)


#: Signings per stacked eigensolve.  A chunk holds ``SWEEP_CHUNK * n * n``
#: floats of matrices and as many of eigenvectors, so it stays small.
SWEEP_CHUNK = 256


def _signing_histogram(h: SupportedMatrix, signs, kwargs) -> np.ndarray:
    """Surplus histogram of one signing of ``h``, one ``nodal_count`` per k.

    Raises ``InadmissibleSigningError`` with the signing's signs, the
    first failing k and the reason when some k is not admissible.
    """
    hs = SupportedMatrix(h.graph, h.diag, h.offdiag * np.asarray(signs))
    es = eigh(hs)
    local = np.zeros(betti_number(h.graph) + 1, dtype=np.int64)
    for k in range(1, h.graph.n + 1):
        try:
            local[nodal_surplus(hs, k, es=es, **kwargs)] += 1
        except AdmissibilityError as exc:
            pattern = tuple(int(s) for s in signs)
            raise InadmissibleSigningError(
                f"signing with pattern {pattern} is inadmissible at k={k}: "
                f"{exc}", signs=pattern, k=k, reason=str(exc)) from exc
    return local


def _surplus_counts(h: SupportedMatrix, chunks, weight: int,
                    skip_inadmissible: bool, *,
                    tol_degeneracy: float = DEGENERACY_TOL,
                    tol_vanish: float = VANISH_TOL,
                    tol_real: float = PRODUCT_REAL_TOL,
                    tol_product: float = PRODUCT_DEGENERATE_TOL
                    ) -> tuple[np.ndarray, int]:
    """Weighted surplus histogram over the sign-row blocks ``chunks`` of ``h``.

    Each block of signed matrices is solved by one stacked eigensolve,
    and ``nodal_count``'s checks run for every signing and k at once,
    with its tolerances and comparisons: simple eigenvalue, no vanishing
    entry, real and nonzero edge products, and surpluses inside
    ``[0, beta]``.  A signing's surpluses enter the total times
    ``weight`` only when every k passes.  A signing that fails an
    admissibility check is either counted as ``weight`` skipped signings
    or, when not skipping and it is the first failing row, re-run
    through ``nodal_count``, which raises the error; a surplus outside
    ``[0, beta]`` is re-run even when skipping, so the bound check's
    ``InternalCrossCheckError`` stays the scalar one.
    """
    kwargs = dict(tol_degeneracy=tol_degeneracy, tol_vanish=tol_vanish,
                  tol_real=tol_real, tol_product=tol_product)
    n, beta = h.graph.n, betti_number(h.graph)
    rs = h.graph.endpoints
    base = h.to_dense()
    scale = h.norm_fro
    position = np.arange(n)
    counts = np.zeros(beta + 1, dtype=np.int64)
    skipped = 0
    for rows in chunks:
        dense = np.repeat(base[None], len(rows), axis=0)
        dense[:, rs[:, 0], rs[:, 1]] *= rows
        dense[:, rs[:, 1], rs[:, 0]] *= rows
        values, vectors = eigh_dense(dense)
        vectors = vectors.swapaxes(1, 2)  # (signing, k, vertex)
        products = edge_products(h, vectors) * rows[:, None, :]
        inadmissible = (
            ~simple_positions(values, tol_degeneracy)
            | np.any(np.abs(vectors) < tol_vanish, axis=2)
            | np.any(np.abs(products.imag) > tol_real * scale, axis=2)
            | np.any(np.abs(products.real) < tol_product * scale, axis=2))
        surplus = np.count_nonzero(products.real > 0.0, axis=2) - position
        out_of_bounds = ~inadmissible & ((surplus < 0) | (surplus > beta))
        failed = inadmissible | out_of_bounds
        failing = np.any(failed, axis=1)
        if skip_inadmissible:
            first = np.argmax(failed, axis=1)
            rerun = out_of_bounds[np.arange(len(rows)), first]
        else:
            rerun = failing
        if np.any(rerun):
            signs = rows[np.argmax(rerun)]
            _signing_histogram(h, signs, kwargs)  # raises the scalar error
            raise InternalCrossCheckError(
                f"the stacked checks reject the signing with pattern "
                f"{tuple(int(s) for s in signs)}, which nodal_count accepts")
        skipped += weight * int(np.count_nonzero(failing))
        counts += weight * np.bincount(surplus[~failing].ravel(),
                                       minlength=beta + 1)
    return counts, skipped


def average_surplus_distribution(h: SupportedMatrix, *,
                                 cap: int = SIGNING_CAP,
                                 skip_inadmissible: bool = False,
                                 **kwargs) -> SurplusDistribution:
    """Exact surplus histogram averaged over every signing.

    Switching-equivalent signings are conjugate by a diagonal sign
    matrix, so they share spectrum and nodal counts: only the
    forest-gauge representative of each of the ``2^beta`` switching
    classes is solved, in class-id order and in blocks of
    ``SWEEP_CHUNK`` stacked eigensolves whose sign rows are built per
    block, and its surpluses count ``class_size`` times.  Counts
    are accumulated as integers and divided once, so the probabilities
    are exact ratios; ``cap`` bounds beta, and a graph whose
    ``n * 2^|E|`` samples overflow the int64 counts is refused too.  A
    signing counts only when every eigenvalue position is admissible.
    Without ``skip_inadmissible`` the first failing class is re-run
    through ``nodal_count``, and ``InadmissibleSigningError`` carries
    its representative's signs, k and reason.
    With it, failing classes are dropped whole and their signings
    counted in ``skipped``; the result then averages over the admissible
    signings only, a deliberate departure from the all-signings average,
    and ``n_samples`` is ``(2^|E| - skipped) * n``.  When every signing
    is skipped the counts are all zero, ``n_samples`` is 0 and the
    probabilities and moments are undefined.
    """
    if not h.is_real:
        raise ValueError("the signing average is defined for real matrices")
    m, n = h.graph.num_edges, h.graph.n
    classes = gauge_classes_of_signings(h, cap=cap)
    if n << m > np.iinfo(np.int64).max:
        raise CapExceededError(
            f"{n} vertices times 2^{m} signings overflow the int64 counts")
    total = classes.num_classes
    chunks = (classes.rows(np.arange(i, min(i + SWEEP_CHUNK, total)))
              for i in range(0, total, SWEEP_CHUNK))
    counts, skipped = _surplus_counts(h, chunks, classes.class_size,
                                      skip_inadmissible, **kwargs)
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
    is 0 exactly when the counts are symmetric about ``beta/2``.
    """
    beta = dist.betti
    s = np.arange(beta + 1, dtype=np.float64)
    p = dist.probs
    var = float(np.dot((s - beta / 2.0) ** 2, p))
    if var <= 0.0:
        raise DegenerateDistributionError(
            "distribution is concentrated at beta/2; nothing to normalize")
    sigma = float(np.sqrt(var))
    return NormalizedSurplus((s - beta / 2.0) / sigma, p.copy(), sigma)
