"""Nodal edge counts and surplus statistics over signings.

The nodal count of an eigenvector is the number of edges on which the
product ``conj(v_r) h_rs v_s`` is positive.  At real matrices, and more
generally at critical points of the eigenvalue, these products are
real; the count then exceeds ``k - 1`` by a surplus between 0 and the
number of independent cycles.  Averaging the surplus over all signings
of a real matrix gives the distribution the rest of the library keeps
poking at from different directions.

The average runs through one loop, ``_surplus_counts``, whether it
visits every signing or one representative per switching class.  A
signing enters the histogram only when every eigenvalue position is
admissible; with ``skip_inadmissible`` the others are dropped whole and
counted, so the counts always sum to the sample count.
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
    signs_for_index,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    EigenSystem,
    eigh,
    is_nowhere_vanishing,
    multiplicity,
)

#: Edge products must be real within this times the matrix norm.
PRODUCT_REAL_TOL = 1e-9

#: Edge products closer to zero than this times the matrix norm have no sign.
PRODUCT_DEGENERATE_TOL = 1e-12


def edge_products(h: SupportedMatrix, v: np.ndarray) -> np.ndarray:
    """The complex products ``conj(v_r) h_rs v_s`` per canonical edge."""
    if not h.graph.edges:
        return np.zeros(0, dtype=np.complex128)
    rs = np.array(h.graph.edges)
    return np.conj(v[rs[:, 0]]) * h.offdiag * v[rs[:, 1]]


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
    if es is None:
        es = eigh(h)
    m, _ = multiplicity(es, k, tol_degeneracy)
    if m != 1:
        raise NonSimpleEigenvalueError(
            f"eigenvalue {k} has multiplicity {m}; nodal count undefined",
            k=k, multiplicity=m)
    v = es.vector(k)
    ok, vanishing = is_nowhere_vanishing(v, tol_vanish)
    if not ok:
        raise VanishingEigenvectorError(
            f"eigenvector {k} vanishes at vertices {vanishing}",
            vertices=vanishing)
    products = edge_products(h, v)
    scale = h.norm_fro
    if products.size:
        worst = float(np.max(np.abs(products.imag)))
        if worst > tol_real * scale:
            raise EdgeProductNotRealError(
                f"edge products for eigenvector {k} are not real "
                f"(max imaginary part {worst:.3e}); the matrix is not at a "
                f"critical point")
        small = np.abs(products.real) < tol_product * scale
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


def _surplus_counts(h: SupportedMatrix, sign_rows, weight: int,
                    skip_inadmissible: bool, kwargs) -> tuple[np.ndarray, int]:
    """Weighted surplus histogram over the signings ``sign_rows`` of ``h``.

    Each signed matrix is solved once and its surpluses for every k are
    collected in a local histogram, which enters the total times
    ``weight`` only when every k is admissible.  A failing signing is
    either counted as ``weight`` skipped signings or, when not
    skipping, reported as the first failing row.
    """
    beta = betti_number(h.graph)
    counts = np.zeros(beta + 1, dtype=np.int64)
    skipped = 0
    for signs in sign_rows:
        hs = SupportedMatrix(h.graph, h.diag, h.offdiag * np.asarray(signs))
        es = eigh(hs)
        local = np.zeros(beta + 1, dtype=np.int64)
        try:
            for k in range(1, h.graph.n + 1):
                local[nodal_surplus(hs, k, es=es, **kwargs)] += 1
        except AdmissibilityError as exc:
            if skip_inadmissible:
                skipped += weight
                continue
            pattern = tuple(int(s) for s in signs)
            raise InadmissibleSigningError(
                f"signing with pattern {pattern} is inadmissible at k={k}: "
                f"{exc}", signs=pattern, k=k, reason=str(exc)) from exc
        counts += weight * local
    return counts, skipped


def average_surplus_distribution(h: SupportedMatrix, *,
                                 cap: int = SIGNING_CAP,
                                 by_gauge_classes: bool = False,
                                 skip_inadmissible: bool = False,
                                 **kwargs) -> SurplusDistribution:
    """Exact surplus histogram averaged over every signing.

    Counts are accumulated as integers and divided once, so the
    probabilities are exact ratios.  The full sweep solves all
    ``2^|E|`` signings in enumeration order; with ``by_gauge_classes``
    only the least representative of each switching class is solved and
    weighted by the class size, and the result must agree with the full
    sweep.  A signing counts only when every eigenvalue position is
    admissible.  Without ``skip_inadmissible`` the first failing signing
    raises ``InadmissibleSigningError`` with its signs, k and reason.
    With it, failing signings are dropped whole and counted in
    ``skipped``; the result then averages over the admissible signings
    only, a deliberate departure from the all-signings average, and
    ``n_samples`` is ``(2^|E| - skipped) * n``.  When every signing is
    skipped the counts are all zero, ``n_samples`` is 0 and the
    probabilities and moments are undefined.
    """
    if not h.is_real:
        raise ValueError("the signing average is defined for real matrices")
    m = h.graph.num_edges
    if by_gauge_classes:
        classes = gauge_classes_of_signings(h, cap=cap)
        rows = classes.representatives
        weight = (1 << m) // classes.num_classes
    else:
        if m > cap:
            raise CapExceededError(
                f"signing sweep over {m} edges exceeds the cap of {cap}")
        rows = (signs_for_index(index, m) for index in range(1 << m))
        weight = 1
    counts, skipped = _surplus_counts(h, rows, weight, skip_inadmissible,
                                      kwargs)
    return SurplusDistribution(betti_number(h.graph), counts,
                               ((1 << m) - skipped) * h.graph.n,
                               skipped=skipped)


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
