"""Dense Hermitian eigensolves with deterministic conventions.

Wraps the LAPACK-backed dense solver and fixes the remaining freedom:
eigenvalues come back ascending, eigenvectors orthonormal, and each
eigenvector is rotated so its largest-modulus entry is real and
positive.  Real symmetric input takes the real code path, so its
eigenvectors have exactly zero imaginary part.

Eigenvalue positions ``k`` are 1-based throughout the library, matching
the usual counting of the spectrum from the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverError, NonSimpleEigenvalueError
from .graphs import Graph
from .operators import SupportedMatrix, dense_matrices

#: Relative eigenvalue-cluster tolerance.
DEGENERACY_TOL = 1e-8

#: Entries of a unit eigenvector below this are treated as vanishing.
VANISH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues and phase-normalized eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def spectral_scale(self) -> float:
        """Scale used by relative tolerances, ``max(1, max |eigenvalue|)``."""
        return max(1.0, float(np.max(np.abs(self.values))) if self.n else 0.0)

    def value(self, k: int) -> float:
        _check_k(k, self.n)
        return float(self.values[k - 1])

    def vector(self, k: int) -> np.ndarray:
        _check_k(k, self.n)
        return self.vectors[:, k - 1]


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"eigenvalue position k={k} outside 1..{n}")


def _normalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate every eigenvector column so that its first largest-modulus
    entry ``a`` is real and positive; leading axes stack matrices.

    The complex factor is ``conj(a) / hypot(a.real, a.imag)``, which has
    the bits of the per-column scalar ``conj(a) / abs(a)``, signed zeros
    included; the array ``np.abs`` and a multiplication by ``1 / hypot``
    do not.
    """
    if vectors.size == 0:
        return vectors.copy()
    i = np.argmax(np.abs(vectors), axis=-2)
    a = np.take_along_axis(vectors, i[..., None, :], axis=-2)
    if np.iscomplexobj(vectors):
        return vectors * (np.conj(a) / np.hypot(a.real, a.imag))
    return np.where(a < 0.0, -vectors, vectors)


def eigh_dense(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a dense Hermitian
    matrix, or of each matrix in a stack along the leading axes.

    Identical input bits produce identical output bits, which the
    sweep-style computations rely on.  A solver failure raises
    ``EigenSolverError``.
    """
    try:
        return np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"dense eigensolve failed: {exc}") from exc


def eigh_stack(graph: Graph, diag: np.ndarray, offdiag: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (S, n) and phase-normalized eigenvectors
    (S, n, n) of the matrices with diagonal ``diag`` and edge entries
    ``offdiag`` (S, m), in one stacked solve.

    The rows take the real solver path when all of them are real and
    the complex path otherwise; a row solved in a stack gets the bits it
    gets alone on the same path.
    """
    values, vectors = eigh_dense(dense_matrices(graph, diag, offdiag))
    return values, _normalize_phases(vectors)


def eigh(h: SupportedMatrix) -> EigenSystem:
    """Full eigensystem of a supported matrix."""
    values, vectors = eigh_stack(h.graph, h.diag, h.offdiag[None])
    values, vectors = values[0].copy(), vectors[0]
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(values, vectors)


def multiplicity(es: EigenSystem, k: int, tol_rel: float = DEGENERACY_TOL
                 ) -> tuple[int, int]:
    """Cluster size and 1-based start index of the cluster containing k.

    The cluster is the maximal run of eigenvalues within
    ``tol_rel * max(1, spectral norm)`` of the k-th one.
    """
    _check_k(k, es.n)
    tol = tol_rel * es.spectral_scale
    lam = es.values[k - 1]
    lo = k - 1
    while lo > 0 and abs(es.values[lo - 1] - lam) <= tol:
        lo -= 1
    hi = k - 1
    while hi + 1 < es.n and abs(es.values[hi + 1] - lam) <= tol:
        hi += 1
    return hi - lo + 1, lo + 1


def simple_positions(values: np.ndarray, tol_rel: float = DEGENERACY_TOL
                     ) -> np.ndarray:
    """Which eigenvalues are simple, per row of a stack of ascending
    spectra ``values`` (S, n): whether ``multiplicity`` gives 1, for
    every row and position at once.

    A position is simple when both neighbours lie farther than
    ``tol_rel * max(1, max |eigenvalue|)`` of its row away.
    """
    tol = tol_rel * np.maximum(1.0, np.max(np.abs(values), axis=-1))
    close = np.abs(np.diff(values, axis=-1)) <= tol[..., None]
    simple = np.ones(values.shape, dtype=bool)
    simple[..., 1:] &= ~close
    simple[..., :-1] &= ~close
    return simple


def is_nowhere_vanishing(v: np.ndarray, tol: float = VANISH_TOL
                         ) -> tuple[bool, list[int]]:
    """Check a unit vector for entries below the vanishing threshold."""
    vanishing = [int(i) for i in np.nonzero(np.abs(v) < tol)[0]]
    return not vanishing, vanishing


def pseudo_inverse_apply(h: SupportedMatrix, lam: float, x: np.ndarray,
                         tol_rel: float = DEGENERACY_TOL,
                         es: EigenSystem | None = None) -> np.ndarray:
    """Apply the spectral pseudo-inverse of ``h - lam I`` to a vector.

    Eigenvalues within the cluster tolerance of ``lam`` are excluded,
    so the result is orthogonal to the eigenspace at ``lam``.
    """
    if es is None:
        es = eigh(h)
    tol = tol_rel * es.spectral_scale
    mask = np.abs(es.values - lam) > tol
    coeffs = es.vectors.conj().T @ x
    scaled = np.zeros_like(coeffs)
    scaled[mask] = coeffs[mask] / (es.values[mask] - lam)
    return es.vectors @ scaled


def resolvent_coefficient(h: SupportedMatrix, k: int, vertex: int,
                          tol_rel: float = DEGENERACY_TOL,
                          es: EigenSystem | None = None) -> float:
    """Spectral shift coefficient at a vertex for a simple eigenvalue.

    Equals ``sum_{j != k} |psi_j(vertex)|^2 / (lambda_k - lambda_j)``,
    which is the negated diagonal entry of the pseudo-inverse of
    ``h - lambda_k I`` at the vertex.
    """
    if es is None:
        es = eigh(h)
    m, _ = multiplicity(es, k, tol_rel)
    if m != 1:
        raise NonSimpleEigenvalueError(
            f"eigenvalue {k} has multiplicity {m}; the coefficient needs a "
            f"simple eigenvalue", k=k, multiplicity=m)
    if not 0 <= vertex < es.n:
        raise ValueError(f"vertex {vertex} out of range")
    lam = es.values[k - 1]
    total = 0.0
    for j in range(es.n):
        if j == k - 1:
            continue
        total += float(np.abs(es.vectors[vertex, j]) ** 2 / (lam - es.values[j]))
    return total
