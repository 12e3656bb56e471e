"""Dense Hermitian eigensolves with deterministic conventions.

Wraps the LAPACK-backed dense solver and fixes the remaining freedom:
eigenvalues come back ascending, eigenvectors orthonormal, and each
eigenvector is rotated so its largest-modulus entry is real and
positive.  ``eigh`` and ``eigh_dense`` solve real symmetric input on
the real code path, so its eigenvectors are real; ``eigh_stack``, the
Newton polish's solve, takes the complex path for every stack.

Eigenvalue positions ``k`` are 1-based throughout the library, matching
the usual counting of the spectrum from the bottom.  The module is the
package's gateway to LAPACK: ``eigh_dense`` (``eigvalsh_dense`` for
spectra alone) is its one dense eigensolve and ``_lstsq`` the one
least-squares step of the Newton solvers in ``morse`` and ``linkage``.
Its ``cluster_mask`` is the package's one degeneracy test, behind every
multiplicity, simplicity check and pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    flat = vectors.reshape(-1, *vectors.shape[-2:])
    a = flat[np.arange(len(flat))[:, None], np.argmax(np.abs(flat), axis=1),
             np.arange(flat.shape[2])].reshape(*vectors.shape[:-2], 1, -1)
    if vectors.dtype.kind == "c":
        return vectors * (np.conj(a) / np.hypot(a.real, a.imag))
    return np.where(a < 0.0, -vectors, vectors)


#: The gufuncs of ``np.linalg.eigh``, ``eigvalsh`` and ``lstsq``, called
#: directly; private to numpy, which fixes the floor in ``pyproject.toml``.
_EIGH, _EIGVALSH, _LSTSQ = (_umath_linalg.eigh_lo, _umath_linalg.eigvalsh_lo,
                            _umath_linalg.lstsq)


def _eigh_failed(err, flag):
    raise EigenSolverError("dense eigensolve failed: Eigenvalues did not "
                           "converge")


def _eigensolve(gufunc, dense: np.ndarray, real: str, complex_: str):
    """``gufunc`` on ``dense``, with ``np.linalg.eigh``'s loop choice and
    error handling; a NaN or infinite entry, on which LAPACK may fail or
    return NaNs, is refused first."""
    if not np.isfinite(dense).all():
        raise EigenSolverError("dense eigensolve failed: non-finite entry")
    with np.errstate(call=_eigh_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return gufunc(dense, signature=complex_ if dense.dtype.kind == "c"
                      else real)


def eigh_dense(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a dense Hermitian
    matrix, or of each matrix in a stack along the leading axes, with the
    bits of ``np.linalg.eigh``, so identical input bits give identical
    output bits, which the sweep-style computations rely on.  A solver
    failure or a NaN or infinite entry raises ``EigenSolverError``.
    """
    return _eigensolve(_EIGH, dense, "d->dd", "D->dD")


def eigvalsh_dense(dense: np.ndarray) -> np.ndarray:
    """``eigh_dense``'s eigenvalues alone, with the bits of
    ``np.linalg.eigvalsh``."""
    return _eigensolve(_EIGVALSH, dense, "d->d", "D->d")


def eigh_stack(graph: Graph, diag: np.ndarray, offdiag: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (S, n) and phase-normalized eigenvectors
    (S, n, n) of the matrices with diagonal ``diag`` and edge entries
    ``offdiag`` (S, m), in one stacked solve on the complex path.

    Real rows are filled as complex ones are, with the conjugated
    entries in the lower triangle that the solver reads: it passes the
    signs of their zero imaginary parts on to the eigenvectors.  So a
    row gets the bits it gets alone, whatever rows share its stack.
    """
    dense = dense_matrices(graph, diag, offdiag).astype(complex, copy=False)
    dense[:, graph.endpoints[:, 1], graph.endpoints[:, 0]] = offdiag.conj()
    values, vectors = eigh_dense(dense)
    return values, _normalize_phases(vectors)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions ``x[i]`` of ``a[i] x = b[i]`` for a stack
    ``a`` (S, m, n) and ``b`` (S, m), shape (S, n).

    One call of the gufunc that ``np.linalg.lstsq`` runs per matrix,
    with its default ``rcond`` and error handling, so every row gets the
    bits of ``np.linalg.lstsq(a[i], b[i], rcond=None)[0]``.
    """
    m, n = a.shape[-2:]
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, _, _ = _LSTSQ(a, b[..., None], np.finfo(np.float64).eps
                            * max(m, n), signature="ddd->ddid")
    return x[..., 0]


def eigh(h: SupportedMatrix) -> EigenSystem:
    """Full eigensystem of a supported matrix."""
    values, vectors = eigh_dense(h.to_dense())
    vectors = _normalize_phases(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(values, vectors)


def _cluster_tol(values: np.ndarray, tol_rel: float) -> np.ndarray:
    """``tol_rel * max(1, max |eigenvalue|)`` per spectrum (..., n)."""
    return tol_rel * np.maximum.reduce(np.abs(values), axis=-1, initial=1.0)


def cluster_mask(values: np.ndarray, lam, tol_rel: float = DEGENERACY_TOL
                 ) -> np.ndarray:
    """Which eigenvalues of each spectrum ``values`` (..., n) lie within
    ``tol_rel * max(1, max |eigenvalue|)`` of its ``lam`` (...,).

    Rounded subtraction is monotone, so in an ascending spectrum those
    near one of its own eigenvalues form a contiguous run, and the
    nearest other eigenvalue is a neighbour.
    """
    lam = np.asarray(lam)[..., None]
    return np.abs(values - lam) <= _cluster_tol(values, tol_rel)[..., None]


def multiplicity(es: EigenSystem, k: int, tol_rel: float = DEGENERACY_TOL
                 ) -> tuple[int, int]:
    """Cluster size and 1-based start index of the cluster containing k.

    The cluster is the run of eigenvalues that ``cluster_mask`` puts
    within tolerance of the k-th one.
    """
    _check_k(k, es.n)
    cluster = cluster_mask(es.values, es.values[k - 1], tol_rel)
    return (int(np.count_nonzero(cluster)),
            k - int(np.count_nonzero(cluster[:k - 1])))


def simple_positions(values: np.ndarray, tol_rel: float = DEGENERACY_TOL
                     ) -> np.ndarray:
    """Which eigenvalues are simple, per row of a stack of ascending
    spectra ``values`` (S, n): whether ``multiplicity`` gives 1, for
    every row and position at once.

    A position is simple when neither neighbour lies within
    ``cluster_mask``'s cut of its row.  An ascending spectrum reaches
    its largest modulus at an end and has no negative gap.
    """
    *stack, n = values.shape
    tol = _cluster_tol(values[..., ::max(n - 1, 1)], tol_rel)
    # gap i + 1 lies between positions i and i + 1; the outer two are none
    close = np.zeros((*stack, n + 1), dtype=bool)
    np.less_equal(values[..., 1:] - values[..., :-1], tol[..., None],
                  out=close[..., 1:-1])
    return ~(close[..., 1:] | close[..., :-1])


def is_nowhere_vanishing(v: np.ndarray) -> tuple[bool, list[int]]:
    """Check a unit vector for entries below ``VANISH_TOL``, read when
    it runs."""
    vanishing = [int(i) for i in np.nonzero(np.abs(v) < VANISH_TOL)[0]]
    return not vanishing, vanishing


def resolvent_coefficient(es: EigenSystem, k: int, vertex: int,
                          tol_rel: float = DEGENERACY_TOL) -> float:
    """Spectral shift coefficient at a vertex for a simple eigenvalue of
    the eigensystem ``es``.

    Equals ``sum_{j != k} |psi_j(vertex)|^2 / (lambda_k - lambda_j)``,
    which is the negated diagonal entry of the pseudo-inverse of
    ``h - lambda_k I`` at the vertex.
    """
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
