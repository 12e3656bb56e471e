"""Transversality of the graph family to the degeneracy strata.

Hermitian matrices with an eigenvalue of multiplicity m form a stratum
of codimension m^2 - 1 (m^2 when the eigenvalue is pinned).  Matrices
supported on a fixed graph form an affine family inside all Hermitian
matrices, and genericity arguments need the family to meet each
stratum transversally.  Two equivalent tests are implemented and
cross-checked on every call: triviality of the kernel of
X -> (h - lambda) X over Hermitian matrices supported off the graph,
and surjectivity of compression onto Hermitian forms on the
eigenspace.  Each test places the real basis of its directions into
one stack of unit matrices by index and applies its map to the whole
stack in one batched product, which gives every product the bits of
the product with its unit alone, signed zeros included: the singular
value decompositions that follow can see the sign of a zero.
Transversality failures localize to eigenspaces whose supports split
the graph, which is where the structured witnesses come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InternalCrossCheckError, StratumAmbiguousError
from .graphs import Graph, connected_components, induced_subgraph
from .operators import SupportedMatrix
from .spectral import DEGENERACY_TOL, eigh, multiplicity

#: Singular values below this (times the operator scale for the kernel
#: test) count as zero.
TRANSVERSALITY_RANK_TOL = 1e-8

#: Row norms below this do not count toward the eigenspace support.
SUPPORT_TOL = 1e-8


def codim_stratum(m: int) -> int:
    """Codimension of the multiplicity-m stratum, the eigenvalue free."""
    if m < 1:
        raise ValueError("multiplicity must be positive")
    return m * m - 1


@dataclass(frozen=True, eq=False)
class EigenspaceBasis:
    """Orthonormal basis of one eigenvalue cluster's eigenspace.

    ``eigenvalue`` is the cluster mean, ``k_first`` the 1-based index
    where the cluster starts, ``vectors`` an n-by-m column basis.
    """

    eigenvalue: float
    k_first: int
    dim: int
    vectors: np.ndarray


def eigenspace_basis(h: SupportedMatrix, k: int,
                     tol_degeneracy: float = DEGENERACY_TOL
                     ) -> EigenspaceBasis:
    """Eigenspace of the cluster containing the k-th eigenvalue.

    ``k`` must open its cluster; querying a later member is ambiguous
    about which stratum is meant and raises.
    """
    es = eigh(h)
    m, k0 = multiplicity(es, k, tol_degeneracy)
    if k0 != k:
        raise StratumAmbiguousError(
            f"eigenvalue {k} sits inside the cluster starting at {k0}; "
            f"query the first index of the cluster")
    vecs = es.vectors[:, k - 1:k - 1 + m].copy()
    cluster = es.values[k - 1:k - 1 + m]
    lam = float(np.mean(cluster))
    width = float(cluster[-1] - cluster[0])
    budget = 1e-9 * max(1.0, h.norm_fro) + width
    resid = np.linalg.norm(h.to_dense() @ vecs - lam * vecs, axis=0)
    over = resid[resid > budget]
    if over.size:
        raise InternalCrossCheckError(
            f"eigenvector residual {over[0]:.3e} exceeds the cluster "
            f"budget {budget:.3e}")
    vecs.setflags(write=False)
    return EigenspaceBasis(eigenvalue=lam, k_first=k, dim=m, vectors=vecs)


def support_components(g: Graph, basis: EigenspaceBasis
                       ) -> tuple[tuple[int, ...], list[list[int]]]:
    """Vertices where the eigenspace does not vanish, and the components
    of the subgraph they induce, in the original vertex labels.

    A vertex belongs to the support when its row of the basis matrix
    has norm above ``SUPPORT_TOL``; for an orthonormal basis this equals
    the norm of the projection of the coordinate vector onto the
    eigenspace, so the answer does not depend on the basis choice.  The
    support splits the graph when it has more than one component.
    """
    norms = np.linalg.norm(basis.vectors, axis=1)
    supp = tuple(int(i) for i in np.nonzero(norms > SUPPORT_TOL)[0])
    if not supp:
        return supp, []
    sub = induced_subgraph(g, supp)
    return supp, [[supp[i] for i in comp] for comp in connected_components(sub)]


def _pairs(n: int, skip=()) -> np.ndarray:
    """Index pairs ``r < s`` below n, in row-major order, without those
    in ``skip``: shape (q, 2)."""
    return np.array([e for e in combinations(range(n), 2) if e not in skip],
                    dtype=np.intp).reshape(-1, 2)


def _units(n: int, pairs: np.ndarray, diagonal: bool) -> np.ndarray:
    """Real basis of Hermitian n-by-n matrices, as one stack: the
    diagonal units when ``diagonal``, then for each pair ``(r, s)`` of
    ``pairs`` (q, 2) the real unit at ``(r, s)`` and the imaginary one,
    ``i`` at ``(r, s)`` and ``-i`` at ``(s, r)``."""
    d = n if diagonal else 0
    units = np.zeros((d + 2 * len(pairs), n, n), dtype=np.complex128)
    i = np.arange(d)
    units[i, i, i] = 1.0
    e = d + 2 * np.arange(len(pairs))
    r, s = pairs[:, 0], pairs[:, 1]
    units[e, r, s] = units[e, s, r] = 1.0
    units[e + 1, r, s] = 1j
    units[e + 1, s, r] = -1j
    return units


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    """Agreed verdict of the two transversality tests at one cluster.

    ``smallest_singular_value`` and ``kernel_dimension`` describe the
    off-graph kernel test; ``compression_rank`` the eigenspace
    compression test (full rank is ``multiplicity`` squared).
    ``kernel_witness`` is a unit-Frobenius Hermitian matrix supported
    off the graph with (h - lambda) X numerically zero, present only
    when not transverse.  ``basis`` is the eigenspace basis both tests
    ran on.
    """

    transverse: bool
    multiplicity: int
    eigenvalue: float
    codimension: int
    smallest_singular_value: float
    kernel_dimension: int
    compression_rank: int
    kernel_witness: np.ndarray | None
    basis: EigenspaceBasis


def is_transverse_at(h: SupportedMatrix, k: int, *,
                     tol_degeneracy: float = DEGENERACY_TOL
                     ) -> TransversalityReport:
    """Transversality of the graph family at one eigenvalue cluster.

    Kernel test: the real-linear map X -> (h - lambda) X on Hermitian
    matrices with zero diagonal and zero entries on edges must be
    injective, measured by its smallest singular value against
    ``TRANSVERSALITY_RANK_TOL`` times the operator norm scale.
    Compression test: the compressions of a basis of graph-supported
    Hermitian directions onto the eigenspace must span all Hermitian
    forms there, with rank cut at the same tolerance relative to the
    largest singular value.  The two are equivalent in exact arithmetic
    and both are always computed; a disagreement raises instead of
    guessing which one to trust.
    """
    basis = eigenspace_basis(h, k, tol_degeneracy)
    m = basis.dim
    lam = basis.eigenvalue
    g = h.graph
    n = g.n
    scale = max(1.0, h.norm_fro)
    shifted = h.to_dense() - lam * np.eye(n)

    pairs = _pairs(n, g.edge_index)
    if pairs.size:
        y = (shifted @ _units(n, pairs, False)).reshape(len(pairs) * 2, -1)
        a = np.concatenate([y.real, y.imag], axis=1).T
        sv = np.linalg.svd(a, compute_uv=False)
        smallest = float(sv[-1])
        cut = TRANSVERSALITY_RANK_TOL * scale
        kernel_dim = int(np.sum(sv <= cut))
        a_transverse = smallest > cut
    else:
        smallest = np.inf
        kernel_dim = 0
        a_transverse = True

    witness = None
    if not a_transverse:
        _, _, vh = np.linalg.svd(a)
        # The coefficients of the real and imaginary unit of each pair;
        # adding zero gives the zeros of a sum of scaled units.
        c = vh[-1].reshape(-1, 2) + 0.0
        r, s = pairs.T
        x = np.zeros((n, n), dtype=np.complex128)
        x.real[r, s] = x.real[s, r] = c[:, 0]
        x.imag[r, s] = c[:, 1]
        x.imag[s, r] = -c[:, 1] + 0.0
        witness = x / np.linalg.norm(x)

    u = basis.vectors
    w = u.conj().T @ _units(n, g.endpoints, True) @ u
    r, s = _pairs(m).T
    upper = w[:, r, s]
    comp = np.concatenate([w[:, np.arange(m), np.arange(m)].real,
                           upper.real * np.sqrt(2.0),
                           upper.imag * np.sqrt(2.0)], axis=1)
    csv = np.linalg.svd(comp, compute_uv=False)
    rank = int(np.sum(csv > TRANSVERSALITY_RANK_TOL
                      * max(1.0, float(csv[0]))))
    b_transverse = rank == m * m

    if a_transverse != b_transverse:
        raise InternalCrossCheckError(
            f"transversality tests disagree: kernel test says "
            f"{a_transverse} (smallest singular value {smallest:.3e}), "
            f"compression rank {rank} of {m * m}")

    return TransversalityReport(
        transverse=a_transverse,
        multiplicity=m,
        eigenvalue=lam,
        codimension=codim_stratum(m),
        smallest_singular_value=smallest,
        kernel_dimension=kernel_dim,
        compression_rank=rank,
        kernel_witness=witness,
        basis=basis,
    )


def find_edge_separated_pair(basis: EigenspaceBasis, comps: list[list[int]]
                             ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvectors supported on different components of the support.

    Intersects the eigenspace with the vectors vanishing off each of
    the support components ``comps`` (from ``support_components``) and
    returns one unit vector from each of the first two components
    carrying a nonzero intersection, both zero tests cut at
    ``SUPPORT_TOL``.  Such a pair spans no common edge.  Returns None
    when fewer than two components carry eigenvectors; this
    component-wise search is the only strategy tried.
    """
    if len(comps) < 2:
        return None
    found: list[np.ndarray] = []
    for comp in comps:
        outside = [r for r in range(len(basis.vectors)) if r not in comp]
        rows = basis.vectors[outside, :]
        _, sv, vh = np.linalg.svd(rows, full_matrices=True)
        full = np.concatenate([sv, np.zeros(basis.dim - sv.size)])
        if full[-1] <= SUPPORT_TOL:
            vec = basis.vectors @ vh[-1].conj()
            nrm = float(np.linalg.norm(vec))
            if nrm > SUPPORT_TOL:
                found.append(vec / nrm)
        if len(found) == 2:
            return found[0], found[1]
    return None
