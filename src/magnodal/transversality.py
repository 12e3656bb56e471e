"""Transversality of the graph family to the degeneracy strata.

Hermitian matrices with an eigenvalue of multiplicity m form a stratum
of codimension m^2 - 1 (m^2 when the eigenvalue is pinned).  Matrices
supported on a fixed graph form an affine family inside all Hermitian
matrices, and genericity arguments need the family to meet each
stratum transversally.  Two equivalent tests are implemented and
cross-checked on every call: triviality of the kernel of
X -> (h - lambda) X over Hermitian matrices supported off the graph,
and surjectivity of compression onto Hermitian forms on the
eigenspace.  Transversality failures localize to eigenspaces whose
supports split the graph, which is where the structured witnesses come
from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCrossCheckError, StratumAmbiguousError
from .graphs import Graph, connected_components, induced_subgraph
from .operators import SupportedMatrix
from .spectral import DEGENERACY_TOL, EigenSystem, eigh, multiplicity

#: Singular values below this (times the operator scale for the kernel
#: test) count as zero.
TRANSVERSALITY_RANK_TOL = 1e-8

#: Row norms below this do not count toward the eigenspace support.
SUPPORT_TOL = 1e-8


def codim_stratum(m: int, fixed_eigenvalue: bool = False) -> int:
    """Codimension of the multiplicity-m stratum.

    The eigenvalue is free by default; pinning it adds one.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    return m * m - (0 if fixed_eigenvalue else 1)


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
                     tol_degeneracy: float = DEGENERACY_TOL,
                     es: EigenSystem | None = None) -> EigenspaceBasis:
    """Eigenspace of the cluster containing the k-th eigenvalue.

    ``k`` must open its cluster; querying a later member is ambiguous
    about which stratum is meant and raises.
    """
    if es is None:
        es = eigh(h)
    m, k0 = multiplicity(es, k, tol_degeneracy)
    if k0 != k:
        raise StratumAmbiguousError(
            f"eigenvalue {k} sits inside the cluster starting at {k0}; "
            f"query the first index of the cluster")
    vecs = es.vectors[:, k - 1:k - 1 + m].copy()
    cluster = es.values[k - 1:k - 1 + m]
    lam = float(np.mean(cluster))
    dense = h.to_dense()
    width = float(cluster[-1] - cluster[0])
    budget = 1e-9 * max(1.0, h.norm_fro) + width
    for j in range(m):
        resid = float(np.linalg.norm(dense @ vecs[:, j] - lam * vecs[:, j]))
        if resid > budget:
            raise InternalCrossCheckError(
                f"eigenvector residual {resid:.3e} exceeds the cluster "
                f"budget {budget:.3e}")
    vecs.setflags(write=False)
    return EigenspaceBasis(eigenvalue=lam, k_first=k, dim=m, vectors=vecs)


def support_of_eigenspace(basis: EigenspaceBasis,
                          tol: float = SUPPORT_TOL) -> tuple[int, ...]:
    """Vertices where the eigenspace does not vanish.

    A vertex belongs to the support when its row of the basis matrix
    has norm above the tolerance; for an orthonormal basis this equals
    the norm of the projection of the coordinate vector onto the
    eigenspace, so the answer does not depend on the basis choice.
    """
    norms = np.linalg.norm(basis.vectors, axis=1)
    return tuple(int(i) for i in np.nonzero(norms > tol)[0])


def _support_components(g: Graph, basis: EigenspaceBasis, tol: float
                        ) -> tuple[tuple[int, ...], list[list[int]]]:
    """The eigenspace support and the components of the subgraph it
    induces, in the original vertex labels."""
    supp = support_of_eigenspace(basis, tol)
    if not supp:
        return supp, []
    sub, _ = induced_subgraph(g, supp)
    return supp, [[supp[i] for i in comp] for comp in connected_components(sub)]


def splits_graph(g: Graph, basis: EigenspaceBasis,
                 tol: float = SUPPORT_TOL) -> bool:
    """True when the support induces a disconnected subgraph."""
    supp, comps = _support_components(g, basis, tol)
    if not supp:
        raise ValueError("eigenspace support is empty")
    return len(comps) > 1


def projects_surjectively(basis: EigenspaceBasis, edge: tuple[int, int],
                          tol: float = TRANSVERSALITY_RANK_TOL) -> bool:
    """Rank-2 projection of a multiplicity-2 eigenspace onto an edge.

    Stated for multiplicity 2 only; other dimensions are rejected.
    """
    if basis.dim != 2:
        raise ValueError(
            f"edge projection criterion applies to multiplicity 2, got "
            f"{basis.dim}")
    r, s = edge
    block = basis.vectors[[r, s], :]
    sv = np.linalg.svd(block, compute_uv=False)
    return bool(sv[-1] > tol)


def _offgraph_units(g: Graph) -> list[np.ndarray]:
    """Real basis of Hermitian matrices with zero diagonal, zero on edges."""
    units = []
    for r in range(g.n):
        for s in range(r + 1, g.n):
            if g.has_edge(r, s):
                continue
            e = np.zeros((g.n, g.n), dtype=np.complex128)
            e[r, s] = 1.0
            e[s, r] = 1.0
            units.append(e)
            f = np.zeros((g.n, g.n), dtype=np.complex128)
            f[r, s] = 1j
            f[s, r] = -1j
            units.append(f)
    return units


def _ongraph_units(g: Graph) -> list[np.ndarray]:
    """Real basis of Hermitian matrices supported on the graph."""
    units = []
    for r in range(g.n):
        e = np.zeros((g.n, g.n), dtype=np.complex128)
        e[r, r] = 1.0
        units.append(e)
    for (r, s) in g.edges:
        e = np.zeros((g.n, g.n), dtype=np.complex128)
        e[r, s] = 1.0
        e[s, r] = 1.0
        units.append(e)
        f = np.zeros((g.n, g.n), dtype=np.complex128)
        f[r, s] = 1j
        f[s, r] = -1j
        units.append(f)
    return units


def _herm_to_real(x: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix."""
    m = x.shape[0]
    if m == 1:
        return np.array([x[0, 0].real])
    iu = np.triu_indices(m, k=1)
    return np.concatenate([np.diag(x).real,
                           x[iu].real * np.sqrt(2.0),
                           x[iu].imag * np.sqrt(2.0)])


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
                     tol_degeneracy: float = DEGENERACY_TOL,
                     rank_tol: float = TRANSVERSALITY_RANK_TOL,
                     es: EigenSystem | None = None) -> TransversalityReport:
    """Transversality of the graph family at one eigenvalue cluster.

    Kernel test: the real-linear map X -> (h - lambda) X on Hermitian
    matrices with zero diagonal and zero entries on edges must be
    injective, measured by its smallest singular value against
    ``rank_tol`` times the operator norm scale.  Compression test: the
    compressions of a basis of graph-supported Hermitian directions
    onto the eigenspace must span all Hermitian forms there.  The two
    are equivalent in exact arithmetic and both are always computed; a
    disagreement raises instead of guessing which one to trust.
    """
    if es is None:
        es = eigh(h)
    basis = eigenspace_basis(h, k, tol_degeneracy, es=es)
    m = basis.dim
    lam = basis.eigenvalue
    g = h.graph
    n = g.n
    scale = max(1.0, h.norm_fro)
    shifted = h.to_dense() - lam * np.eye(n)

    off_units = _offgraph_units(g)
    if off_units:
        cols = []
        for unit in off_units:
            y = shifted @ unit
            cols.append(np.concatenate([y.real.ravel(), y.imag.ravel()]))
        a = np.stack(cols, axis=1)
        sv = np.linalg.svd(a, compute_uv=False)
        smallest = float(sv[-1])
        cut = rank_tol * scale
        kernel_dim = int(np.sum(sv <= cut))
        a_transverse = smallest > cut
    else:
        smallest = np.inf
        kernel_dim = 0
        a_transverse = True

    witness = None
    if not a_transverse:
        _, _, vh = np.linalg.svd(a)
        coeffs = vh[-1]
        x = np.zeros((n, n), dtype=np.complex128)
        for c, unit in zip(coeffs, off_units):
            x = x + c * unit
        x = x / np.linalg.norm(x)
        witness = x

    on_units = _ongraph_units(g)
    u = basis.vectors
    comp = np.stack([_herm_to_real(u.conj().T @ unit @ u)
                     for unit in on_units])
    csv = np.linalg.svd(comp, compute_uv=False)
    rank = int(np.sum(csv > rank_tol * max(1.0, float(csv[0]))))
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


def find_edge_separated_pair(g: Graph, basis: EigenspaceBasis,
                             tol: float = SUPPORT_TOL
                             ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvectors supported on different components of the support.

    Computes the components of the subgraph induced on the eigenspace
    support, intersects the eigenspace with the vectors vanishing off
    each component, and returns one unit vector from each of the first
    two components carrying a nonzero intersection.  Such a pair spans
    no common edge.  Returns None when fewer than two components carry
    eigenvectors; this component-wise search is the only strategy
    tried.
    """
    return _separated_pair(g, basis, _support_components(g, basis, tol)[1],
                           tol)


def _separated_pair(g: Graph, basis: EigenspaceBasis, comps: list[list[int]],
                    tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """``find_edge_separated_pair`` over the support components ``comps``."""
    if len(comps) < 2:
        return None
    found: list[np.ndarray] = []
    for comp in comps:
        outside = [r for r in range(g.n) if r not in comp]
        rows = basis.vectors[outside, :]
        _, sv, vh = np.linalg.svd(rows, full_matrices=True)
        full = np.concatenate([sv, np.zeros(basis.dim - sv.size)])
        if full[-1] <= tol:
            vec = basis.vectors @ vh[-1].conj()
            nrm = float(np.linalg.norm(vec))
            if nrm > tol:
                found.append(vec / nrm)
        if len(found) == 2:
            return found[0], found[1]
    return None
