"""Graph and operator families used by the experiments.

Standard graphs, random connected graphs, the strong-diagonal fixtures
whose signings are all admissible, and the randomized two-triangle join
whose exact double eigenvalue the transversality diagnostics check.
Everything random takes an explicit generator; nothing here reads
global state.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalCrossCheckError
from .graphs import Graph, betti_number
from .operators import SupportedMatrix
from .spectral import eigh

#: Diagonal scale of ``surplus_probe_operator``, against unit couplings.
PROBE_ETA = 100.0


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((r, s) for r in range(n)
                          for s in range(r + 1, n)))


def complete_minus_matching(n: int, t: int,
                            rng: np.random.Generator | None = None) -> Graph:
    """Complete graph on n vertices minus t disjoint edges.

    Removes the first t of (0,1), (2,3), ... by default; with a
    generator, removes a random matching instead.
    """
    if t < 0 or 2 * t > n:
        raise ValueError(f"cannot remove {t} disjoint edges from {n} vertices")
    if rng is None:
        removed = {(2 * i, 2 * i + 1) for i in range(t)}
    else:
        perm = rng.permutation(n)
        removed = {tuple(sorted((int(perm[2 * i]), int(perm[2 * i + 1]))))
                   for i in range(t)}
    edges = [(r, s) for r in range(n) for s in range(r + 1, n)
             if (r, s) not in removed]
    return Graph(n, tuple(edges))


def matching_family_for_betti(beta: int) -> tuple[int, int]:
    """Smallest (n, t) with betti(complete_minus_matching(n, t)) = beta.

    On n vertices the family covers the Betti numbers from
    ``(n-1)(n-2)/2 - n//2`` to ``(n-1)(n-2)/2``; these ranges leave
    gaps (11, 16, 22, 23, ...), for which ``ValueError`` is raised.
    """
    if beta < 1:
        raise ValueError("first Betti number must be at least 1")
    n = 3
    while (n - 1) * (n - 2) // 2 < beta:
        n += 1
    t = (n - 1) * (n - 2) // 2 - beta
    if 2 * t > n:
        raise ValueError(
            f"no complete graph minus a matching has first Betti number "
            f"{beta}: {n - 1} vertices reach at most {(n - 2) * (n - 3) // 2}"
            f" and {n} vertices at least {(n - 1) * (n - 2) // 2 - n // 2}")
    return n, t


def random_connected_graph(n: int, num_edges: int,
                           rng: np.random.Generator) -> Graph:
    """Uniform-ish connected graph: random tree plus random extra edges."""
    if num_edges < n - 1:
        raise ValueError("too few edges for a connected graph")
    if num_edges > n * (n - 1) // 2:
        raise ValueError("too many edges")
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    candidates = [(r, s) for r in range(n) for s in range(r + 1, n)
                  if (r, s) not in edges]
    extra = num_edges - len(edges)
    if extra > 0:
        pick = rng.choice(len(candidates), size=extra, replace=False)
        for i in pick:
            edges.add(candidates[int(i)])
    return Graph(n, tuple(sorted(edges)))


def random_regular_like_graph(beta: int, rng: np.random.Generator) -> Graph:
    """Connected graph of prescribed first Betti number with flat degrees.

    Starts from a cycle and adds chords one at a time, always joining
    two vertices of currently smallest degree.
    """
    if beta < 1:
        raise ValueError("first Betti number must be at least 1")
    n = max(4, beta + 2)
    g = cycle_graph(n)
    edges = set(g.edges)
    deg = {v: 2 for v in range(n)}
    for _ in range(beta - 1):
        candidates = [(r, s) for r in range(n) for s in range(r + 1, n)
                      if (r, s) not in edges]
        if not candidates:
            break
        weights = sorted(candidates, key=lambda e: (deg[e[0]] + deg[e[1]],
                                                    e))
        best_score = deg[weights[0][0]] + deg[weights[0][1]]
        pool = [e for e in weights
                if deg[e[0]] + deg[e[1]] == best_score]
        r, s = pool[int(rng.integers(0, len(pool)))]
        edges.add((r, s))
        deg[r] += 1
        deg[s] += 1
    out = Graph(n, tuple(sorted(edges)))
    if betti_number(out) != beta:
        raise InternalCrossCheckError(
            f"built a graph with {betti_number(out)} independent cycles, "
            f"expected {beta}")
    return out


def random_operator(g: Graph, rng: np.random.Generator,
                    diag_spread: float = 1.0) -> SupportedMatrix:
    """Random real operator: uniform diagonal, negative couplings."""
    diag = rng.uniform(0.0, diag_spread, size=g.n)
    off = -rng.uniform(0.5, 1.5, size=g.num_edges)
    return SupportedMatrix(g, diag, off.astype(np.complex128))


def strong_diagonal_fixture(g: Graph, eta: float = 100.0) -> SupportedMatrix:
    """Unit couplings under a widely spaced diagonal.

    With the spacing large against the couplings, every eigenvector is
    localized and nowhere vanishing, all eigenvalues are simple, and
    every signing is admissible; the workhorse fixture for exact
    counting statements.
    """
    diag = eta * np.arange(g.n, dtype=np.float64)
    off = -np.ones(g.num_edges, dtype=np.complex128)
    return SupportedMatrix(g, diag, off)


def surplus_probe_operator(g: Graph, rng: np.random.Generator
                           ) -> SupportedMatrix:
    """Unit couplings with a random widely spaced distinct diagonal,
    ``PROBE_ETA`` times distinct draws from ``[0, 1)``."""
    while True:
        base = rng.uniform(0.0, 1.0, size=g.n)
        if np.min(np.diff(np.sort(base))) > 1e-3:
            break
    diag = PROBE_ETA * base
    off = -np.ones(g.num_edges, dtype=np.complex128)
    return SupportedMatrix(g, diag, off)


def random_join_fixture(rng: np.random.Generator
                        ) -> tuple[SupportedMatrix, int]:
    """Randomized two-triangle join with an exact double eigenvalue.

    Each triangle keeps its two shared-vertex couplings equal, which
    pins an eigenvector vanishing at the shared vertex with eigenvalue
    set by the leaf diagonal and the opposite coupling; the second
    triangle's diagonal is solved to collide with the first.
    """
    a1 = float(rng.uniform(0.5, 1.5))
    b1 = float(rng.uniform(0.5, 1.5))
    d1 = float(rng.uniform(0.0, 1.0))
    a2 = float(rng.uniform(0.5, 1.5))
    b2 = float(rng.uniform(0.5, 1.5))
    lam = d1 + b1
    d2 = lam - b2
    dc = float(rng.uniform(0.0, 1.0))
    g = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)))
    diag = np.array([dc, d1, d1, d2, d2])
    off = np.zeros(6, dtype=np.complex128)
    off[g.edge_index[(0, 1)]] = -a1
    off[g.edge_index[(0, 2)]] = -a1
    off[g.edge_index[(1, 2)]] = -b1
    off[g.edge_index[(0, 3)]] = -a2
    off[g.edge_index[(0, 4)]] = -a2
    off[g.edge_index[(3, 4)]] = -b2
    h = SupportedMatrix(g, diag, off)
    es = eigh(h)
    k = _locate_cluster(h, es, expected=lam, expected_dim=2)
    return h, k


def _locate_cluster(h: SupportedMatrix, es, expected: float,
                    expected_dim: int) -> int:
    close = [j + 1 for j in range(h.graph.n)
             if abs(es.values[j] - expected) < 1e-8 * max(1.0, abs(expected))]
    if len(close) != expected_dim:
        raise InternalCrossCheckError(
            f"expected a multiplicity-{expected_dim} cluster, found "
            f"{len(close)}")
    return close[0]
