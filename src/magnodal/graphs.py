"""Finite simple graphs with edge chains, one-forms and cycle bases.

Edges are stored canonically as pairs ``(r, s)`` with ``r < s``, sorted
lexicographically.  Every array indexed "per edge" follows that order.
A chain assigns integer coefficients to edges, a one-form assigns real
values; both are tied to a specific graph instance.

A graph owns one spanning forest: the breadth-first walk runs once per
graph and is cached.  It gives the parent of each vertex and its root
path, the signed chain from the root of its tree down to the vertex.
The fundamental cycle basis is built from it once per graph and cached
too, with the canonical positions of its non-forest edges.  The components, the cycle basis and the gauge witness of
``operators.is_gauge_equiv_to_symmetry`` all read it, so they are
deterministic for a given graph.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphMismatchError, InternalCrossCheckError, SchemaError


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``0 .. n-1``."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {self.n!r}")
        canon = set()
        for e in self.edges:
            r, s = e
            r, s = int(r), int(s)
            if r == s:
                raise ValueError(f"self-loop at vertex {r} is not allowed")
            if not (0 <= r < self.n and 0 <= s < self.n):
                raise ValueError(f"edge ({r}, {s}) out of range for n={self.n}")
            canon.add((min(r, s), max(r, s)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map from canonical edge pair to position in ``edges``."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def endpoints(self) -> np.ndarray:
        """Read-only ``(num_edges, 2)`` array of the pairs in ``edges``."""
        rs = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        rs.setflags(write=False)
        return rs

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple per vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for r, s in self.edges:
            nbrs[r].append(s)
            nbrs[s].append(r)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def component_count(self) -> int:
        """Number of connected components, found once per graph."""
        return len(connected_components(self))

    @cached_property
    def spanning_forest(self) -> "SpanningForest":
        """The breadth-first spanning forest, walked once per graph."""
        return _bfs_walk(self)

    @cached_property
    def fundamental_cycles(self) -> "CycleBasis":
        """The cycle basis over ``spanning_forest``, built and checked
        once per graph."""
        return _checked_cycle_basis(self)

    def has_edge(self, r: int, s: int) -> bool:
        return (min(r, s), max(r, s)) in self.edge_index

    def index_of(self, r: int, s: int) -> int:
        return self.edge_index[(min(r, s), max(r, s))]


@dataclass(frozen=True, eq=False)
class Chain:
    """Integer edge coefficients, one per canonical edge."""

    graph: Graph
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64).copy()
        if c.shape != (self.graph.num_edges,):
            raise ValueError("chain length does not match the edge count")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class OneForm:
    """Real value per canonical edge, an antisymmetric edge function."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).copy()
        if v.shape != (self.graph.num_edges,):
            raise ValueError("one-form length does not match the edge count")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other: "OneForm") -> "OneForm":
        _require_same_graph(self.graph, other.graph)
        return OneForm(self.graph, self.values + other.values)

    def __neg__(self) -> "OneForm":
        return OneForm(self.graph, -self.values)


@dataclass(frozen=True, eq=False)
class SpanningForest:
    """Forest edges, parent array (-1 at roots) and root paths.

    Row ``v`` of the read-only ``up`` is the chain of tree edges from
    the root of ``v``'s tree down to ``v``.  The fundamental cycle of a
    non-forest edge ``(r, s)`` is ``e_rs + up[r] - up[s]``: the shared
    part of the two root paths cancels.
    """

    edges: tuple[tuple[int, int], ...]
    parent: tuple[int, ...]
    up: np.ndarray


@dataclass(frozen=True, eq=False)
class CycleBasis:
    """Spanning forest plus one fundamental cycle per non-forest edge.

    ``cycles[i]`` is the fundamental cycle of ``nonforest_edges[i]``,
    oriented so the non-forest edge itself carries coefficient +1.
    """

    graph: Graph
    forest_edges: tuple[tuple[int, int], ...]
    nonforest_edges: tuple[tuple[int, int], ...]
    cycles: tuple[Chain, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    @cached_property
    def nonforest_indices(self) -> np.ndarray:
        """Canonical edge positions of ``nonforest_edges``, read-only."""
        idx = np.array([self.graph.edge_index[e]
                        for e in self.nonforest_edges], dtype=np.int64)
        idx.setflags(write=False)
        return idx


def _require_same_graph(a: Graph, b: Graph) -> None:
    if a != b:
        raise GraphMismatchError("objects live on different graphs")


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex components, each sorted, ordered by smallest member.

    Each vertex joins the component of its root in the graph's spanning
    forest, which is the component's smallest vertex.
    """
    parent = g.spanning_forest.parent
    comps: dict[int, list[int]] = {}
    for v in range(g.n):
        root = v
        while parent[root] != -1:
            root = parent[root]
        comps.setdefault(root, []).append(v)
    return list(comps.values())


def num_components(g: Graph) -> int:
    return g.component_count


def betti_number(g: Graph) -> int:
    """Number of independent cycles, ``|E| - n + c``."""
    return g.num_edges - g.n + num_components(g)


def coboundary(g: Graph, f) -> OneForm:
    """Edge differential of a vertex function, ``(df)_rs = f(s) - f(r)``."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (g.n,):
        raise ValueError("vertex function length does not match n")
    vals = np.empty(g.num_edges)
    for i, (r, s) in enumerate(g.edges):
        vals[i] = f[s] - f[r]
    return OneForm(g, vals)


def integrate(alpha: OneForm, xi: Chain) -> float:
    """Pairing of a one-form with a chain, summed edge by edge."""
    _require_same_graph(alpha.graph, xi.graph)
    return float(np.dot(xi.coeffs.astype(np.float64), alpha.values))


def boundary(xi: Chain) -> np.ndarray:
    """Vertex boundary of a chain; zero exactly on cycles."""
    out = np.zeros(xi.graph.n, dtype=np.int64)
    for coeff, (r, s) in zip(xi.coeffs, xi.graph.edges):
        out[s] += coeff
        out[r] -= coeff
    return out


def bfs_forest(g: Graph) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """Breadth-first spanning forest.

    Returns the canonical forest edges and a fresh parent array with -1
    at roots.  Roots are the smallest vertex of each component and
    neighbors are visited in ascending order, so the forest is a
    deterministic function of the graph.
    """
    forest = g.spanning_forest
    return forest.edges, list(forest.parent)


def _bfs_walk(g: Graph) -> SpanningForest:
    """The one breadth-first walk behind ``Graph.spanning_forest``."""
    parent = [-1] * g.n
    seen = [False] * g.n
    forest: list[tuple[int, int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    forest.append((min(u, w), max(u, w)))
                    queue.append(w)
    return SpanningForest(tuple(sorted(forest)), tuple(parent),
                          _root_paths(g, parent))


def _root_paths(g: Graph, parent) -> np.ndarray:
    """Read-only root path of every vertex of the forest ``parent``."""
    up = np.zeros((g.n, g.num_edges), dtype=np.int64)
    done = [p == -1 for p in parent]
    for v in range(g.n):
        path = []
        while not done[v]:
            path.append(v)
            v = parent[v]
        for w in reversed(path):
            u = parent[w]
            up[w] = up[u]
            up[w, g.index_of(u, w)] += 1 if u < w else -1
            done[w] = True
    up.setflags(write=False)
    return up


def _fundamental_cycles(g: Graph, forest: tuple[tuple[int, int], ...],
                        up: np.ndarray) -> CycleBasis:
    """One cycle ``e_rs + up[r] - up[s]`` per non-forest edge ``(r, s)``."""
    forest_set = set(forest)
    nonforest = tuple(e for e in g.edges if e not in forest_set)
    cycles = []
    for (r, s) in nonforest:
        coeffs = up[r] - up[s]
        coeffs[g.index_of(r, s)] += 1
        chain = Chain(g, coeffs)
        if np.any(boundary(chain)):
            raise InternalCrossCheckError(
                "fundamental cycle has nonzero boundary")
        cycles.append(chain)
    return CycleBasis(g, forest, nonforest, tuple(cycles))


def cycle_basis_from_forest(g: Graph, forest: tuple[tuple[int, int], ...],
                            parent: list[int]) -> CycleBasis:
    """Fundamental cycles of the non-forest edges over a given forest."""
    return _fundamental_cycles(g, forest, _root_paths(g, parent))


def cycle_basis(g: Graph) -> CycleBasis:
    """Deterministic fundamental cycle basis from the graph's BFS forest.

    The basis is cached with the graph; its chains are read-only.
    """
    return g.fundamental_cycles


def _checked_cycle_basis(g: Graph) -> CycleBasis:
    """The one build behind ``Graph.fundamental_cycles``."""
    forest = g.spanning_forest
    basis = _fundamental_cycles(g, forest.edges, forest.up)
    if len(basis) != betti_number(g):
        raise InternalCrossCheckError(
            "cycle basis size does not match the Betti number")
    return basis


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    """Subgraph on a vertex subset, with the old-to-new vertex map.

    Vertices are renumbered by ascending original label.
    """
    vs = sorted(set(int(v) for v in vertices))
    if not vs:
        raise ValueError("empty vertex subset")
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    remap = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    edges = [(remap[r], remap[s]) for (r, s) in g.edges if r in keep and s in keep]
    return Graph(len(vs), tuple(edges)), remap


def _is_number(x) -> bool:
    """A finite JSON number that fits a float (``json`` reads NaN too)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[r, s] for (r, s) in g.edges]}


def graph_from_json(obj) -> Graph:
    """Parse and validate the graph JSON layout.

    Expected shape: ``{"n": int, "edges": [[r, s], ...]}`` with
    0-indexed endpoints.  Pairs are canonicalized and deduplicated.
    """
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    if "n" not in obj or "edges" not in obj:
        raise SchemaError("graph document needs keys 'n' and 'edges'")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise SchemaError(f"'n' must be a nonnegative integer, got {n!r}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise SchemaError("'edges' must be a list of [r, s] pairs")
    pairs = []
    for e in edges:
        if (not isinstance(e, (list, tuple)) or len(e) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) for x in e)):
            raise SchemaError(f"edge entry {e!r} is not a pair of integers")
        pairs.append((e[0], e[1]))
    try:
        return Graph(n, tuple(pairs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
