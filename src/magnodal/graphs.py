"""Finite simple graphs with one-forms and a spanning forest.

Edges are stored canonically as pairs ``(r, s)`` with ``r < s``, sorted
lexicographically.  Every array indexed "per edge" follows that order.
A one-form assigns a real value to each edge and is tied to a specific
graph instance.

A graph owns one spanning forest: the breadth-first walk runs once per
graph and is cached.  It gives the parent of each vertex, the order
in which the walk reached them and the canonical positions of the
non-forest edges, all filled in the same walk.  Those positions are at
once the torus chart (one angle per independent cycle) and the bits of
the switching classes.  The root paths (the signed chain from the root
of a vertex's tree down to the vertex) are filled in the walk's order
on first read, and the fundamental cycles are built from them, checked
and cached on first read too, as one coefficient array; only the flux
test reads it.  The components, the switching classes and the torus
chart all read the forest, so they are deterministic for a given graph.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

import numpy as np

from .errors import GraphMismatchError, InternalCrossCheckError, SchemaError


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``0 .. n-1``."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) \
                or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {self.n!r}")
        canon = set()
        for e in self.edges:
            r, s = e
            if type(r) is not int or type(s) is not int:
                r, s = _vertex(r), _vertex(s)
            if r == s:
                raise ValueError(f"self-loop at vertex {r} is not allowed")
            if not (0 <= r < self.n and 0 <= s < self.n):
                raise ValueError(f"edge ({r}, {s}) out of range for n={self.n}")
            canon.add((r, s) if r < s else (s, r))
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
        rs = np.fromiter(chain.from_iterable(self.edges), np.intp,
                         2 * len(self.edges)).reshape(-1, 2)
        rs.setflags(write=False)
        return rs

    @cached_property
    def dense_positions(self) -> np.ndarray:
        """Read-only ``(2, num_edges)`` flat positions ``r*n + s`` and
        ``s*n + r`` of the pairs in ``edges`` in a row-major ``n`` by
        ``n`` array."""
        pos = (self.endpoints @ [[self.n, 1], [1, self.n]]).T
        pos.setflags(write=False)
        return pos

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
        """Number of connected components: the forest walk's roots."""
        return self.spanning_forest.parent.count(-1)

    @cached_property
    def spanning_forest(self) -> "SpanningForest":
        """The breadth-first spanning forest, walked once per graph."""
        return _bfs_walk(self)


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
    """Forest edges, parent array (-1 at roots), an order of the
    vertices that puts each after its parent, the canonical positions
    of the non-forest edges and, on first read, the root paths and the
    fundamental cycles.

    ``nonforest`` is a read-only int64 array in ascending order, one
    entry per independent cycle: the coordinates of the torus chart
    and the bits of the switching classes.  Row ``v`` of the read-only
    ``up`` is the chain of tree edges from the root of ``v``'s tree
    down to ``v``.
    """

    graph: Graph
    edges: tuple[tuple[int, int], ...]
    parent: tuple[int, ...]
    order: tuple[int, ...]
    nonforest: np.ndarray

    @cached_property
    def up(self) -> np.ndarray:
        """Root paths, filled in ``order``: a vertex's root path is its
        parent's plus the edge to it."""
        g, parent = self.graph, self.parent
        up = np.zeros((g.n, g.num_edges), dtype=np.int64)
        for w in self.order:
            u = parent[w]
            if u != -1:
                up[w] = up[u]
                if u < w:
                    up[w, g.edge_index[u, w]] = 1
                else:
                    up[w, g.edge_index[w, u]] = -1
        up.setflags(write=False)
        return up

    @cached_property
    def nonforest_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.graph.edges[i] for i in self.nonforest)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Read-only fundamental cycles (beta, |E|): row ``i`` is the
        cycle ``e_rs + up[r] - up[s]`` of the non-forest edge ``(r, s)``
        at position ``nonforest[i]``, which carries coefficient +1; the
        shared part of the two root paths cancels.  One incidence
        product checks every boundary, and their number is checked
        against the Betti number."""
        g, idx, up = self.graph, self.nonforest, self.up
        r, s = g.endpoints[idx].T
        coeffs = up[r] - up[s]
        coeffs[np.arange(len(idx)), idx] += 1
        incidence = np.zeros((g.num_edges, g.n), dtype=np.int64)
        incidence[np.arange(g.num_edges)[:, None], g.endpoints] = [-1, 1]
        if np.any(coeffs @ incidence):
            raise InternalCrossCheckError(
                "fundamental cycle has nonzero boundary")
        if len(coeffs) != betti_number(g):
            raise InternalCrossCheckError(
                "cycle basis size does not match the Betti number")
        coeffs.setflags(write=False)
        return coeffs


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
    return OneForm(g, f[g.endpoints[:, 1]] - f[g.endpoints[:, 0]])


def _bfs_walk(g: Graph) -> SpanningForest:
    """The one breadth-first walk behind ``Graph.spanning_forest``: each
    vertex is reached after its parent, and each forest edge is marked
    as the walk takes it."""
    index = g.edge_index
    parent = [-1] * g.n
    seen = [False] * g.n
    off_forest = [True] * g.num_edges
    forest: list[tuple[int, int]] = []
    order: list[int] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:  # the loop reaches what it appends
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    e = (u, w) if u < w else (w, u)
                    off_forest[index[e]] = False
                    forest.append(e)
                    queue.append(w)
        order += queue
    nonforest = np.fromiter(compress(range(g.num_edges), off_forest),
                            dtype=np.int64)
    nonforest.setflags(write=False)
    return SpanningForest(g, tuple(sorted(forest)), tuple(parent),
                          tuple(order), nonforest)


def cycle_basis(g: Graph) -> SpanningForest:
    """The graph's spanning forest, whose ``coeffs`` are its checked
    fundamental cycles."""
    return g.spanning_forest


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph on a vertex subset.

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
    return Graph(len(vs), tuple(edges))


def _vertex(x) -> int:
    """An edge endpoint as an ``int``: Python and numpy integers pass,
    a bool or a float is refused."""
    if isinstance(x, bool):
        raise ValueError(f"edge endpoint {x!r} is not an integer vertex")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(
            f"edge endpoint {x!r} is not an integer vertex") from None


def _are_numbers(*xs) -> bool:
    """Whether each of ``xs`` is a finite JSON number that fits a float
    (``json`` reads NaN too); one call for a whole list."""
    top = sys.float_info.max
    for x in xs:
        if (type(x) is bool or not isinstance(x, (int, float))
                or not -top <= x <= top):
            return False
    return True


def _are_vertex_pairs(*es) -> bool:
    """Whether each of ``es`` is a JSON pair ``[r, s]`` of integers, not
    bools (which Python counts as ints); one call for a whole list."""
    for e in es:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            return False
        r, s = e
        if (not isinstance(r, int) or isinstance(r, bool)
                or not isinstance(s, int) or isinstance(s, bool)):
            return False
    return True


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
    if not _are_vertex_pairs(*edges):
        e = next(e for e in edges if not _are_vertex_pairs(e))
        raise SchemaError(f"edge entry {e!r} is not a pair of integers")
    try:
        return Graph(n, tuple(map(tuple, edges)))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
