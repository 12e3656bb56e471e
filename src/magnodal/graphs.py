"""Finite simple graphs with edge chains, one-forms and cycle bases.

Edges are stored canonically as pairs ``(r, s)`` with ``r < s``, sorted
lexicographically.  Every array indexed "per edge" follows that order.
A chain assigns integer coefficients to edges, a one-form assigns real
values; both are tied to a specific graph instance.  The fundamental
cycle basis is built from a breadth-first spanning forest and is
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


def _require_same_graph(a: Graph, b: Graph) -> None:
    if a != b:
        raise GraphMismatchError("objects live on different graphs")


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex components, each sorted, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        comp = []
        while queue:
            u = queue.pop(0)
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


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

    Returns the canonical forest edges and a parent array with -1 at
    roots.  Roots are the smallest vertex of each component and
    neighbors are visited in ascending order, so the forest is a
    deterministic function of the graph.
    """
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
    return tuple(sorted(forest)), parent


def cycle_basis_from_forest(g: Graph, forest: tuple[tuple[int, int], ...],
                            parent: list[int]) -> CycleBasis:
    """Fundamental cycles of the non-forest edges over a given forest."""
    forest_set = set(forest)
    nonforest = tuple(e for e in g.edges if e not in forest_set)

    def path_up(v: int) -> list[int]:
        path = [v]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path

    cycles = []
    for (r, s) in nonforest:
        up_r = path_up(r)
        up_s = path_up(s)
        in_r = {v: i for i, v in enumerate(up_r)}
        j = 0
        while up_s[j] not in in_r:
            j += 1
        lca = up_s[j]
        coeffs = np.zeros(g.num_edges, dtype=np.int64)

        def add_step(a: int, b: int) -> None:
            i = g.index_of(a, b)
            coeffs[i] += 1 if a < b else -1

        add_step(r, s)
        v = s
        while v != lca:
            add_step(v, parent[v])
            v = parent[v]
        down = []
        v = r
        while v != lca:
            down.append(v)
            v = parent[v]
        for v in reversed(down):
            add_step(parent[v], v)
        chain = Chain(g, coeffs)
        if np.any(boundary(chain)):
            raise InternalCrossCheckError(
                "fundamental cycle has nonzero boundary")
        cycles.append(chain)
    return CycleBasis(g, forest, nonforest, tuple(cycles))


def cycle_basis(g: Graph) -> CycleBasis:
    """Deterministic fundamental cycle basis from the BFS forest."""
    forest, parent = bfs_forest(g)
    basis = cycle_basis_from_forest(g, forest, parent)
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


def oneform_to_json(alpha: OneForm) -> dict:
    return {
        "graph": graph_to_json(alpha.graph),
        "values": [
            {"edge": [r, s], "value": float(v)}
            for (r, s), v in zip(alpha.graph.edges, alpha.values)
        ],
    }


def oneform_from_json(obj) -> OneForm:
    """Parse a one-form document; every edge must appear exactly once."""
    if not isinstance(obj, dict) or "graph" not in obj or "values" not in obj:
        raise SchemaError("one-form document needs keys 'graph' and 'values'")
    g = graph_from_json(obj["graph"])
    entries = obj["values"]
    if not isinstance(entries, list):
        raise SchemaError("'values' must be a list")
    vals = np.full(g.num_edges, np.nan)
    seen = set()
    for item in entries:
        if not isinstance(item, dict) or "edge" not in item or "value" not in item:
            raise SchemaError("each value entry needs 'edge' and 'value'")
        e = item["edge"]
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise SchemaError(f"bad edge reference {e!r}")
        key = (min(e), max(e))
        if key not in g.edge_index:
            raise SchemaError(f"edge {e!r} is not in the graph")
        if key in seen:
            raise SchemaError(f"edge {e!r} listed twice")
        seen.add(key)
        v = item["value"]
        if not _is_number(v):
            raise SchemaError(f"value for edge {e!r} must be a finite number")
        vals[g.edge_index[key]] = float(v)
    if len(seen) != g.num_edges:
        missing = [e for e in g.edges if e not in seen]
        raise SchemaError(f"missing values for edges {missing}")
    return OneForm(g, vals)
