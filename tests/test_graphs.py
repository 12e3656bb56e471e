import collections
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (boundary, cycle_basis_by_lca, cycle_basis_by_loop,
                      cycle_basis_from_forest, cycle_builds, forests_walked,
                      lose_a_root_path, nonforest_by_set_difference,
                      root_paths, same_bits, small_graphs)
import magnodal
from magnodal.errors import (
    GraphMismatchError,
    InternalCrossCheckError,
    SchemaError,
)
from magnodal.families import complete_graph, random_connected_graph
from magnodal.graphs import (
    Graph,
    OneForm,
    betti_number,
    coboundary,
    connected_components,
    cycle_basis,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    num_components,
)


def c3():
    return Graph(3, ((0, 1), (1, 2), (0, 2)))


def k4():
    return Graph(4, tuple((r, s) for r in range(4) for s in range(r + 1, 4)))


class TestGraph:
    def test_edges_canonicalized_and_sorted(self):
        g = Graph(4, ((3, 1), (2, 0), (1, 3), (0, 2)))
        assert g.edges == ((0, 2), (1, 3))
        assert g.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 1),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    @pytest.mark.parametrize("n", [True, False, 3.0])
    def test_vertex_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n, ())

    @pytest.mark.parametrize("edge", [(True, 2), (0, False), (0, 2.0),
                                      (1.5, 2), (np.bool_(True), 2),
                                      (0, np.float64(2.0)), ("0", 2)])
    def test_endpoints_must_be_integers(self, edge):
        with pytest.raises(ValueError, match="integer vertex"):
            Graph(3, ((0, 1), edge))

    def test_numpy_integer_endpoints(self):
        g = Graph(3, ((np.int64(2), np.int32(0)), (np.intp(1), 2)))
        assert g == Graph(3, ((0, 2), (1, 2)))
        assert all(type(v) is int for e in g.edges for v in e)

    def test_adjacency_and_lookup(self):
        g = c3()
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))
        assert g.edge_index == {(0, 1): 0, (0, 2): 1, (1, 2): 2}

    def test_components_and_betti(self):
        g = Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
        assert connected_components(g) == [[0, 1, 2], [3, 4]]
        assert num_components(g) == 2
        assert betti_number(g) == 4 - 5 + 2

    def test_component_lists_are_fresh(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert num_components(g) == 2
        comps = connected_components(g)
        comps[0].append(9)
        assert connected_components(g) == [[0, 1], [2, 3]]
        assert num_components(g) == 2

    def test_empty_graph(self):
        g = Graph(0)
        assert g.edges == ()
        assert num_components(g) == 0
        assert betti_number(g) == 0

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9))
    def test_components_match_union_find(self, g):
        assert connected_components(g) == union_find_components(g)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9))
    @example(Graph(0))
    @example(Graph(5))
    @example(Graph(6, ((0, 4), (1, 4), (2, 5))))
    @example(Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6))))
    def test_component_count_reads_the_walk(self, g):
        """The count of the forest walk's roots, for vertex-less,
        edgeless, forest and disconnected graphs alike."""
        assert g.component_count == len(connected_components(g))

    def test_component_count_lists_no_component(self, monkeypatch):
        import magnodal.graphs as graphs

        def refuse(g):
            raise AssertionError("components listed for a count")

        monkeypatch.setattr(graphs, "connected_components", refuse)
        g = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6)))
        assert num_components(g) == 3 and betti_number(g) == 1

    def test_one_forest_walk_per_graph(self, monkeypatch):
        walked = forests_walked(monkeypatch)
        g = k4()
        for _ in range(3):
            assert g.spanning_forest.parent == (-1, 0, 0, 0)
            g.spanning_forest.coeffs
            connected_components(g)
        assert len(walked) == 1

    def test_one_cycle_basis_per_graph(self, monkeypatch):
        built = cycle_builds(monkeypatch)
        g = k4()
        forest = g.spanning_forest
        assert cycle_basis(g) is forest and built == []
        coeffs = forest.coeffs
        assert all(g.spanning_forest.coeffs is coeffs for _ in range(3))
        assert built == [forest] and len(coeffs) == betti_number(g) == 3
        # an equal but distinct graph builds and checks its own cycles
        assert k4().spanning_forest.coeffs is not coeffs
        assert len(built) == 2 and built[1].graph is not g
        with pytest.raises(ValueError):
            coeffs[0, 0] = 5


def union_find_components(g):
    """Components by union-find, the oracle for ``connected_components``."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for r, s in g.edges:
        root[max(find(r), find(s))] = min(find(r), find(s))
    comps = {}
    for v in range(g.n):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())


def kruskal_forest(g, order):
    """Spanning forest from the edges taken in ``order``.

    Each tree is rooted at its largest vertex and its parents are set
    depth first, so neither the forest nor the parent order is the
    breadth-first one.
    """
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    forest = []
    for i in order:
        r, s = g.edges[i]
        a, b = find(r), find(s)
        if a != b:
            root[a] = b
            forest.append((r, s))
    nbrs = [[] for _ in range(g.n)]
    for r, s in forest:
        nbrs[r].append(s)
        nbrs[s].append(r)
    parent, seen = [-1] * g.n, [False] * g.n
    for start in reversed(range(g.n)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    stack.append(w)
    return tuple(sorted(forest)), parent


def same_basis(a, b):
    """Whether two (non-forest positions, coefficients) pairs agree in
    dtype, shape and bits."""
    return all(x.dtype == y.dtype == np.int64 and x.shape == y.shape
               and same_bits(x, y) for x, y in zip(a, b, strict=True))


class TestCyclesAgainstLca:
    """Root-path differences against the lowest-common-ancestor walk."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bfs_and_custom_forests(self, data):
        g = data.draw(small_graphs(9))
        forest = g.spanning_forest
        assert same_basis((forest.nonforest, forest.coeffs),
                          cycle_basis_by_lca(g, forest.edges, forest.parent))
        order = data.draw(st.permutations(range(g.num_edges)))
        forest, parent = kruskal_forest(g, order)
        assert same_basis(cycle_basis_from_forest(g, forest, parent),
                          cycle_basis_by_lca(g, forest, parent))


def random_graph(rng, n: int, p: float) -> Graph:
    return Graph(n, tuple((r, s) for r in range(n) for s in range(r + 1, n)
                          if rng.random() < p))


def forest_of(g: Graph) -> Graph:
    """The graph's BFS spanning forest as a graph of its own (beta 0)."""
    return Graph(g.n, g.spanning_forest.edges)


def bfs_parents(g: Graph) -> list[int]:
    """Parents of a breadth-first walk with a first-in first-out queue
    from each unvisited vertex in turn, the oracle of the walk's order."""
    parent, seen = [-1] * g.n, [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    queue.append(w)
    return parent


class TestOneWalk:
    """One walk gives the parents in breadth-first order, the walk's
    order and the forest edges, and the root paths follow on first
    read; the basis is one read-only array."""

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9))
    def test_walk_against_the_queue_and_the_parent_paths(self, g):
        forest = g.spanning_forest
        assert list(forest.parent) == bfs_parents(g)
        at = {v: i for i, v in enumerate(forest.order)}
        assert sorted(forest.order) == list(range(g.n))
        assert all(at[p] < at[v] for v, p in enumerate(forest.parent)
                   if p != -1)
        assert "up" not in vars(forest)
        assert forest.edges == tuple(sorted(
            (min(p, v), max(p, v)) for v, p in enumerate(forest.parent)
            if p != -1))
        assert forest.up.dtype == np.int64 and not forest.up.flags.writeable
        assert same_bits(forest.up, root_paths(g, forest.parent))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9))
    @example(Graph(0))
    @example(Graph(3))
    @example(Graph(4, ((0, 1), (1, 2), (1, 3))))
    @example(Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4))))
    def test_nonforest_against_the_set_difference(self, g):
        nonforest = g.spanning_forest.nonforest
        assert nonforest.dtype == np.int64 and nonforest.ndim == 1
        assert not nonforest.flags.writeable
        assert nonforest.tolist() == nonforest_by_set_difference(
            g, g.spanning_forest.edges).tolist()
        assert len(nonforest) == betti_number(g)
        assert g.spanning_forest.nonforest_edges == tuple(
            g.edges[i] for i in nonforest)

    def test_basis_is_one_array_on_first_read(self):
        g = complete_graph(6)
        forest = g.spanning_forest
        assert "coeffs" not in vars(forest)
        coeffs = forest.coeffs
        assert forest.coeffs is coeffs
        assert coeffs.shape == (betti_number(g), g.num_edges)
        assert coeffs.dtype == forest.nonforest.dtype == np.int64
        assert not coeffs.flags.writeable
        assert not forest.nonforest.flags.writeable


class TestArrayBuildAgainstLoop:
    """The array-built basis against the one-cycle-at-a-time loop over
    the same root paths: forest edges, non-forest edges and coefficient
    rows bit for bit."""

    @staticmethod
    def check(g):
        forest = g.spanning_forest
        assert same_basis((forest.nonforest, forest.coeffs),
                          cycle_basis_by_loop(g, forest.edges, forest.up))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_complete_graphs(self, n):
        self.check(complete_graph(n))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_and_their_forests(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(1, 13)),
                         float(rng.uniform(0.1, 0.9)))
        self.check(g)
        self.check(forest_of(g))
        assert len(forest_of(g).spanning_forest.coeffs) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_connected_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        g = random_connected_graph(n, int(rng.integers(
            n - 1, n * (n - 1) // 2 + 1)), rng)
        assert num_components(g) == 1
        self.check(g)

    def test_disconnected_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_graph(rng, 6, 0.6)
            g = Graph(12, a.edges + tuple((r + 6, s + 6) for r, s in
                                          random_graph(rng, 6, 0.6).edges))
            assert num_components(g) >= 2
            self.check(g)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9))
    def test_any_small_graph(self, g):
        self.check(g)


class TestFormsAndChains:
    def test_coboundary_values(self):
        g = c3()
        df = coboundary(g, [1.0, 4.0, 9.0])
        # edges (0,1), (0,2), (1,2)
        assert np.allclose(df.values, [3.0, 8.0, 5.0])

    def test_coboundary_wrong_length(self):
        with pytest.raises(ValueError):
            coboundary(c3(), [0.0, 1.0])

    def test_boundary(self):
        g = c3()
        # cycle 0 -> 1 -> 2 -> 0 in canonical orientation terms
        assert np.all(boundary(g, [1, -1, 1]) == 0)
        assert boundary(g, [1, 0, 0]).tolist() == [-1, 1, 0]

    def test_oneform_add_neg(self):
        g = c3()
        a = OneForm(g, [1.0, 2.0, 3.0])
        b = OneForm(g, [0.5, 0.5, 0.5])
        assert np.allclose((a + b).values, [1.5, 2.5, 3.5])
        assert np.allclose((-a).values, [-1.0, -2.0, -3.0])

    def test_graph_mismatch(self):
        a = OneForm(c3(), [1.0, 2.0, 3.0])
        b = OneForm(Graph(3, ((0, 1), (1, 2))), [1.0, 2.0])
        with pytest.raises(GraphMismatchError):
            _ = a + b

    def test_exact_form_integrates_to_zero_on_cycles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 13))
            edges = [(r, s) for r in range(n) for s in range(r + 1, n)
                     if rng.random() < 0.4]
            g = Graph(n, tuple(edges))
            f = rng.uniform(-3.0, 3.0, size=n)
            df = coboundary(g, f)
            flux = g.spanning_forest.coeffs @ df.values
            bound = 1e-12 * max(1.0, float(np.max(np.abs(f))))
            assert np.all(np.abs(flux) <= bound * g.num_edges)


class TestForestAndCycles:
    def test_bfs_forest_deterministic(self):
        forest = k4().spanning_forest
        assert forest.edges == ((0, 1), (0, 2), (0, 3))
        assert forest.parent == (-1, 0, 0, 0)

    def test_tree_has_empty_basis(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        assert g.spanning_forest.coeffs.shape == (0, 3)

    def test_c3_single_cycle_uses_all_edges(self):
        coeffs = c3().spanning_forest.coeffs
        assert len(coeffs) == 1
        assert np.all(coeffs[0] != 0)

    def test_k4_three_cycles_zero_boundary(self):
        g = k4()
        assert len(g.spanning_forest.coeffs) == 3
        for row in g.spanning_forest.coeffs:
            assert np.all(boundary(g, row) == 0)

    def test_nonforest_edge_carries_plus_one(self):
        g = c3()
        forest = g.spanning_forest
        e = forest.nonforest_edges[0]
        assert forest.coeffs[0, g.edge_index[e]] == 1

    def test_cycle_count_matches_betti_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            edges = [(r, s) for r in range(n) for s in range(r + 1, n)
                     if rng.random() < 0.5]
            g = Graph(n, tuple(edges))
            assert len(g.spanning_forest.coeffs) == betti_number(g)

    def test_custom_forest_accepted(self):
        g = k4()
        # path forest 0-1-2-3 instead of the BFS star at 0
        forest = ((0, 1), (1, 2), (2, 3))
        parent = [-1, 0, 1, 2]
        _, coeffs = cycle_basis_from_forest(g, forest, parent)
        assert len(coeffs) == 3
        for row in coeffs:
            assert np.all(boundary(g, row) == 0)


class TestInducedSubgraph:
    def test_c3_pair(self):
        sub = induced_subgraph(c3(), [0, 1])
        assert sub.n == 2 and sub.edges == ((0, 1),)

    def test_identity(self):
        g = c3()
        assert induced_subgraph(g, range(3)) == g

    def test_star_minus_center(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        sub = induced_subgraph(g, [1, 2, 3])
        assert sub.n == 3 and sub.edges == ()

    def test_relabeling(self):
        # vertices 1, 3, 4 become 0, 1, 2 in ascending order, whatever
        # order they are given in; the edge (0, 1) leaves with vertex 0
        g = Graph(5, ((0, 1), (1, 3), (3, 4), (1, 4)))
        sub = induced_subgraph(g, [4, 3, 1])
        assert sub == Graph(3, ((0, 1), (1, 2), (0, 2)))
        assert sub.edges == ((0, 1), (0, 2), (1, 2))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(c3(), [])


class TestJson:
    def test_graph_round_trip(self):
        g = k4()
        assert graph_from_json(graph_to_json(g)) == g

    def test_graph_schema_errors(self):
        for bad in (None, [], {"n": 2}, {"edges": []},
                    {"n": -1, "edges": []}, {"n": True, "edges": []},
                    {"n": 2, "edges": [[0]]}, {"n": 2, "edges": [[0, 1.5]]},
                    {"n": 2, "edges": [[0, 0]]}, {"n": 2, "edges": "x"}):
            with pytest.raises(SchemaError):
                graph_from_json(bad)


class TestCycleBasisChecks:
    """The cycle basis cross-checks raise, so they also hold under -O."""

    def test_nonzero_boundary(self, monkeypatch):
        lose_a_root_path(monkeypatch)
        with pytest.raises(InternalCrossCheckError, match="boundary"):
            k4().spanning_forest.coeffs

    def test_nonzero_boundary_survives_optimized_mode(self):
        script = textwrap.dedent("""
            import sys
            import magnodal.graphs as graphs
            from magnodal.errors import InternalCrossCheckError
            from magnodal.families import complete_graph

            if not sys.flags.optimize:
                sys.exit(2)
            original = graphs.SpanningForest.up.func

            def wrong(forest):
                up = original(forest).copy()
                up[-1] = 0
                return up

            graphs.SpanningForest.up = property(wrong)
            try:
                complete_graph(4).spanning_forest.coeffs
            except InternalCrossCheckError as exc:
                sys.exit(0 if "nonzero boundary" in str(exc) else 1)
            sys.exit(1)
        """)
        src = os.path.dirname(os.path.dirname(magnodal.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_size_against_betti_number(self, monkeypatch):
        import magnodal.graphs as graphs

        monkeypatch.setattr(graphs, "betti_number", lambda g: 0)
        with pytest.raises(InternalCrossCheckError, match="Betti"):
            k4().spanning_forest.coeffs
