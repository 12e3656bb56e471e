import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_basis_by_lca, small_graphs
from magnodal.errors import (
    GraphMismatchError,
    InternalCrossCheckError,
    SchemaError,
)
from magnodal.graphs import (
    Chain,
    Graph,
    OneForm,
    betti_number,
    bfs_forest,
    boundary,
    coboundary,
    connected_components,
    cycle_basis,
    cycle_basis_from_forest,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    integrate,
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

    def test_adjacency_and_lookup(self):
        g = c3()
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))
        assert g.has_edge(2, 0)
        assert not Graph(3, ((0, 1),)).has_edge(1, 2)
        assert g.index_of(2, 1) == g.index_of(1, 2)

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

    def test_one_forest_walk_per_graph(self, monkeypatch):
        import magnodal.graphs as graphs

        walks = 0
        original = graphs._bfs_walk

        def counting(g):
            nonlocal walks
            walks += 1
            return original(g)

        monkeypatch.setattr(graphs, "_bfs_walk", counting)
        g = k4()
        for _ in range(3):
            bfs_forest(g)
            cycle_basis(g)
            connected_components(g)
        assert walks == 1
        forest, parent = bfs_forest(g)
        parent[1] = 3
        assert bfs_forest(g) == (forest, [-1, 0, 0, 0])

    def test_one_cycle_basis_per_graph(self, monkeypatch):
        import magnodal.graphs as graphs

        checked = []
        original = graphs.boundary

        def counting(chain):
            checked.append(chain)
            return original(chain)

        monkeypatch.setattr(graphs, "boundary", counting)
        g = k4()
        basis = cycle_basis(g)
        assert all(cycle_basis(g) is basis for _ in range(3))
        assert len(checked) == betti_number(g) == 3
        # an equal but distinct graph builds and checks its own basis
        assert cycle_basis(k4()) is not basis
        assert len(checked) == 6
        with pytest.raises(ValueError):
            basis.cycles[0].coeffs[0] = 5


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
    return (a.forest_edges == b.forest_edges
            and a.nonforest_edges == b.nonforest_edges
            and all(np.array_equal(x.coeffs, y.coeffs)
                    for x, y in zip(a.cycles, b.cycles, strict=True)))


class TestCyclesAgainstLca:
    """Root-path differences against the lowest-common-ancestor walk."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bfs_and_custom_forests(self, data):
        g = data.draw(small_graphs(9))
        assert same_basis(cycle_basis(g),
                          cycle_basis_by_lca(g, *bfs_forest(g)))
        order = data.draw(st.permutations(range(g.num_edges)))
        forest, parent = kruskal_forest(g, order)
        assert same_basis(cycle_basis_from_forest(g, forest, parent),
                          cycle_basis_by_lca(g, forest, parent))


class TestFormsAndChains:
    def test_coboundary_values(self):
        g = c3()
        df = coboundary(g, [1.0, 4.0, 9.0])
        # edges (0,1), (0,2), (1,2)
        assert np.allclose(df.values, [3.0, 8.0, 5.0])

    def test_coboundary_wrong_length(self):
        with pytest.raises(ValueError):
            coboundary(c3(), [0.0, 1.0])

    def test_integrate_and_boundary(self):
        g = c3()
        # cycle 0 -> 1 -> 2 -> 0 in canonical orientation terms
        xi = Chain(g, [1, -1, 1])
        assert np.all(boundary(xi) == 0)
        alpha = OneForm(g, [0.3, 0.7, 0.1])
        assert integrate(alpha, xi) == pytest.approx(0.3 - 0.7 + 0.1)

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
            for xi in cycle_basis(g).cycles:
                bound = 1e-12 * max(1.0, float(np.max(np.abs(f))))
                assert abs(integrate(df, xi)) <= bound * g.num_edges


class TestForestAndCycles:
    def test_bfs_forest_deterministic(self):
        g = k4()
        forest, parent = bfs_forest(g)
        assert forest == ((0, 1), (0, 2), (0, 3))
        assert parent == [-1, 0, 0, 0]
        assert bfs_forest(g) == (forest, parent)

    def test_tree_has_empty_basis(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        assert len(cycle_basis(g)) == 0

    def test_c3_single_cycle_uses_all_edges(self):
        basis = cycle_basis(c3())
        assert len(basis) == 1
        assert np.all(basis.cycles[0].coeffs != 0)

    def test_k4_three_cycles_zero_boundary(self):
        basis = cycle_basis(k4())
        assert len(basis) == 3
        for xi in basis.cycles:
            assert np.all(boundary(xi) == 0)

    def test_nonforest_edge_carries_plus_one(self):
        g = c3()
        basis = cycle_basis(g)
        e = basis.nonforest_edges[0]
        assert basis.cycles[0].coeffs[g.edge_index[e]] == 1

    def test_cycle_count_matches_betti_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            edges = [(r, s) for r in range(n) for s in range(r + 1, n)
                     if rng.random() < 0.5]
            g = Graph(n, tuple(edges))
            assert len(cycle_basis(g)) == betti_number(g)

    def test_custom_forest_accepted(self):
        g = k4()
        # path forest 0-1-2-3 instead of the BFS star at 0
        forest = ((0, 1), (1, 2), (2, 3))
        parent = [-1, 0, 1, 2]
        basis = cycle_basis_from_forest(g, forest, parent)
        assert len(basis) == 3
        for xi in basis.cycles:
            assert np.all(boundary(xi) == 0)


class TestInducedSubgraph:
    def test_c3_pair(self):
        sub, remap = induced_subgraph(c3(), [0, 1])
        assert sub.n == 2 and sub.edges == ((0, 1),)
        assert remap == {0: 0, 1: 1}

    def test_identity(self):
        g = c3()
        sub, _ = induced_subgraph(g, range(3))
        assert sub == g

    def test_star_minus_center(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        sub, _ = induced_subgraph(g, [1, 2, 3])
        assert sub.n == 3 and sub.edges == ()

    def test_relabeling(self):
        g = Graph(5, ((1, 3), (3, 4)))
        sub, remap = induced_subgraph(g, [4, 3, 1])
        assert remap == {1: 0, 3: 1, 4: 2}
        assert sub.edges == ((0, 1), (1, 2))

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
        import magnodal.graphs as graphs

        monkeypatch.setattr(graphs, "boundary",
                            lambda chain: np.ones(chain.graph.n))
        with pytest.raises(InternalCrossCheckError, match="boundary"):
            cycle_basis(k4())

    def test_size_against_betti_number(self, monkeypatch):
        import magnodal.graphs as graphs

        monkeypatch.setattr(graphs, "betti_number", lambda g: 0)
        with pytest.raises(InternalCrossCheckError, match="Betti"):
            cycle_basis(k4())
