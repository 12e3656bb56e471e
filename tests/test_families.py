"""Graph and operator families, including the degenerate fixtures.

The path, the star, the two-triangle join and the degenerate ring are
the test fixtures of ``conftest``; every other family is the package's.
"""

import numpy as np
import pytest

from conftest import (degenerate_ring_fixture, path_graph, star_graph,
                      two_triangle_join)
from magnodal.families import (
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    matching_family_for_betti,
    random_connected_graph,
    random_join_fixture,
    random_operator,
    random_regular_like_graph,
    strong_diagonal_fixture,
    surplus_probe_operator,
)
from magnodal.graphs import betti_number, num_components
from magnodal.spectral import eigh, multiplicity


class TestStandardGraphs:
    def test_path(self):
        g = path_graph(4)
        assert g.n == 4 and g.num_edges == 3 and betti_number(g) == 0

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.n == 5 and g.num_edges == 5 and betti_number(g) == 1
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10 and betti_number(g) == 6

    def test_star(self):
        g = star_graph(4)
        assert g.n == 5 and g.num_edges == 4 and betti_number(g) == 0
        assert all(e[0] == 0 for e in g.edges)


class TestCompleteMinusMatching:
    def test_default_removal(self):
        g = complete_minus_matching(4, 1)
        assert g.num_edges == 5
        assert (0, 1) not in g.edge_index
        assert betti_number(g) == 2

    def test_zero_removed_is_complete(self):
        g = complete_minus_matching(5, 0)
        assert g.edges == complete_graph(5).edges

    def test_random_matching(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = complete_minus_matching(6, 3, rng)
            assert g.num_edges == 15 - 3
            assert num_components(g) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_minus_matching(4, -1)
        with pytest.raises(ValueError):
            complete_minus_matching(4, 3)


class TestMatchingFamilyTable:
    def test_frozen_table(self):
        expected = {1: (3, 0), 2: (4, 1), 3: (4, 0), 4: (5, 2),
                    5: (5, 1), 6: (5, 0), 7: (6, 3), 8: (6, 2)}
        for beta, (n, t) in expected.items():
            assert matching_family_for_betti(beta) == (n, t)
            assert betti_number(complete_minus_matching(n, t)) == beta

    def test_validation(self):
        with pytest.raises(ValueError):
            matching_family_for_betti(0)

    @pytest.mark.parametrize("beta", [11, 16, 22, 23, 29])
    def test_gap_raises(self, beta):
        with pytest.raises(ValueError, match=f"Betti number {beta}:"):
            matching_family_for_betti(beta)

    def test_every_other_beta_is_reached(self):
        reached = set()
        for n in range(3, 9):
            for t in range(n // 2 + 1):
                reached.add(betti_number(complete_minus_matching(n, t)))
        for beta in range(1, 22):
            if beta in reached:
                n, t = matching_family_for_betti(beta)
                assert betti_number(complete_minus_matching(n, t)) == beta
            else:
                with pytest.raises(ValueError):
                    matching_family_for_betti(beta)


class TestRandomGraphs:
    def test_connected_with_exact_edge_count(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            g = random_connected_graph(n, m, rng)
            assert g.num_edges == m
            assert num_components(g) == 1

    def test_edge_count_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_connected_graph(4, 2, rng)
        with pytest.raises(ValueError):
            random_connected_graph(4, 7, rng)

    def test_regular_like_betti(self):
        rng = np.random.default_rng(12)
        for beta in range(1, 9):
            g = random_regular_like_graph(beta, rng)
            assert betti_number(g) == beta
            assert num_components(g) == 1


class TestOperatorFamilies:
    def test_random_operator_ranges(self):
        rng = np.random.default_rng(7)
        g = complete_graph(4)
        h = random_operator(g, rng, diag_spread=2.0)
        assert h.is_real
        assert np.all(h.diag >= 0) and np.all(h.diag < 2.0)
        assert np.all(h.offdiag.real <= -0.5) and np.all(h.offdiag.real >= -1.5)

    def test_strong_diagonal_values(self):
        h = strong_diagonal_fixture(path_graph(3), eta=50.0)
        np.testing.assert_array_equal(h.diag, [0.0, 50.0, 100.0])
        np.testing.assert_array_equal(h.offdiag, [-1.0, -1.0])

    def test_surplus_probe_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = surplus_probe_operator(complete_graph(5), rng)
            gaps = np.diff(np.sort(h.diag))
            assert np.min(gaps) > 0.1
            np.testing.assert_array_equal(h.offdiag,
                                          -np.ones(10, dtype=np.complex128))

    def test_surplus_probe_reads_its_scale_when_it_runs(self, monkeypatch):
        import magnodal.families as families

        a = surplus_probe_operator(complete_graph(5),
                                   np.random.default_rng(5))
        monkeypatch.setattr(families, "PROBE_ETA", 10.0)
        b = surplus_probe_operator(complete_graph(5),
                                   np.random.default_rng(5))
        np.testing.assert_allclose(a.diag, 10.0 * b.diag, rtol=1e-15)


class TestDegenerateFixtures:
    def test_two_triangle_join_cluster(self):
        h, k = two_triangle_join()
        assert h.graph.n == 5
        es = eigh(h)
        m, k0 = multiplicity(es, k, 1e-8)
        assert m == 2 and k0 == k
        assert es.value(k) == pytest.approx(1.0, abs=1e-9)

    def test_random_join_exact_collision(self):
        for seed in range(5):
            h, k = random_join_fixture(np.random.default_rng(seed))
            es = eigh(h)
            m, k0 = multiplicity(es, k, 1e-8)
            assert m == 2 and k0 == k
            # the doubled eigenvector pair vanishes at the shared vertex
            assert abs(es.values[k - 1] - es.values[k]) \
                <= 1e-12 * max(1.0, abs(es.values[k - 1]))

    def test_degenerate_ring(self):
        h, k = degenerate_ring_fixture(4)
        es = eigh(h)
        m, k0 = multiplicity(es, k, 1e-8)
        assert m == 2 and k0 == k
        assert 1 < k < h.graph.n - 1

    def test_degenerate_ring_validation(self):
        with pytest.raises(ValueError):
            degenerate_ring_fixture(5)
        with pytest.raises(ValueError):
            degenerate_ring_fixture(2)
