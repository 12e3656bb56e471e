"""Nodal counts, surplus statistics, and signing averages."""

import functools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import classes_by_enumeration, enumerate_signings
import magnodal
import magnodal.nodal as nodal
from magnodal.errors import (
    AdmissibilityError,
    CapExceededError,
    DegenerateDistributionError,
    DegenerateEdgeProductError,
    EdgeProductNotRealError,
    EigenSolverError,
    InadmissibleSigningError,
    InternalCrossCheckError,
    NonSimpleEigenvalueError,
    VanishingEigenvectorError,
)
from magnodal.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_operator,
    star_graph,
    strong_diagonal_fixture,
)
from magnodal.graphs import Graph, betti_number
from magnodal.nodal import (
    NormalizedSurplus,
    SurplusDistribution,
    average_surplus_distribution,
    edge_products,
    nodal_count,
    nodal_surplus,
    normalized_distribution,
    surplus_distribution,
)
from magnodal.operators import (
    GaugePhase,
    SupportedMatrix,
    gauge_classes_of_signings,
    gauge_transform,
)
from magnodal.spectral import eigh


def triangle_op():
    # frozen fixture: counts per k are (0, 2, 2)
    g = cycle_graph(3)
    return SupportedMatrix(g, np.array([0.1, 0.2, 0.3]),
                           -np.ones(3, dtype=np.complex128))


def half_admissible_op():
    """Triangle whose flux-0 signings all carry a vanishing eigenvector.

    (2, 1, 0) is an eigenvector of the base matrix at -1/2, so the four
    signings gauge equivalent to the identity are inadmissible while the
    four in the other switching class are fine.
    """
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    return SupportedMatrix(g, np.array([0.0, 1.5, 5.0]),
                           np.array([-1.0, 0.5, -1.0], dtype=np.complex128))


def late_admissible_op():
    """Triangle whose flux-0 signings fail at k=2, after k=1 succeeds.

    (2, 1, 0) is an eigenvector of the base matrix at -1/2, and the
    strongly negative third diagonal entry puts a simple eigenvalue
    below it, so the failure is the second eigenvector's.
    """
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    return SupportedMatrix(g, np.array([0.0, 1.5, -5.0]),
                           np.array([-1.0, 0.5, -1.0], dtype=np.complex128))


def narrow_diagonal_op():
    """Zero-diagonal random operator whose signings all fail at some k > 1."""
    rng = np.random.default_rng(9)
    return random_operator(random_connected_graph(5, 7, rng), rng,
                           diag_spread=0.0)


def zero_diagonal_k4():
    g = complete_graph(4)
    return SupportedMatrix(g, np.zeros(4),
                           -np.ones(g.num_edges, dtype=np.complex128))


class TestEdgeProducts:
    def test_empty_graph(self):
        h = SupportedMatrix(Graph(2, ()), np.array([1.0, 2.0]),
                            np.zeros(0, dtype=np.complex128))
        assert edge_products(h, np.array([1.0, 1.0])).shape == (0,)

    def test_single_edge_value(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.array([-2.0], dtype=np.complex128))
        v = np.array([3.0, 5.0])
        assert edge_products(h, v)[0] == pytest.approx(-30.0)

    def test_complex_conjugation_order(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.array([1j], dtype=np.complex128))
        v = np.array([1.0 + 1.0j, 1.0])
        # conj(v_0) * h_01 * v_1 = (1 - i) * i = i + 1
        assert edge_products(h, v)[0] == pytest.approx(1.0 + 1.0j)


class TestNodalCount:
    def test_two_vertex_closed_form(self):
        g = path_graph(2)
        for coupling in (-1.3, 0.8):
            h = SupportedMatrix(g, np.array([0.2, 0.9]),
                                np.array([coupling], dtype=np.complex128))
            assert nodal_count(h, 1) == 0
            assert nodal_count(h, 2) == 1

    def test_tree_counts_are_position_minus_one(self):
        rng = np.random.default_rng(11)
        for g in (path_graph(5), star_graph(4)):
            h = random_operator(g, rng)
            for k in range(1, g.n + 1):
                assert nodal_count(h, k) == k - 1

    def test_triangle_frozen_counts(self):
        h = triangle_op()
        assert [nodal_count(h, k) for k in (1, 2, 3)] == [0, 2, 2]

    def test_triangle_matches_direct_computation(self):
        h = triangle_op()
        dense = h.to_dense()
        w, vecs = np.linalg.eigh(dense)
        for k in range(1, 4):
            v = vecs[:, k - 1]
            direct = sum(1 for (r, s) in h.graph.edges
                         if v[r] * dense[r, s] * v[s] > 0)
            assert nodal_count(h, k) == direct

    def test_gauge_invariance(self):
        h = strong_diagonal_fixture(complete_graph(4))
        rng = np.random.default_rng(5)
        theta = GaugePhase(rng.uniform(0, 2 * np.pi, size=4))
        hg = gauge_transform(theta, h)
        for k in range(1, 5):
            assert nodal_count(hg, k) == nodal_count(h, k)

    def test_bounds_on_random_instances(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 30:
            n = int(rng.integers(3, 9))
            mmax = n * (n - 1) // 2
            g = random_connected_graph(n, int(rng.integers(n - 1, mmax + 1)),
                                       rng)
            h = random_operator(g, rng)
            beta = betti_number(g)
            try:
                counts = [nodal_count(h, k) for k in range(1, n + 1)]
            except (NonSimpleEigenvalueError, VanishingEigenvectorError,
                    DegenerateEdgeProductError):
                continue
            for k, c in enumerate(counts, start=1):
                assert k - 1 <= c <= k - 1 + beta
            done += 1

    def test_precomputed_eigensystem(self):
        h = triangle_op()
        es = eigh(h)
        assert nodal_count(h, 2, es=es) == nodal_count(h, 2)


class TestNodalCountErrors:
    def test_degenerate_eigenvalue(self):
        g = cycle_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(3, dtype=np.complex128))
        with pytest.raises(NonSimpleEigenvalueError) as err:
            nodal_count(h, 2)
        assert err.value.multiplicity == 2

    def test_vanishing_eigenvector(self):
        g = path_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(2, dtype=np.complex128))
        with pytest.raises(VanishingEigenvectorError) as err:
            nodal_count(h, 2)
        assert tuple(err.value.vertices) == (1,)

    def test_complex_entries_off_critical(self):
        g = cycle_graph(3)
        off = np.array([-np.exp(1j * np.pi / 4), -1.0, -1.0])
        h = SupportedMatrix(g, np.array([0.1, 0.2, 0.3]), off)
        with pytest.raises(EdgeProductNotRealError):
            nodal_count(h, 1)

    def test_tiny_edge_product(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.array([0.0, 1e7]),
                            np.array([-1.0], dtype=np.complex128))
        with pytest.raises(DegenerateEdgeProductError) as err:
            nodal_count(h, 1)
        assert tuple(err.value.edges) == ((0, 1),)


class TestNodalSurplus:
    def test_triangle_surpluses(self):
        h = triangle_op()
        assert [nodal_surplus(h, k) for k in (1, 2, 3)] == [0, 1, 0]

    def test_tree_surplus_is_zero(self):
        rng = np.random.default_rng(2)
        h = random_operator(path_graph(4), rng)
        assert all(nodal_surplus(h, k) == 0 for k in range(1, 5))


class TestSurplusDistributionClass:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SurplusDistribution(2, np.array([1, 2]), 3)

    def test_sum_validation(self):
        with pytest.raises(ValueError):
            SurplusDistribution(1, np.array([2, 3]), 4)

    def test_binomial_moments_exact(self):
        d = SurplusDistribution(3, np.array([32, 96, 96, 32]), 256)
        assert d.probs.tolist() == [0.125, 0.375, 0.375, 0.125]
        assert d.mean == 1.5
        assert d.variance == 0.75

    def test_counts_read_only(self):
        d = SurplusDistribution(1, np.array([1, 1]), 2)
        with pytest.raises(ValueError):
            d.counts[0] = 5


class TestSingleMatrixDistribution:
    def test_tree_concentrates_at_zero(self):
        rng = np.random.default_rng(7)
        h = random_operator(star_graph(3), rng)
        d = surplus_distribution(h)
        assert d.betti == 0 and d.counts.tolist() == [4]

    def test_triangle(self):
        d = surplus_distribution(triangle_op())
        assert d.counts.tolist() == [2, 1]
        assert d.n_samples == 3


class TestAveragedDistribution:
    def test_triangle_binomial_exact(self):
        h = strong_diagonal_fixture(complete_graph(3))
        d = average_surplus_distribution(h)
        assert d.counts.tolist() == [12, 12]
        assert d.probs.tolist() == [0.5, 0.5]
        assert d.mean == 0.5 and d.variance == 0.25

    def test_k4_binomial_exact(self):
        h = strong_diagonal_fixture(complete_graph(4))
        d = average_surplus_distribution(h)
        assert d.counts.tolist() == [32, 96, 96, 32]
        assert d.mean == 1.5 and d.variance == 0.75

    def test_class_weighted_agrees_with_full(self):
        # every one of the 2^6 signings, each solved on its own
        h = strong_diagonal_fixture(complete_graph(4))
        full = sum(surplus_distribution(hs).counts
                   for hs in enumerate_signings(h))
        classed = average_surplus_distribution(h)
        assert classed.counts.tolist() == full.tolist()
        assert classed.n_samples == 2 ** 6 * 4

    def test_complex_matrix_rejected(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.array([np.exp(0.3j)]))
        with pytest.raises(ValueError):
            average_surplus_distribution(h)

    def test_edge_cap(self):
        h = strong_diagonal_fixture(complete_graph(8))
        with pytest.raises(CapExceededError):
            average_surplus_distribution(h)

    def test_inadmissible_reports_forest_gauge_representative(self):
        # the failing class is the identity's, whose forest-gauge member
        # is the operator itself
        h = half_admissible_op()
        with pytest.raises(InadmissibleSigningError) as err:
            average_surplus_distribution(h)
        assert tuple(int(s) for s in err.value.signs) == (1, 1, 1)
        assert err.value.signs == classes_by_enumeration(
            h.graph).representatives[0]
        assert "vanish" in err.value.reason

    def test_skip_inadmissible(self):
        d = average_surplus_distribution(half_admissible_op(),
                                         skip_inadmissible=True)
        assert d.skipped == 4
        assert d.n_samples == 12
        assert d.counts.tolist() == [8, 4]

    def test_skip_inadmissible_by_classes(self):
        # a failing class is skipped whole, all 2^(n - 1) of its signings
        h = half_admissible_op()
        d = average_surplus_distribution(h, skip_inadmissible=True)
        assert d.skipped == gauge_classes_of_signings(h).class_size == 4
        assert d.counts.tolist() == [8, 4]

    def test_components_found_once_per_graph(self, monkeypatch):
        import magnodal.graphs as graphs

        calls = 0
        original = graphs.connected_components

        def counting(g):
            nonlocal calls
            calls += 1
            return original(g)

        h = strong_diagonal_fixture(complete_graph(5))
        monkeypatch.setattr(graphs, "connected_components", counting)
        dist = average_surplus_distribution(h)
        assert dist.n_samples == 2 ** 10 * 5
        assert calls <= 1

    def test_equal_diagonal_histogram_is_symmetric(self):
        rng = np.random.default_rng(3)
        g = complete_graph(4)
        off = -rng.uniform(0.5, 1.5, size=6)
        h = SupportedMatrix(g, np.zeros(4), off.astype(np.complex128))
        d = average_surplus_distribution(h)
        assert d.counts.tolist() == [16, 112, 112, 16]
        assert d.counts.tolist() == d.counts.tolist()[::-1]


def late_chunk_op():
    """K4, a path, then a triangle whose edges come last in edge order.

    The triangle's edges have indices 8 to 10, so the first 256
    signings all keep its flux.  Flipping one of them makes it the
    triangle of ``half_admissible_op``, whose eigenvector (2, 1, 0) at
    -1/2 vanishes at the vertex joining it to the path; extended by
    zero it stays an eigenvector.  The first inadmissible signing is
    index 256, at k=3; the triangle's cycle is the last fundamental
    cycle, so the first inadmissible class is class 8 of 16.
    """
    g = Graph(8, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4),
                  (4, 5), (5, 6), (5, 7), (6, 7)))
    return SupportedMatrix(g, np.array([-3.0, -1.0, 8.0, 10.0, 2.0, 5.0,
                                        0.0, 1.5]),
                           np.array([-1.0] * 8 + [-0.5, -1.0, -1.0],
                                    dtype=np.complex128))


def zero_entry_k4():
    """Strong-diagonal K4 with a zero entry: no signing has a sign there."""
    h = strong_diagonal_fixture(complete_graph(4))
    off = h.offdiag.copy()
    off[2] = 0.0
    return SupportedMatrix(h.graph, h.diag, off)


SWEEP_FIXTURES = {
    "strong-K3": lambda: strong_diagonal_fixture(complete_graph(3)),
    "strong-K4": lambda: strong_diagonal_fixture(complete_graph(4)),
    "strong-K5": lambda: strong_diagonal_fixture(complete_graph(5)),
    "half-admissible": half_admissible_op,
    "late-admissible": late_admissible_op,
    "narrow-diagonal": narrow_diagonal_op,
    "zero-diagonal-K4": zero_diagonal_k4,
    "zero-entry-K4": zero_entry_k4,
    "late-chunk": late_chunk_op,
    "random-K5": lambda: random_operator(complete_graph(5),
                                         np.random.default_rng(4)),
}

#: Coarse tolerances under which each check of ``nodal_count`` decides
#: some signings of the random K5 on its own.
COARSE_TOLERANCES = {
    "degeneracy": (("tol_degeneracy", 0.02),),
    "vanish": (("tol_vanish", 0.02),),
    "product": (("tol_product", 2e-3),),
}


def sweep_fixture(name, pre_signed=False):
    """Fixture ``name``; ``pre_signed`` flips the sign of its odd edges.

    Signing a fixture first permutes its signings, so the average over
    all of them must not change.
    """
    h = SWEEP_FIXTURES[name]()
    if pre_signed:
        h = SupportedMatrix(h.graph, h.diag,
                            h.offdiag * (-1) ** np.arange(h.graph.num_edges))
    return h


@functools.lru_cache(maxsize=None)
def scalar_sweep(name, by_classes=False, pre_signed=False, tols=()):
    """Per-signing oracle: one local histogram per signing, kept only whole.

    Visits every signing of the fixture in enumeration order, or each
    switching-class representative in class-id order, with the
    tolerances ``tols`` (keyword, value pairs).  Returns the counts, the
    number of inadmissible rows, and the first one's signs, k and error.
    """
    h = sweep_fixture(name, pre_signed)
    m, n, beta = h.graph.num_edges, h.graph.n, betti_number(h.graph)
    if by_classes:
        rows = classes_by_enumeration(h.graph).representatives
    else:
        rows = [tuple(-1 if (index >> i) & 1 else 1 for i in range(m))
                for index in range(1 << m)]
    counts = [0] * (beta + 1)
    skipped, first = 0, None
    for signs in rows:
        hs = SupportedMatrix(h.graph, h.diag, h.offdiag * np.array(signs))
        es = eigh(hs)
        local = [0] * (beta + 1)
        try:
            for k in range(1, n + 1):
                local[nodal_surplus(hs, k, es=es, **dict(tols))] += 1
        except AdmissibilityError as exc:
            skipped += 1
            if first is None:
                first = (signs, k, exc)
            continue
        counts = [a + b for a, b in zip(counts, local)]
    return counts, skipped, first


class TestSweepAgainstScalarOracle:
    """Class sweep against per-signing scalar counts over every signing.

    The counts and skips come from the full ``2^|E|`` enumeration of the
    fixture as given.  A pre-signed fixture has the same set of
    signings, so it must give the same counts; the exit-2 message names
    the first failing class representative of the operator swept.
    """

    @staticmethod
    def check_skipping(name, pre_signed, tols=()):
        h = sweep_fixture(name, pre_signed)
        counts, skipped, _ = scalar_sweep(name, tols=tols)
        d = average_surplus_distribution(h, skip_inadmissible=True,
                                         **dict(tols))
        assert d.counts.tolist() == counts
        assert d.skipped == skipped
        assert d.n_samples == ((1 << h.graph.num_edges) - skipped) * h.graph.n

    @staticmethod
    def check_not_skipping(name, pre_signed, tols=()):
        h = sweep_fixture(name, pre_signed)
        counts, skipped, _ = scalar_sweep(name, tols=tols)
        if skipped == 0:
            d = average_surplus_distribution(h, **dict(tols))
            assert d.counts.tolist() == counts
            assert d.skipped == 0
            assert d.n_samples == (1 << h.graph.num_edges) * h.graph.n
            return
        with pytest.raises(InadmissibleSigningError) as err:
            average_surplus_distribution(h, **dict(tols))
        signs, k, exc = scalar_sweep(name, True, pre_signed, tols)[2]
        assert str(err.value) == (f"signing with pattern {signs} is "
                                  f"inadmissible at k={k}: {exc}")
        assert err.value.signs == signs
        assert err.value.k == k
        assert err.value.reason == str(exc)

    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    @pytest.mark.parametrize("pre_signed", [False, True])
    def test_skipping(self, name, pre_signed):
        self.check_skipping(name, pre_signed)

    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    @pytest.mark.parametrize("pre_signed", [False, True])
    def test_not_skipping(self, name, pre_signed):
        self.check_not_skipping(name, pre_signed)

    # 1 puts every class in its own stacked solve; 7 divides no 2^beta.
    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    @pytest.mark.parametrize("pre_signed", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_skipping_in_small_chunks(self, monkeypatch, chunk, name,
                                      pre_signed):
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        self.check_skipping(name, pre_signed)

    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    @pytest.mark.parametrize("pre_signed", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_not_skipping_in_small_chunks(self, monkeypatch, chunk, name,
                                          pre_signed):
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        self.check_not_skipping(name, pre_signed)

    @pytest.mark.parametrize("tols", sorted(COARSE_TOLERANCES))
    @pytest.mark.parametrize("pre_signed", [False, True])
    @pytest.mark.parametrize("chunk", [7, 256])
    def test_coarse_tolerances(self, monkeypatch, chunk, pre_signed, tols):
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        self.check_skipping("random-K5", pre_signed, COARSE_TOLERANCES[tols])
        self.check_not_skipping("random-K5", pre_signed,
                                COARSE_TOLERANCES[tols])

    def test_coarse_tolerances_fail_some_signings(self):
        for tols in COARSE_TOLERANCES.values():
            _, skipped, _ = scalar_sweep("random-K5", tols=tols)
            assert 0 < skipped < 1 << 10

    def test_late_failures_are_covered(self):
        for name in ("late-admissible", "narrow-diagonal",
                     "zero-diagonal-K4"):
            _, skipped, (_, k, _) = scalar_sweep(name, True)
            assert skipped > 0 and k > 1

    def test_first_failure_lies_beyond_the_first_chunk(self):
        # beyond the first chunk of 7 classes, and at k > 1
        h = late_chunk_op()
        _, skipped, (signs, k, _) = scalar_sweep("late-chunk", True)
        reps = classes_by_enumeration(h.graph).representatives
        assert reps.index(signs) == 8 and k == 3
        assert skipped == 8
        assert 0 < scalar_sweep("late-chunk")[1] < 1 << 11

    def test_zero_entry_fails_every_signing(self):
        counts, skipped, (_, _, exc) = scalar_sweep("zero-entry-K4")
        assert counts == [0, 0, 0, 0] and skipped == 1 << 6
        assert isinstance(exc, DegenerateEdgeProductError)

    def test_every_signing_skipped(self):
        d = average_surplus_distribution(zero_diagonal_k4(),
                                         skip_inadmissible=True)
        assert d.counts.tolist() == [0, 0, 0, 0]
        assert d.skipped == 64 and d.n_samples == 0

    def test_strong_k5_sweep_is_stacked(self, monkeypatch):
        calls = 0
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            nonlocal calls
            calls += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        d = average_surplus_distribution(
            strong_diagonal_fixture(complete_graph(5)))
        assert d.n_samples == 1024 * 5
        assert calls <= -(-(2 ** 6) // nodal.SWEEP_CHUNK)  # 2^beta classes


class TestStackedSolveFallback:
    """A chunk the stacked solver rejects raises at once."""

    def test_solver_failure_is_reported(self, monkeypatch):
        calls = 0

        def failing(a, *args, **kwargs):
            nonlocal calls
            calls += 1
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(EigenSolverError, match="did not converge"):
            average_surplus_distribution(
                strong_diagonal_fixture(complete_graph(3)),
                skip_inadmissible=True)
        assert calls == 1  # no signing is solved again on its own


def test_rejection_the_scalar_path_does_not_share_is_internal(monkeypatch):
    original = nodal.edge_products

    def zero_when_stacked(h, v):
        products = original(h, v)
        return products * 0.0 if v.ndim > 1 else products

    monkeypatch.setattr(nodal, "edge_products", zero_when_stacked)
    with pytest.raises(InternalCrossCheckError, match="nodal_count accepts"):
        average_surplus_distribution(
            strong_diagonal_fixture(complete_graph(3)))


def run_optimized(script):
    """Run ``script`` under ``python -O`` with the package importable."""
    src = os.path.dirname(os.path.dirname(magnodal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_bound_check_survives_optimized_mode():
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import magnodal.nodal as nodal
        from magnodal.errors import InternalCrossCheckError
        from magnodal.families import cycle_graph
        from magnodal.operators import SupportedMatrix

        if not sys.flags.optimize:
            sys.exit(2)
        h = SupportedMatrix(cycle_graph(3), np.array([0.1, 0.2, 0.3]),
                            -np.ones(3, dtype=np.complex128))
        # three positive products at k=1 break the bound [0, beta] = [0, 1]
        nodal.edge_products = lambda h, v: np.ones(3, dtype=np.complex128)
        try:
            nodal.nodal_count(h, 1)
        except InternalCrossCheckError:
            sys.exit(0)
        sys.exit(1)
    """)
    run = run_optimized(script)
    assert run.returncode == 0, run.stderr


def test_sweep_bound_check_survives_optimized_mode():
    script = textwrap.dedent("""
        import json, os, sys, tempfile
        import numpy as np
        import magnodal.nodal as nodal
        from magnodal.cli import main
        from magnodal.errors import InternalCrossCheckError
        from magnodal.families import cycle_graph
        from magnodal.operators import SupportedMatrix, operator_to_json

        if not sys.flags.optimize:
            sys.exit(2)
        h = SupportedMatrix(cycle_graph(3), np.array([0.1, 0.2, 0.3]),
                            -np.ones(3, dtype=np.complex128))
        # positive products on all three edges at k=1 of the identity
        # signing break the bound [0, beta] = [0, 1], in the stacked
        # checks and in nodal_count alike
        nodal.edge_products = lambda h, v: np.ones(v.shape[:-1] + (3,),
                                                   dtype=np.complex128)
        for skip in (False, True):
            try:
                nodal.average_surplus_distribution(h, skip_inadmissible=skip)
            except InternalCrossCheckError:
                continue
            sys.exit(1)
        path = os.path.join(tempfile.mkdtemp(), "op.json")
        with open(path, "w") as f:
            json.dump(operator_to_json(h), f)
        for flags in ([], ["--classes"], ["--skip-inadmissible"]):
            if main(["avg-dist", "--op", path, *flags]) != 1:
                sys.exit(1)
        sys.exit(0)
    """)
    run = run_optimized(script)
    assert run.returncode == 0, run.stderr


class TestNormalizedDistribution:
    def test_single_cycle(self):
        d = average_surplus_distribution(
            strong_diagonal_fixture(complete_graph(3)))
        nd = normalized_distribution(d)
        assert nd.sigma == 0.5
        assert nd.points.tolist() == [-1.0, 1.0]
        assert nd.first_moment == 0.0
        assert nd.second_moment == 1.0

    def test_three_cycles(self):
        d = average_surplus_distribution(
            strong_diagonal_fixture(complete_graph(4)))
        nd = normalized_distribution(d)
        assert nd.sigma == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert abs(nd.first_moment) <= 1e-15
        assert abs(nd.second_moment - 1.0) <= 1e-12

    def test_asymmetric_counts(self):
        d = SurplusDistribution(1, np.array([3, 1]), 4)
        nd = normalized_distribution(d)
        assert nd.sigma == 0.5
        assert nd.first_moment == pytest.approx(-0.5)
        assert nd.second_moment == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            normalized_distribution(SurplusDistribution(2, np.array([0, 5, 0]),
                                                        5))
        with pytest.raises(DegenerateDistributionError):
            normalized_distribution(SurplusDistribution(0, np.array([4]), 4))
