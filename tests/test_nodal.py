"""Nodal counts, surplus statistics, and signing averages."""

import functools
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classes_by_enumeration, complex_products,
                      kernel_tolerances, last_axis_products,
                      multiplicity_by_walk, path_graph,
                      reduction_checks, referee_nodal, same_bits,
                      scalar_nodal_count, scalar_nodal_surplus,
                      signing_histogram, signs_of, small_graphs, star_graph)
import magnodal
import magnodal.morse as morse
import magnodal.nodal as nodal
import magnodal.spectral as spectral
from magnodal.errors import (
    AdmissibilityError,
    CapExceededError,
    DegenerateDistributionError,
    DegenerateEdgeProductError,
    EdgeProductNotRealError,
    EigenSolverError,
    InadmissibleSigningError,
    InternalCrossCheckError,
    MagnodalError,
    NonSimpleEigenvalueError,
    VanishingEigenvectorError,
)
from magnodal.families import (
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    matching_family_for_betti,
    random_connected_graph,
    random_operator,
    strong_diagonal_fixture,
    surplus_probe_operator,
)
from magnodal.graphs import Graph, betti_number, num_components
from magnodal.linkage import analyze_exceptional
from magnodal.morse import (
    TorusPoint,
    critical_scan,
    eigenvalue_gradient,
    gradient_coords,
    hessian_eigenvalue,
    verify_index_equals_surplus,
)
from magnodal.nodal import (
    PRODUCT_DEGENERATE_TOL,
    PRODUCT_REAL_TOL,
    NormalizedSurplus,
    SurplusDistribution,
    average_surplus_distribution,
    edge_products,
    nodal_count,
    nodal_surplus,
    normalized_distribution,
)
from magnodal.operators import (
    GaugePhase,
    SigningClasses,
    SupportedMatrix,
    dense_matrices,
    gauge_classes_of_signings,
    gauge_transform,
    operator_to_json,
)
from magnodal.spectral import (DEGENERACY_TOL, VANISH_TOL, _normalize_phases,
                               eigh, eigh_dense)


def stacked_solve(graph, diag, offdiag):
    """One stacked solve on the stack's own path, real for real rows, as
    ``_class_blocks`` makes it, with the phases normalized."""
    values, vectors = eigh_dense(dense_matrices(graph, diag, offdiag))
    return values, _normalize_phases(vectors)


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
        assert edge_products(h.graph, h.offdiag,
                             np.array([1.0, 1.0])).shape == (0,)

    def test_single_edge_value(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.array([-2.0], dtype=np.complex128))
        v = np.array([3.0, 5.0])
        assert edge_products(g, h.offdiag, v)[0] == pytest.approx(-30.0)

    def test_complex_conjugation_order(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.array([1j], dtype=np.complex128))
        v = np.array([1.0 + 1.0j, 1.0])
        # conj(v_0) * h_01 * v_1 = (1 - i) * i = i + 1
        assert edge_products(g, h.offdiag, v)[0] == pytest.approx(1.0 + 1.0j)

    def test_stacks_broadcast_and_real_input_stays_real(self):
        """Entries (S, 1, m) against vectors (S, K, n) give (S, K, m),
        each product the bits of its own scalar one; real entries and
        vectors give real products."""
        rng = np.random.default_rng(3)
        g = complete_graph(4)
        off = rng.normal(size=(2, g.num_edges))
        v = rng.normal(size=(2, 3, g.n))
        p = edge_products(g, off[:, None], v)
        assert p.dtype == np.float64 and p.shape == (2, 3, g.num_edges)
        for i in range(2):
            for k in range(3):
                for e, (r, s) in enumerate(g.edges):
                    assert p[i, k, e] == v[i, k, r] * off[i, e] * v[i, k, s]
        z = edge_products(g, off + 0j, v[:, 0] + 1j * v[:, 1])
        assert z.dtype == np.complex128
        assert np.array_equal(z, complex_products(g, off, v[:, 0]
                                                  + 1j * v[:, 1]))


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


@pytest.mark.parametrize("k", [0, -1, 5])
@pytest.mark.parametrize("func", [
    nodal_count, nodal_surplus, eigenvalue_gradient, gradient_coords,
    hessian_eigenvalue, analyze_exceptional],
    ids=lambda f: f.__name__)
def test_single_point_functions_reject_k_outside_range(func, k):
    """A position outside 1..n raises ValueError before anything is read
    at it: k = 0 and -1 would index lambda_n and k = n + 1 run past the
    spectrum."""
    h = strong_diagonal_fixture(complete_graph(4))
    arg = h if func in (nodal_count, nodal_surplus, analyze_exceptional) \
        else TorusPoint.from_operator(h)
    with pytest.raises(ValueError, match=rf"k={k} outside 1\.\.4"):
        func(arg, k)


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

    def test_builds_no_cycle_basis(self):
        # the classes read the forest's non-forest positions; no cycle
        # coefficient or root path is read, so none is built
        h = strong_diagonal_fixture(complete_graph(5))
        average_surplus_distribution(h)
        assert "spanning_forest" in h.graph.__dict__
        assert not {"coeffs", "up"} & h.graph.spanning_forest.__dict__.keys()

    def test_class_weighted_agrees_with_full(self):
        # every one of the 2^6 signings, each solved and counted on its
        # own by the scalar oracle
        h = strong_diagonal_fixture(complete_graph(4))
        full = sum(signing_histogram(h, signs_of(i, 6), {})
                   for i in range(2 ** 6))
        classed = average_surplus_distribution(h)
        assert classed.counts.tolist() == full.tolist()
        assert classed.n_samples == 2 ** 6 * 4

    def test_complex_matrix_rejected(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.array([np.exp(0.3j)]))
        with pytest.raises(AdmissibilityError) as err:
            average_surplus_distribution(h)
        assert type(err.value) is AdmissibilityError
        assert str(err.value) == ("the signing average is stated for real "
                                  "matrices; this operator has complex "
                                  "entries")

    def test_vertexless_operator_has_no_samples(self):
        # (2^0 - 0 skipped) signings times n = 0 positions
        h = SupportedMatrix(Graph(0), np.zeros(0), np.zeros(0))
        d = average_surplus_distribution(h)
        assert d.counts.tolist() == [0]
        assert d.n_samples == 0 and d.skipped == 0
        with pytest.raises(DegenerateDistributionError):
            d.probs

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
    tolerances ``tols`` (keyword, value pairs), through the scalar
    checks of ``signing_histogram``.  Returns the counts, the number of
    inadmissible rows, and the first one's signs, k and error.
    """
    h = sweep_fixture(name, pre_signed)
    m, beta = h.graph.num_edges, betti_number(h.graph)
    if by_classes:
        rows = classes_by_enumeration(h.graph).representatives
    else:
        rows = [tuple(-1 if (index >> i) & 1 else 1 for i in range(m))
                for index in range(1 << m)]
    counts = [0] * (beta + 1)
    skipped, first = 0, None
    for signs in rows:
        try:
            local = signing_histogram(h, signs, dict(tols))
        except InadmissibleSigningError as exc:
            skipped += 1
            if first is None:
                first = (signs, exc.k, exc.__cause__)
            continue
        counts = [a + int(b) for a, b in zip(counts, local)]
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
        with kernel_tolerances(tols) as kwargs:
            d = average_surplus_distribution(h, skip_inadmissible=True,
                                             **kwargs)
        assert d.counts.tolist() == counts
        assert d.skipped == skipped
        assert d.n_samples == ((1 << h.graph.num_edges) - skipped) * h.graph.n

    @staticmethod
    def check_not_skipping(name, pre_signed, tols=()):
        h = sweep_fixture(name, pre_signed)
        counts, skipped, _ = scalar_sweep(name, tols=tols)
        if skipped == 0:
            with kernel_tolerances(tols) as kwargs:
                d = average_surplus_distribution(h, **kwargs)
            assert d.counts.tolist() == counts
            assert d.skipped == 0
            assert d.n_samples == (1 << h.graph.num_edges) * h.graph.n
            return
        with pytest.raises(InadmissibleSigningError) as err, \
                kernel_tolerances(tols) as kwargs:
            average_surplus_distribution(h, **kwargs)
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

    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    @pytest.mark.parametrize("pre_signed", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize("skip", [False, True])
    def test_real_products_match_complex_oracle(self, monkeypatch, skip,
                                                chunk, pre_signed, name):
        """The class sum on its real products against the same sum on
        the complex products: the same counts and skips, or the same
        error and message."""
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        h = sweep_fixture(name, pre_signed)

        def outcome():
            try:
                d = average_surplus_distribution(h, skip_inadmissible=skip)
            except AdmissibilityError as exc:
                return type(exc), str(exc)
            return d.counts.tolist(), d.skipped, d.n_samples

        real = outcome()
        monkeypatch.setattr(nodal, "edge_products", complex_products)
        assert real == outcome()

    def test_class_sum_runs_in_real_arithmetic(self, monkeypatch):
        dtypes = set()
        original = nodal._stack_checks

        def recording(values, vectors, products, *args, **kwargs):
            dtypes.add(products.dtype)
            return original(values, vectors, products, *args, **kwargs)

        monkeypatch.setattr(nodal, "_stack_checks", recording)
        for name in sorted(SWEEP_FIXTURES):
            for skip in (False, True):
                try:
                    average_surplus_distribution(sweep_fixture(name),
                                                 skip_inadmissible=skip)
                except AdmissibilityError:
                    pass
        assert dtypes == {np.dtype(np.float64)}

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

    @pytest.mark.parametrize("tol_product", [0.0, PRODUCT_DEGENERATE_TOL])
    def test_zero_entry_is_decided_before_solving(self, monkeypatch,
                                                  tol_product):
        """Skipping drops every class of a zero-entry operator unsolved
        exactly when the kernel leaves a zero product unresolved; at a
        zero product tolerance the classes are solved, and both count
        as the per-signing oracle does."""
        import magnodal.spectral as spectral

        tols = (("tol_product", tol_product),)
        counts, skipped, _ = scalar_sweep("zero-entry-K4", tols=tols)
        solves = []
        inner = spectral._EIGH

        def counting(*args, **kwargs):
            solves.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(spectral, "_EIGH", counting)
        monkeypatch.setattr(nodal, "PRODUCT_DEGENERATE_TOL", tol_product)
        d = average_surplus_distribution(zero_entry_k4(),
                                         skip_inadmissible=True)
        assert (d.counts.tolist(), d.skipped) == (counts, skipped)
        assert bool(solves) == (tol_product == 0.0)

    def test_every_signing_skipped(self):
        d = average_surplus_distribution(zero_diagonal_k4(),
                                         skip_inadmissible=True)
        assert d.counts.tolist() == [0, 0, 0, 0]
        assert d.skipped == 64 and d.n_samples == 0

    def test_empty_histogram_has_no_moments(self):
        """With no samples the probabilities and moments raise, where
        dividing by zero gave NaN with a ``RuntimeWarning``."""
        d = average_surplus_distribution(zero_diagonal_k4(),
                                         skip_inadmissible=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("probs", "mean", "variance"):
                with pytest.raises(DegenerateDistributionError,
                                   match="no samples"):
                    getattr(d, name)

    def test_strong_k5_sweep_is_stacked(self, monkeypatch):
        import magnodal.spectral as spectral

        calls = 0
        original = spectral._EIGH

        def counting(a, *args, **kwargs):
            nonlocal calls
            calls += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "_EIGH", counting)
        d = average_surplus_distribution(
            strong_diagonal_fixture(complete_graph(5)))
        assert d.n_samples == 1024 * 5
        assert calls <= -(-(2 ** 6) // nodal.SWEEP_CHUNK)  # 2^beta classes


def census_probe(beta: int) -> SupportedMatrix:
    """The surplus probe on a complete-minus-matching graph of ``beta``,
    graph and operator drawn from one ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    g = complete_minus_matching(*matching_family_for_betti(beta), rng=rng)
    return surplus_probe_operator(g, rng)


def census_random() -> SupportedMatrix:
    """A random operator on 8 vertices and 14 edges, graph and operator
    drawn from one ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    return random_operator(random_connected_graph(8, 14, rng), rng)


def referee_operators() -> dict[str, SupportedMatrix]:
    """Strong-diagonal K4 and K5, and surplus-probe operators on
    complete-minus-matching graphs of beta 4 and 5; and the census
    operators: the probe at beta 6 (n = 5, 320 pairs) and the random
    operator on 8 vertices (beta 7, 1024 pairs)."""
    rng = np.random.default_rng(28)
    ops = {"strong-K4": strong_diagonal_fixture(complete_graph(4)),
           "strong-K5": strong_diagonal_fixture(complete_graph(5))}
    for beta in (4, 5):
        g = complete_minus_matching(*matching_family_for_betti(beta), rng=rng)
        ops[f"probe-cmm-beta{beta}"] = surplus_probe_operator(g, rng)
    ops["census-probe-beta6"] = census_probe(6)
    ops["census-random-n8-m14"] = census_random()
    return ops


REFEREE_OPERATORS = referee_operators()


def recorded_class_sum(monkeypatch, h: SupportedMatrix):
    """The class sum of ``h``, skipping inadmissible classes, with the
    edge entries and checks of each block it walked."""
    blocks = []
    inner = nodal.position_checks

    def recording(op, offdiag, *args, **kwargs):
        checks = inner(op, offdiag, *args, **kwargs)
        blocks.append((offdiag, checks))
        return checks

    with monkeypatch.context() as m:
        m.setattr(nodal, "position_checks", recording)
        d = average_surplus_distribution(h, skip_inadmissible=True)
    return d, blocks


@pytest.mark.parametrize("name", sorted(REFEREE_OPERATORS))
def test_class_sum_matches_the_fifty_digit_referee(monkeypatch, name):
    """The class sum admits every (class, k), each surplus the 50-digit
    referee's surplus of that class's representative, and the histogram
    counts the referee's surpluses."""
    h = REFEREE_OPERATORS[name]
    beta = betti_number(h.graph)
    d, blocks = recorded_class_sum(monkeypatch, h)
    expected = np.zeros(beta + 1, dtype=np.int64)
    solved = admitted = 0
    for offdiag, checks in blocks:
        for row, failed, surplus in zip(offdiag, checks.failed,
                                        checks.surplus):
            ref = referee_nodal(SupportedMatrix(h.graph, h.diag, row))
            ks = np.flatnonzero(~failed)
            assert surplus[ks].tolist() == [ref.surplus[k] for k in ks]
            expected += np.bincount(ref.surplus, minlength=beta + 1)
            solved += 1
            admitted += len(ks)
    assert solved == 2 ** beta and admitted == h.graph.n * 2 ** beta
    assert d.counts.tolist() == (expected * 2 ** (h.graph.num_edges - beta)
                                 ).tolist()


def test_census_beta14_probe_rejects_one_class_the_referee_signs(
        monkeypatch):
    """The beta-14 probe rejects 1 of its 16384 classes, at k = 4, where
    the product cut (1e-12 of the norm) refuses edge (1, 5) with
    |product| / ||h||_F = 7.5e-13.  Every float64 edge-product sign at
    that k is the referee's: the fixed cut rejects a resolved sign."""
    h = census_probe(14)
    d, blocks = recorded_class_sum(monkeypatch, h)
    assert d.skipped == 2 ** (h.graph.num_edges - 14)
    rejected = [(offdiag[i], checks, i) for offdiag, checks in blocks
                for i in np.flatnonzero(checks.failed.any(axis=1))]
    assert sum(len(offdiag) for offdiag, _ in blocks) == 2 ** 14
    assert len(rejected) == 1
    row, checks, i = rejected[0]
    assert np.flatnonzero(checks.failed[i]).tolist() == [3]
    error = checks.error(i, 3)
    assert isinstance(error, DegenerateEdgeProductError)
    assert list(error.edges) == [(1, 5)]
    product = checks.products[i, 3, h.graph.edge_index[(1, 5)]]
    assert abs(product) / h.norm_fro == pytest.approx(7.5e-13, rel=0.01)
    ref = referee_nodal(SupportedMatrix(h.graph, h.diag, row))
    assert np.sign(checks.products[i, 3]).astype(int).tolist() \
        == ref.signs[3]


PLANTED_NUMBER = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


@st.composite
def planted_graphs(draw):
    """A small connected graph: a random spanning tree plus any edges,
    so the surplus bounds hold."""
    n = draw(st.integers(2, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(r, s) for r in range(n) for s in range(r + 1, n)]
    edges |= {e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep}
    return Graph(n, tuple(sorted(edges)))


#: Any graph on one to five vertices, disconnected ones included.
ANY_GRAPHS = small_graphs(5).filter(lambda g: g.n > 0)


@st.composite
def planted_operators(draw, graphs=planted_graphs()):
    """A small operator, connected unless ``graphs`` draws otherwise,
    some of whose signings fail checks.

    Diagonals and couplings are drawn partly from a few repeated values
    (equal diagonals and couplings plant degenerate eigenvalues and
    vanishing entries), partly as zero entries (degenerate edge
    products) and partly with a complex phase (products that are not
    real).
    """
    g = draw(graphs)
    number = PLANTED_NUMBER
    diag = draw(st.lists(st.sampled_from([0.0, 1.0]) | number,
                         min_size=g.n, max_size=g.n))
    coupling = st.sampled_from([0.0, -1.0, 1.0]) | number.map(complex) \
        | st.tuples(number, number).map(lambda c: complex(*c))
    offdiag = draw(st.lists(coupling, min_size=g.num_edges,
                            max_size=g.num_edges))
    return SupportedMatrix(g, np.array(diag), np.array(offdiag,
                                                       dtype=np.complex128))


@st.composite
def real_planted_operators(draw, graphs=planted_graphs()):
    """A small real operator, connected unless ``graphs`` draws
    otherwise, as the class sum solves them: all-zero or repeated
    diagonals, couplings of +-1 and exact zeros (degenerate products),
    and some real couplings of other sizes."""
    g = draw(graphs)
    diag = draw(st.just([0.0] * g.n) | st.lists(
        st.sampled_from([0.0, 1.0]) | PLANTED_NUMBER, min_size=g.n,
        max_size=g.n))
    coupling = st.sampled_from([0.0, -1.0, 1.0]) | PLANTED_NUMBER
    offdiag = draw(st.lists(coupling, min_size=g.num_edges,
                            max_size=g.num_edges))
    return SupportedMatrix(g, np.array(diag), np.array(offdiag,
                                                       dtype=np.complex128))


#: The scalar checks in ``nodal_count``'s order, with the error each
#: raises: the first failing one names the error of a pair.
CHECK_ERRORS = (
    (lambda c: ~c.simple, NonSimpleEigenvalueError),
    (lambda c: np.any(c.vanishing, axis=2), VanishingEigenvectorError),
    (lambda c: ~c.flat, EdgeProductNotRealError),
    (lambda c: np.any(c.unresolved, axis=2), DegenerateEdgeProductError),
    (lambda c: c.unbounded & c.inadmissible, AdmissibilityError),
    (lambda c: c.out_of_bounds, InternalCrossCheckError),
)


def error_fields(exc) -> tuple:
    """Type, message and attributes of an error, for comparing two."""
    return (type(exc), str(exc), *(getattr(exc, name, None) for name in
                                   ("k", "multiplicity", "vertices", "edges")))


@settings(max_examples=300, deadline=None)
@given(planted_operators() | real_planted_operators()
       | planted_operators(ANY_GRAPHS) | real_planted_operators(ANY_GRAPHS),
       st.data())
def test_admissibility_kernel_matches_nodal_count(h, data):
    """Every (signing, k) of the kernel against the scalar oracle: the
    same pass or fail and surplus, and the same error, with its type,
    message, ``k``, ``multiplicity``, ``vertices`` and ``edges``, from
    the kernel's masks and from ``nodal_count`` alike; passing
    surpluses lie in ``[0, beta]``.  A vanishing tolerance of 0 sees no
    exact zero, so on a disconnected graph an eigenvector living on one
    component can reach the bound check; a surplus outside the bounds is
    then inadmissible, never an internal fault.  On a real operator the
    class sum's real products give the masks and surpluses of the
    complex ones, and so the same errors."""
    m, n, beta = h.graph.num_edges, h.graph.n, betti_number(h.graph)
    rows = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m),
        min_size=1, max_size=4)), dtype=np.int8)
    tols = dict(tol_degeneracy=data.draw(st.sampled_from([1e-8, 0.02])),
                tol_vanish=data.draw(st.sampled_from([0.0, 1e-8, 0.02])),
                tol_product=data.draw(st.sampled_from([1e-12, 2e-3])))
    values, vectors = stacked_solve(h.graph, h.diag, h.offdiag * rows)
    vectors = vectors.swapaxes(1, 2)  # (signing, k, vertex)
    with kernel_tolerances(tols) as kwargs:
        checks = nodal._stack_checks(
            values, vectors,
            complex_products(h.graph, (h.offdiag * rows)[:, None], vectors),
            h.norm_fro, h.graph, **kwargs)
    if h.is_real:
        # the real parts of the complex products, bit for bit up to the
        # signs of zeros, which array_equal does not see
        products = checks.products
        signed = edge_products(h.graph, (h.offdiag.real * rows)[:, None],
                               vectors)
        assert signed.dtype == np.float64 and not products.imag.any()
        assert np.array_equal(signed, products.real)
        with kernel_tolerances(tols) as kwargs:
            real = nodal._stack_checks(values, vectors, signed, h.norm_fro,
                                       h.graph, **kwargs)
        for mask in ("simple", "vanishing", "flat", "unresolved", "surplus",
                     "unbounded", "inadmissible", "out_of_bounds", "failed"):
            assert np.array_equal(getattr(real, mask), getattr(checks, mask))
        for row in range(len(rows)):
            for k in range(1, n + 1):
                a, b = (c.error(row, k - 1) for c in (real, checks))
                assert (a is None and b is None) \
                    or error_fields(a) == error_fields(b)
    if num_components(h.graph) > 1:
        assert not checks.out_of_bounds.any()
    for row, signs in enumerate(rows):
        hs = SupportedMatrix(h.graph, h.diag, h.offdiag * signs)
        es = eigh(hs)
        for k in range(1, n + 1):
            expected = next((error for check, error in CHECK_ERRORS
                             if check(checks)[row, k - 1]), None)
            got = checks.error(row, k - 1)
            assert (got is None) == (expected is None)
            try:
                surplus = scalar_nodal_surplus(hs, k, es=es, **tols)
            except (AdmissibilityError, InternalCrossCheckError) as exc:
                assert checks.failed[row, k - 1]
                assert type(exc) is expected
                assert error_fields(got) == error_fields(exc)
                with pytest.raises(type(exc)) as err, \
                        kernel_tolerances(tols) as kwargs:
                    nodal_surplus(hs, k, es=es, **kwargs)
                assert error_fields(err.value) == error_fields(exc)
                continue
            assert not checks.failed[row, k - 1] and expected is None
            assert checks.surplus[row, k - 1] == surplus
            with kernel_tolerances(tols) as kwargs:
                assert nodal_surplus(hs, k, es=es, **kwargs) == surplus
            assert 0 <= surplus <= beta


#: The kernel's fields and verdicts, each compared bit for bit.
CHECK_FIELDS = ("values", "products", "simple", "vanishing", "flat",
                "unresolved", "surplus", "unbounded", "inadmissible",
                "out_of_bounds", "failed")


def assert_same_checks(new, old):
    """Every field, verdict and error of two kernel results agree."""
    for name in CHECK_FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert same_bits(a, b), name
    assert (new.graph, new.beta, new.tol_degeneracy, new.tol_real) \
        == (old.graph, old.beta, old.tol_degeneracy, old.tol_real)
    for row, col in np.ndindex(new.surplus.shape):
        a, b = new.error(row, col), old.error(row, col)
        assert (a is None) == (b is None)
        assert a is None or error_fields(a) == error_fields(b)


@settings(max_examples=200, deadline=None)
@given(planted_operators() | real_planted_operators()
       | planted_operators(ANY_GRAPHS) | real_planted_operators(ANY_GRAPHS),
       st.data())
def test_kernel_layout_matches_the_reduction_oracle(h, data):
    """The vertex-first gather and the reductions over the masks'
    outermost axis against ``conftest.reduction_checks``, the kernel as
    it reduced along the last axis of C-ordered masks: every field and
    verdict bit for bit and every error with its type, message and
    attributes, on real and complex stacks, at one norm for all rows and
    at one per row, with eigenvector entries planted at 0.5, 1 and 2
    times the vanishing cut and edge products (and, on complex stacks,
    their imaginary parts) at those multiples of their cuts."""
    g, n, m = h.graph, h.graph.n, h.graph.num_edges
    rows = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m),
        min_size=1, max_size=4)), dtype=np.int8)
    off = (h.offdiag.real if h.is_real else h.offdiag) * rows
    values, vectors = stacked_solve(g, h.diag, off)
    assert np.iscomplexobj(vectors) != h.is_real
    factor, sign = st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([-1, 1])
    somewhere = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, n - 1),
                          st.integers(0, n - 1), factor, sign)
    for row, vertex, col, f, sg in data.draw(st.lists(somewhere,
                                                      max_size=3)):
        vectors[row, vertex, col] = sg * f * VANISH_TOL
    tols = dict(tol_degeneracy=data.draw(st.sampled_from([DEGENERACY_TOL,
                                                          0.02])),
                tol_vanish=data.draw(st.sampled_from([VANISH_TOL, 0.02])),
                tol_product=data.draw(st.sampled_from(
                    [PRODUCT_DEGENERATE_TOL, 2e-3])))
    scale = (np.full(len(rows), h.norm_fro) if data.draw(st.booleans())
             else h.norm_fro)
    with kernel_tolerances(tols) as kwargs:
        new = nodal.position_checks(g, off, values, vectors, scale, **kwargs)
    flipped = vectors.swapaxes(1, 2)  # (row, k, vertex)
    products = last_axis_products(g, off[:, None], flipped)
    old = reduction_checks(values, flipped, products, scale, g, **tols)
    assert_same_checks(new, old)
    if not m:
        return
    planted = np.copy(new.products, order="K")  # the kernel's layout
    products = products.copy()
    for row, col, e, f, sg, imag in data.draw(st.lists(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, n - 1),
            st.integers(0, m - 1), factor, sign, st.booleans()),
            min_size=1, max_size=3)):
        if imag and np.iscomplexobj(products):
            value = products[row, col, e].real \
                + 1j * sg * f * PRODUCT_REAL_TOL * h.norm_fro
        else:
            value = sg * f * tols["tol_product"] * h.norm_fro
        planted[row, col, e] = products[row, col, e] = value
    with kernel_tolerances(tols) as kwargs:
        new = nodal._stack_checks(values, flipped, planted, scale, g,
                                  **kwargs)
    assert_same_checks(
        new, reduction_checks(values, flipped, products, scale, g, **tols))


def class_sum_by_scalars(h: SupportedMatrix, skip: bool, tols: dict):
    """``nodal._surplus_counts`` by the scalar checks: every class
    representative in id order through ``signing_histogram``, weighted
    by the class size; the counts and skipped signings, or the error."""
    classes = classes_by_enumeration(h.graph)
    beta = betti_number(h.graph)
    counts, skipped = np.zeros(beta + 1, dtype=np.int64), 0
    for signs, size in zip(classes.representatives, classes.class_sizes):
        try:
            counts += size * signing_histogram(h, signs, tols)
        except InadmissibleSigningError:
            if not skip:
                raise
            skipped += size
    return counts.tolist(), skipped


def class_sum_outcome(count, *args, **kwargs):
    try:
        counts, skipped = count(*args, **kwargs)
    except MagnodalError as exc:
        return error_fields(exc)
    return list(counts), skipped


@settings(max_examples=200, deadline=None)
@given(real_planted_operators() | real_planted_operators(small_graphs(5)),
       st.data())
def test_kernel_at_the_cuts_matches_the_oracles(h, data):
    """The leaner class-block pass against the oracles it replaced.

    ``_surplus_counts`` against the scalar counts of every class
    representative: the same counts and skips, or the same error with
    its type, message and attributes, skipping or not.  On a class
    block whose eigenvalue neighbours are planted at 0.5, 1 and 2 times
    the ``cluster_mask`` cut, its eigenvector entries at those multiples
    of the vanishing cut and its edge products at those multiples of
    ``tol_product`` times the norm, ``_stack_checks`` against
    ``conftest.reduction_checks``, field by field and error by error,
    and every simplicity verdict against ``multiplicity_by_walk``.  The
    graphs take in edgeless, vertex-less and disconnected ones, where a
    vanishing tolerance of 0 lets a count leave its bounds."""
    g, n, m = h.graph, h.graph.n, h.graph.num_edges
    tols = dict(tol_degeneracy=data.draw(st.sampled_from([1e-8, 0.02])),
                tol_vanish=data.draw(st.sampled_from([0.0, 1e-8, 0.02])),
                tol_product=data.draw(st.sampled_from([1e-12, 2e-3])))
    classes = gauge_classes_of_signings(h)
    for skip in (False, True):
        with kernel_tolerances(tols) as kwargs:
            got = class_sum_outcome(nodal._surplus_counts, h, classes, skip,
                                    **kwargs)
        assert got == class_sum_outcome(class_sum_by_scalars, h, skip, tols)
    if not n:
        return
    # one block: these graphs have fewer classes than ``SWEEP_CHUNK``
    with kernel_tolerances(tols) as kwargs:
        _, off, vectors, checks = next(nodal._class_blocks(h, classes,
                                                           **kwargs))
    values, rows = checks.values, len(off)
    assert rows == classes.num_classes
    factor, sign = st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([-1, 1])
    for row, j, f in data.draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, max(n - 2, 0)), factor),
            max_size=3)):
        if n > 1:
            cut = tols["tol_degeneracy"] * max(1.0, np.abs(values[row]).max())
            values[row, j + 1] = values[row, j] + f * cut
            values[row].sort()
    for row, vertex, col, f, sg in data.draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, n - 1),
            st.integers(0, n - 1), factor, sign), max_size=3)):
        vectors[row, vertex, col] = sg * f * tols["tol_vanish"]
    layout = np.ascontiguousarray(vectors.transpose(1, 2, 0)).T
    products = edge_products(g, off[:, None], layout)
    for row, col, e, f, sg in data.draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, n - 1),
            st.integers(0, max(m - 1, 0)), factor, sign), max_size=3)):
        if m:
            products[row, col, e] = sg * f * tols["tol_product"] * h.norm_fro
    with kernel_tolerances(tols) as kwargs:
        new = nodal._stack_checks(values, layout, products, h.norm_fro, g,
                                  **kwargs)
    old = reduction_checks(values, vectors.swapaxes(1, 2),
                           np.ascontiguousarray(products), h.norm_fro, g,
                           **tols)
    assert_same_checks(new, old)
    for row, j in np.ndindex(rows, n):
        size, _ = multiplicity_by_walk(values[row], j + 1,
                                       tols["tol_degeneracy"])
        assert new.simple[row, j] == (size == 1)


class TestOneSolveAndOneKernelCallPerClassBlock:
    """Every class block, in the class sum, the index check and the
    scan's symmetry points, makes one stacked eigensolve
    (``spectral._EIGH``) and one kernel call (``nodal._stack_checks``),
    in that order: no verdict-only pass beside the kernel, no fallback
    to a second call, no second solve.  Blocks of 3 classes make several
    blocks out of a few classes."""

    @pytest.fixture
    def events(self, monkeypatch):
        seen = []
        gufunc, kernel = spectral._EIGH, nodal._stack_checks

        def solve(*args, **kwargs):
            seen.append("solve")
            return gufunc(*args, **kwargs)

        def check(*args, **kwargs):
            seen.append("check")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(spectral, "_EIGH", solve)
        monkeypatch.setattr(nodal, "_stack_checks", check)
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", 3)
        return seen

    @staticmethod
    def blocks(h):
        return -(-gauge_classes_of_signings(h).num_classes // 3)

    @pytest.mark.parametrize("skip", [False, True])
    def test_class_sum(self, events, skip):
        """Blocks that pass, and (half the classes of the second operator
        fail) blocks that fail, skipped or raising."""
        for h in (random_operator(random_connected_graph(
                      6, 10, np.random.default_rng(3)),
                      np.random.default_rng(4)),
                  SupportedMatrix(complete_graph(4), np.array([0, 1, 1, 2.0]),
                                  np.ones(6, dtype=np.complex128))):
            events.clear()
            try:
                average_surplus_distribution(h, skip_inadmissible=skip)
            except InadmissibleSigningError:
                assert not skip and events
                assert events == ["solve", "check"] * (len(events) // 2)
                continue
            assert events == ["solve", "check"] * self.blocks(h)

    def test_index_check(self, events):
        h = strong_diagonal_fixture(complete_graph(4))
        verify_index_equals_surplus(h)
        assert events == ["solve", "check"] * self.blocks(h)

    def test_symmetry_points(self, events, monkeypatch):
        blocks = morse._symmetry_blocks

        def marked(*args, **kwargs):
            for block in blocks(*args, **kwargs):
                events.append("block")
                yield block
            events.append("done")

        monkeypatch.setattr(morse, "_symmetry_blocks", marked)
        h = strong_diagonal_fixture(complete_graph(4))
        critical_scan(h, 2, starts=2, seed=0)
        # each block comes checked; the reports make no kernel call
        stage = events[:events.index("done")]
        assert stage == ["solve", "check", "block"] * self.blocks(h)


def test_unbounded_count_on_a_disconnected_graph_is_inadmissible(
        monkeypatch):
    """A triangle and an isolated vertex with the lowest diagonal: at a
    vanishing tolerance of 0 the triangle's eigenvectors, exactly 0 on
    the isolated vertex, pass every other check, and their counts miss
    the bounds of the whole graph.  That is an ``AdmissibilityError``,
    which the sweep skips and reports like any other, not an internal
    fault; at the default tolerance the vanishing entry decides first."""
    g = Graph(4, ((0, 1), (0, 2), (1, 2)))
    h = SupportedMatrix(g, np.array([0.0, 0.3, 0.7, -5.0]),
                        np.full(3, -1.0 + 0j))
    for k, count in ((2, 0), (4, 2)):
        with pytest.raises(AdmissibilityError) as err:
            nodal_count(h, k, tol_vanish=0.0)
        assert type(err.value) is AdmissibilityError
        assert str(err.value) == (
            f"nodal count {count} lies outside the bounds [{k - 1}, {k}] "
            f"for k={k}, beta=1, which hold on connected graphs only")
        with pytest.raises(VanishingEigenvectorError):
            nodal_count(h, k)
    assert nodal_count(h, 3, tol_vanish=0.0) == 2
    # with no product cut either, the sweep's k=1, the isolated vertex's
    # eigenvector, passes, and its k=2 reaches the bound check
    monkeypatch.setattr(nodal, "PRODUCT_DEGENERATE_TOL", 0.0)
    with pytest.raises(InadmissibleSigningError) as err:
        average_surplus_distribution(h, tol_vanish=0.0)
    assert err.value.k == 2 and err.value.reason == (
        "nodal count 0 lies outside the bounds [1, 2] for k=2, beta=1, "
        "which hold on connected graphs only")
    d = average_surplus_distribution(h, skip_inadmissible=True,
                                     tol_vanish=0.0)
    assert d.skipped == 8 and d.n_samples == 0


class TestStackedSolveFallback:
    """A chunk the stacked solver rejects raises at once."""

    def test_solver_failure_is_reported(self, monkeypatch):
        import magnodal.spectral as spectral

        calls = 0
        solve = spectral._EIGH

        def failing(a, *args, **kwargs):
            # the gateway's gufunc, failing as LAPACK does on a NaN entry
            nonlocal calls
            calls += 1
            return solve(np.full_like(a, np.nan), *args, **kwargs)

        monkeypatch.setattr(spectral, "_EIGH", failing)
        with pytest.raises(EigenSolverError, match="did not converge"):
            average_surplus_distribution(
                strong_diagonal_fixture(complete_graph(3)),
                skip_inadmissible=True)
        assert calls == 1  # no signing is solved again on its own


def test_sweep_errors_are_worded_from_the_kernel_masks(monkeypatch):
    """The class sum words its error from the products it checked, with
    no second solve: zeroed products name every edge, though the
    signing solved alone has none too close to zero."""
    original = nodal.edge_products

    def zero_when_stacked(graph, offdiag, v):
        products = original(graph, offdiag, v)
        return products * 0.0 if v.ndim == 3 else products

    h = strong_diagonal_fixture(complete_graph(3))
    assert nodal_count(h, 1) == 0
    monkeypatch.setattr(nodal, "edge_products", zero_when_stacked)
    with pytest.raises(InadmissibleSigningError) as err:
        average_surplus_distribution(h)
    reason = "edge products too close to zero on edges [(0, 1), (0, 2), (1, 2)]"
    assert str(err.value) == (f"signing with pattern (1, 1, 1) is "
                              f"inadmissible at k=1: {reason}")
    assert err.value.reason == reason
    assert err.value.__cause__.edges == h.graph.edges


def run_env() -> dict:
    """The environment, with the package importable."""
    src = os.path.dirname(os.path.dirname(magnodal.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_optimized(script):
    """Run ``script`` under ``python -O`` with the package importable."""
    return subprocess.run([sys.executable, "-O", "-c", script],
                          env=run_env(), capture_output=True, text=True,
                          timeout=120)


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
        nodal.edge_products = lambda g, off, v: np.ones(
            v.shape[:-1] + (3,), dtype=np.complex128)
        try:
            nodal.nodal_count(h, 1)
        except InternalCrossCheckError:
            sys.exit(0)
        sys.exit(1)
    """)
    run = run_optimized(script)
    assert run.returncode == 0, run.stderr


def test_kernel_verdicts_survive_optimized_mode():
    """The class sum, every class block's masks and errors, and the
    per-k counts print the same under ``python -O`` as without it."""
    script = textwrap.dedent("""
        import json, sys
        import numpy as np
        import magnodal.nodal as nodal
        from magnodal.errors import MagnodalError
        from magnodal.families import complete_graph, strong_diagonal_fixture
        from magnodal.graphs import Graph
        from magnodal.operators import (SupportedMatrix,
                                        gauge_classes_of_signings)

        k4 = complete_graph(4)
        cases = [
            (strong_diagonal_fixture(k4), {}),
            (SupportedMatrix(k4, np.array([0, 1, 1, 2.0]), np.ones(6)), {}),
            (SupportedMatrix(k4, np.zeros(4), np.r_[0.0, np.ones(5)]), {}),
            (SupportedMatrix(Graph(4, ((0, 1), (0, 2), (1, 2))),
                             np.array([0.1, 0.2, 0.3, -5.0]), -np.ones(3)),
             {"tol_vanish": 0.0}),
            (SupportedMatrix(Graph(0), np.zeros(0), np.zeros(0)), {}),
        ]
        out = []
        for h, tols in cases:
            classes = gauge_classes_of_signings(h)
            for skip in (False, True):
                try:
                    counts, skipped = nodal._surplus_counts(h, classes, skip,
                                                            **tols)
                    out.append([counts.tolist(), skipped])
                except MagnodalError as exc:
                    out.append([type(exc).__name__, str(exc)])
            if not h.graph.n:
                continue
            (_, _, _, c), = nodal._class_blocks(h, classes, **tols)
            out.append([getattr(c, name).tobytes().hex() for name in (
                "simple", "vanishing", "flat", "unresolved", "surplus",
                "unbounded", "inadmissible", "out_of_bounds", "failed")])
            out.append([repr(c.error(row, col)) for row, col
                        in np.ndindex(c.surplus.shape)])
        print(json.dumps(out))
    """)
    plain = subprocess.run([sys.executable, "-c", script], env=run_env(),
                           capture_output=True, text=True, timeout=120)
    run = run_optimized(script)
    assert plain.returncode == 0 and run.returncode == 0, run.stderr
    assert run.stdout == plain.stdout


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
        nodal.edge_products = lambda g, off, v: np.ones(v.shape[:-1]
                                                        + (3,))
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
        # every signing of a zero-diagonal K4 is skipped: no samples
        k4 = complete_graph(4)
        zero = SupportedMatrix(k4, np.zeros(4),
                               -np.ones(k4.num_edges, dtype=np.complex128))
        empty = average_surplus_distribution(zero, skip_inadmissible=True)
        assert empty.n_samples == 0 and empty.skipped == 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDistributionError,
                               match="no samples"):
                normalized_distribution(empty)


@functools.cache
def wide_path_operator() -> SupportedMatrix:
    """A path on 306 vertices (307 is prime, so no eigenvector of the
    path vanishes) with three weak chords: 308 edges, beta 3, and every
    position of every signing admissible, with nodal counts past 255."""
    n = 306
    g = Graph(n, tuple((i, i + 1) for i in range(n - 1))
              + ((0, 150), (40, 260), (99, 299)))
    chord = g.endpoints[:, 1] - g.endpoints[:, 0] > 1
    return SupportedMatrix(g, np.zeros(n),
                           np.where(chord, -1e-3, -1.0).astype(np.complex128))


class TestCountsPastOneByte:
    """Per-pair counts above 255 against the scalar count, which sums
    in Python integers: an 8-bit accumulator would wrap them."""

    def test_nodal_dist(self, tmp_path, capsys):
        from magnodal.cli import main

        h = wide_path_operator()
        op = tmp_path / "wide.json"
        op.write_text(json.dumps(operator_to_json(h)))
        assert main(["nodal-dist", "--op", str(op)]) == 0
        payload = json.loads(capsys.readouterr().out)
        es = eigh(h)
        counts = [scalar_nodal_count(h, k, es=es)
                  for k in range(1, h.graph.n + 1)]
        assert max(counts) > 255
        assert [(r["status"], r["nodal_count"]) for r in payload["rows"]] \
            == [("ok", c) for c in counts]
        assert payload["surplus_histogram"] == np.bincount(
            [c - k for k, c in enumerate(counts)], minlength=4).tolist()

    def test_class_sum(self):
        """The class sum behind ``avg-dist`` with unit class sizes: the
        histogram of the 8 representatives, one scalar count at a time.
        ``avg-dist`` itself refuses the graph, whose ``n * 2^|E|``
        samples overflow its int64 counts, before any count."""
        h = wide_path_operator()
        classes = gauge_classes_of_signings(h)
        unit = SigningClasses(h.graph, classes.nonforest, 1)
        counts, skipped = nodal._surplus_counts(h, unit, False)
        expected = sum(signing_histogram(h, signs, {})
                       for signs in unit.rows(np.arange(8)))
        assert skipped == 0 and counts.tolist() == expected.tolist()
        with pytest.raises(CapExceededError, match="overflow the int64"):
            average_surplus_distribution(h)
