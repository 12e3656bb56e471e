"""Degeneracy strata, transversality tests, and splitting diagnostics."""

import functools
import re

import numpy as np
import pytest

from conftest import (degenerate_ring_fixture, path_graph,
                      projects_surjectively, same_bits, scalar_transverse,
                      two_triangle_join)
from magnodal.errors import InternalCrossCheckError, StratumAmbiguousError
from magnodal.families import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    random_join_fixture,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.graphs import Graph
from magnodal.operators import SupportedMatrix
from magnodal.spectral import EigenSystem, eigh
from magnodal.transversality import (
    EigenspaceBasis,
    codim_stratum,
    eigenspace_basis,
    find_edge_separated_pair,
    is_transverse_at,
    support_components,
)


def manual_basis(vectors, eigenvalue=0.0):
    v = np.asarray(vectors, dtype=np.complex128)
    return EigenspaceBasis(eigenvalue=eigenvalue, k_first=1,
                           dim=v.shape[1], vectors=v)


class TestCodim:
    def test_values(self):
        assert codim_stratum(1) == 0
        assert codim_stratum(2) == 3
        assert codim_stratum(3) == 8

    def test_positive_required(self):
        with pytest.raises(ValueError):
            codim_stratum(0)


class TestEigenspaceBasis:
    def test_simple_eigenvalues(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        for k in (1, 2, 3):
            b = eigenspace_basis(h, k)
            assert b.dim == 1 and b.k_first == k
            assert b.vectors.shape == (3, 1)

    def test_orthonormal(self):
        h, k = two_triangle_join()
        b = eigenspace_basis(h, k)
        assert b.dim == 2
        gram = b.vectors.conj().T @ b.vectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_join_cluster_eigenvalue(self):
        h, k = two_triangle_join()
        b = eigenspace_basis(h, k)
        assert b.eigenvalue == pytest.approx(1.0, abs=1e-9)

    def test_interior_query_rejected(self):
        h, k = degenerate_ring_fixture(4)
        with pytest.raises(StratumAmbiguousError):
            eigenspace_basis(h, k + 1)


def support(basis):
    """The support of ``basis``, on a graph without edges."""
    return support_components(Graph(len(basis.vectors)), basis)[0]


def splits(g, basis):
    return len(support_components(g, basis)[1]) > 1


def separated_pair(g, basis):
    return find_edge_separated_pair(basis, support_components(g, basis)[1])


class TestSupport:
    def test_coordinate_vector(self):
        b = manual_basis(np.array([[1.0], [0.0], [0.0]]))
        assert support(b) == (0,)

    def test_plus_minus_pair(self):
        r = 1 / np.sqrt(2)
        b = manual_basis(np.array([[r, r], [r, -r], [0.0, 0.0]]))
        assert support(b) == (0, 1)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        assert support(manual_basis(q)) == support(manual_basis(q @ rot))

    def test_join_fixture_avoids_shared_vertex(self):
        h, k = two_triangle_join()
        b = eigenspace_basis(h, k)
        assert support(b) == (1, 2, 3, 4)


class TestSplitsGraph:
    def test_join_fixture_splits(self):
        h, k = two_triangle_join()
        assert splits(h.graph, eigenspace_basis(h, k))

    def test_nowhere_vanishing_does_not_split(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        assert not splits(h.graph, eigenspace_basis(h, 1))

    def test_ring_cluster_does_not_split(self):
        h, k = degenerate_ring_fixture(4)
        assert not splits(h.graph, eigenspace_basis(h, k))

    def test_empty_support_has_no_components(self):
        b = manual_basis(np.zeros((3, 1)))
        assert support_components(path_graph(3), b) == ((), [])


class TestProjectsSurjectively:
    def test_coordinate_pair(self):
        b = manual_basis(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert projects_surjectively(b, (0, 1))

    def test_rank_one_block(self):
        b = manual_basis(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert not projects_surjectively(b, (0, 1))

    def test_multiplicity_two_only(self):
        b = manual_basis(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            projects_surjectively(b, (0, 1))

    def test_join_fixture_fails_on_every_edge(self):
        h, k = two_triangle_join()
        b = eigenspace_basis(h, k)
        assert not any(projects_surjectively(b, e) for e in h.graph.edges)


class TestIsTransverse:
    def test_simple_eigenvalues_always_transverse(self):
        rng = np.random.default_rng(14)
        for _ in range(12):
            n = int(rng.integers(3, 7))
            mmax = n * (n - 1) // 2
            g = random_connected_graph(n, int(rng.integers(n - 1, mmax + 1)),
                                       rng)
            h = random_operator(g, rng)
            rep = is_transverse_at(h, 1)
            assert rep.transverse and rep.multiplicity == 1
            assert rep.codimension == 0
            assert rep.compression_rank == 1
            assert rep.kernel_witness is None

    def test_complete_graph_has_no_offgraph_directions(self):
        h = strong_diagonal_fixture(complete_graph(4))
        rep = is_transverse_at(h, 2)
        assert rep.transverse
        assert rep.smallest_singular_value == np.inf
        assert rep.kernel_dimension == 0

    def test_join_fixture_not_transverse(self):
        h, k = two_triangle_join()
        rep = is_transverse_at(h, k)
        assert not rep.transverse
        assert rep.multiplicity == 2 and rep.codimension == 3
        assert rep.compression_rank < 4
        assert rep.kernel_dimension >= 1
        x = rep.kernel_witness
        assert x is not None
        scale = max(1.0, h.norm_fro)
        np.testing.assert_allclose(x, x.conj().T, atol=1e-12)
        assert np.max(np.abs(np.diag(x))) <= 1e-12
        for (r, s) in h.graph.edges:
            assert abs(x[r, s]) <= 1e-12
        assert np.linalg.norm(x) == pytest.approx(1.0)
        lam = rep.eigenvalue
        resid = np.linalg.norm((h.to_dense() - lam * np.eye(5)) @ x)
        assert resid <= 1e-8 * scale

    def test_random_join_fixtures_not_transverse(self):
        for seed in (0, 1, 2):
            h, k = random_join_fixture(np.random.default_rng(seed))
            rep = is_transverse_at(h, k)
            assert not rep.transverse and rep.multiplicity == 2

    def test_ring_cluster_transverse(self):
        h, k = degenerate_ring_fixture(4)
        rep = is_transverse_at(h, k)
        assert rep.transverse and rep.multiplicity == 2
        assert rep.compression_rank == 4

    def test_interior_query_rejected(self):
        h, k = degenerate_ring_fixture(4)
        with pytest.raises(StratumAmbiguousError):
            is_transverse_at(h, k + 1)


class TestEdgeSeparatedPair:
    def test_join_fixture_pair(self):
        h, k = two_triangle_join()
        b = eigenspace_basis(h, k)
        pair = separated_pair(h.graph, b)
        assert pair is not None
        u, v = pair
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        # supports never share an edge
        for (r, s) in h.graph.edges:
            assert min(abs(u[r]), abs(u[s])) * min(abs(v[r]), abs(v[s])) \
                <= 1e-12
        # both are genuine eigenvectors of the cluster
        shifted = h.to_dense() - b.eigenvalue * np.eye(5)
        assert np.linalg.norm(shifted @ u) <= 1e-9 * max(1.0, h.norm_fro)
        assert np.linalg.norm(shifted @ v) <= 1e-9 * max(1.0, h.norm_fro)
        # the outer-product witness kills transversality
        x = np.outer(u, v.conj()) + np.outer(v, u.conj())
        resid = np.linalg.norm(shifted @ x)
        assert resid <= 1e-9 * max(1.0, h.norm_fro) * np.linalg.norm(x)

    def test_manual_path_construction(self):
        g = path_graph(3)
        b = manual_basis(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        pair = separated_pair(g, b)
        assert pair is not None
        u, v = pair
        vecs = sorted([tuple(np.round(np.abs(u), 12)),
                       tuple(np.round(np.abs(v), 12))])
        assert vecs == [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]

    def test_connected_support_gives_none(self):
        h, k = degenerate_ring_fixture(4)
        assert separated_pair(h.graph, eigenspace_basis(h, k)) is None

    def test_single_component_simple(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        assert separated_pair(h.graph, eigenspace_basis(h, 1)) is None


@functools.cache
def transversality_cases():
    """Operators and cluster starts: random join fixtures (not
    transverse, with witnesses), the two-triangle join, degenerate rings,
    and random operators on up to seven vertices at every simple k,
    complete and edgeless graphs included."""
    rng = np.random.default_rng(2024)
    cases = [random_join_fixture(rng) for _ in range(40)]
    cases.append(two_triangle_join())
    cases += [degenerate_ring_fixture(n) for n in (4, 6, 8)]
    for n in (*range(1, 8), 5, 6, 7, 7):
        for m in sorted({n - 1, (n - 1 + n * (n - 1) // 2) // 2,
                         n * (n - 1) // 2}):
            h = random_operator(random_connected_graph(n, max(m, 0), rng),
                                rng)
            cases += [(h, k) for k in range(1, n + 1)]
    cases.append((SupportedMatrix(Graph(3), np.array([0.0, 1.0, 2.0]),
                                  np.zeros(0, dtype=np.complex128)), 2))
    return cases


class TestAgainstScalarOracle:
    """The stacked kernels of ``is_transverse_at`` against
    ``scalar_transverse``, which builds one unit matrix per direction:
    the same bits for every singular value, rank and witness."""

    @pytest.mark.parametrize("case", range(len(transversality_cases())))
    def test_bits_match(self, case, monkeypatch):
        h, k = transversality_cases()[case]
        want, sv, csv = scalar_transverse(h, k)
        seen = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            seen.append(out if kwargs.get("compute_uv", True) is False
                        else None)
            return out

        monkeypatch.setattr(np.linalg, "svd", recording)
        got = is_transverse_at(h, k)
        monkeypatch.undo()
        spectra = [s for s in seen if s is not None]
        assert same_bits(spectra[-1], csv)
        if sv.size:
            assert same_bits(spectra[0], sv)
        else:
            assert len(spectra) == 1
        for field in ("transverse", "multiplicity", "codimension",
                      "kernel_dimension", "compression_rank"):
            assert getattr(got, field) == getattr(want, field), field
        assert same_bits(got.eigenvalue, want.eigenvalue)
        assert same_bits(got.smallest_singular_value,
                         want.smallest_singular_value)
        assert same_bits(got.basis.vectors, want.basis.vectors)
        if want.kernel_witness is None:
            assert got.kernel_witness is None
        else:
            assert same_bits(got.kernel_witness, want.kernel_witness)

    def test_cases_cover_both_verdicts(self):
        verdicts = [scalar_transverse(h, k)[0].transverse
                    for h, k in transversality_cases()]
        assert verdicts.count(False) >= 40 and verdicts.count(True) >= 150


class TestResidualCheck:
    """The residual check catches a solver whose vectors are wrong."""

    @staticmethod
    def solving(monkeypatch, values, vectors):
        import magnodal.transversality as transversality

        monkeypatch.setattr(transversality, "eigh",
                            lambda h: EigenSystem(values, vectors))

    def test_wrong_vector_is_named(self, monkeypatch):
        h, k = two_triangle_join()
        es = eigh(h)
        vectors = np.array(es.vectors)
        vectors[:, k] = np.roll(vectors[:, k], 1)
        self.solving(monkeypatch, es.values, vectors)
        with pytest.raises(InternalCrossCheckError,
                           match=r"eigenvector residual \d\.\d{3}e[+-]\d+ "
                                 r"exceeds the cluster budget"):
            eigenspace_basis(h, k)

    def test_first_failing_column_is_reported(self, monkeypatch):
        h, k = two_triangle_join()
        es = eigh(h)
        vectors = np.array(es.vectors)
        vectors[:, k - 1] = np.roll(vectors[:, k - 1], 1)
        vectors[:, k] = 3.0 * np.roll(vectors[:, k], 2)
        dense = h.to_dense()
        lam = float(np.mean(es.values[k - 1:k + 1]))
        first = np.linalg.norm(dense @ vectors[:, k - 1]
                               - lam * vectors[:, k - 1])
        self.solving(monkeypatch, es.values, vectors)
        with pytest.raises(InternalCrossCheckError,
                           match=re.escape(f"residual {first:.3e} exceeds")):
            eigenspace_basis(h, k)


class TestCutsReadAtCallTime:
    """The rank and support cuts are ``transversality`` constants, read
    at call time."""

    def test_rank_cut(self, monkeypatch):
        import magnodal.transversality as transversality

        h = random_operator(path_graph(4), np.random.default_rng(3))
        assert is_transverse_at(h, 1).transverse
        monkeypatch.setattr(transversality, "TRANSVERSALITY_RANK_TOL", 1e6)
        rep = is_transverse_at(h, 1)  # raises if the two tests disagree
        assert not rep.transverse and rep.multiplicity == 1
        assert rep.compression_rank == 0 and rep.kernel_dimension >= 1

    def test_support_cut(self, monkeypatch):
        import magnodal.transversality as transversality

        h, k = random_join_fixture(np.random.default_rng(0))
        basis = eigenspace_basis(h, k)
        _, comps = support_components(h.graph, basis)
        assert find_edge_separated_pair(basis, comps) is not None
        monkeypatch.setattr(transversality, "SUPPORT_TOL", 2.0)
        assert support_components(h.graph, basis) == ((), [])
        assert find_edge_separated_pair(basis, comps) is None
