import numpy as np
import pytest

from magnodal.errors import NonSimpleEigenvalueError
from magnodal.graphs import Graph
from magnodal.operators import GaugePhase, SupportedMatrix, gauge_transform
from magnodal.spectral import (
    EigenSystem,
    _normalize_phases,
    eigh,
    eigh_stack,
    is_nowhere_vanishing,
    multiplicity,
    pseudo_inverse_apply,
    resolvent_coefficient,
    simple_positions,
)


def diag_op(values):
    n = len(values)
    return SupportedMatrix(Graph(n), np.array(values, dtype=float),
                           np.zeros(0, dtype=np.complex128))


def random_supported(n, rng, density=0.6, complex_entries=True):
    edges = tuple((r, s) for r in range(n) for s in range(r + 1, n)
                  if rng.random() < density)
    g = Graph(n, edges)
    diag = rng.uniform(-1.0, 1.0, size=n)
    off = rng.uniform(0.5, 1.5, size=g.num_edges).astype(np.complex128)
    if complex_entries:
        off *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=g.num_edges))
    return SupportedMatrix(g, diag, off)


class TestEigh:
    def test_diagonal_matrix(self):
        es = eigh(diag_op([3.0, 1.0, 2.0]))
        assert np.array_equal(es.values, [1.0, 2.0, 3.0])
        # permuted standard basis with positive phase
        assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]],
                           atol=1e-14)
        for k in (1, 2, 3):
            v = es.vector(k)
            assert v[int(np.argmax(np.abs(v)))] > 0

    def test_single_edge_closed_form(self):
        g = Graph(2, ((0, 1),))
        h = SupportedMatrix(g, np.zeros(2), np.array([-1.0 + 0j]))
        es = eigh(h)
        assert np.allclose(es.values, [-1.0, 1.0])
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(es.vectors), [[r, r], [r, r]])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(0)
        for n in (4, 8, 16):
            h = random_supported(n, rng)
            es = eigh(h)
            dense = h.to_dense()
            recon = (es.vectors * es.values) @ es.vectors.conj().T
            assert np.linalg.norm(dense - recon) <= 1e-10 * h.norm_fro

    def test_eigenpair_residuals_and_orthonormality(self):
        rng = np.random.default_rng(1)
        h = random_supported(8, rng)
        es = eigh(h)
        dense = h.to_dense()
        for k in range(1, 9):
            r = dense @ es.vector(k) - es.value(k) * es.vector(k)
            assert np.linalg.norm(r) <= 1e-10 * max(1.0, h.norm_fro)
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_real_input_gives_real_vectors(self):
        rng = np.random.default_rng(2)
        h = random_supported(6, rng, complex_entries=False)
        es = eigh(h)
        assert not np.iscomplexobj(es.vectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        h = random_supported(7, rng)
        es = eigh(h)
        for k in range(1, 8):
            v = es.vector(k)
            top = v[int(np.argmax(np.abs(v)))]
            assert abs(top.imag) <= 1e-12 * abs(top)
            assert top.real > 0

    def test_determinism(self):
        rng = np.random.default_rng(4)
        h = random_supported(6, rng)
        a, b = eigh(h), eigh(h)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_k_range_checked(self):
        es = eigh(diag_op([1.0, 2.0]))
        with pytest.raises(ValueError):
            es.value(0)
        with pytest.raises(ValueError):
            es.vector(3)


def normalize_by_columns(vectors):
    """Phase normalization one column at a time (the oracle)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        a = col[int(np.argmax(np.abs(col)))]
        if np.iscomplexobj(out):
            out[:, j] = col * (np.conj(a) / abs(a))
        elif a < 0.0:
            out[:, j] = -col
    return out


class TestStackedSolve:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_rows_match_single_solves(self, complex_entries):
        rng = np.random.default_rng(11)
        h = random_supported(6, rng, density=0.8)
        rows = rng.uniform(0.5, 1.5, size=(5, h.graph.num_edges)) + 0j
        if complex_entries:
            rows *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=rows.shape))
        values, vectors = eigh_stack(h.graph, h.diag, rows)
        assert np.iscomplexobj(vectors) == complex_entries
        for off, w, V in zip(rows, values, vectors):
            es = eigh(SupportedMatrix(h.graph, h.diag, off))
            assert es.values.tobytes() == w.tobytes()
            assert es.vectors.tobytes() == V.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_phase_normalization_matches_column_loop(self, n,
                                                     complex_entries):
        """Signed zeros included: a real anchor entry ``a`` with a zero
        imaginary part keeps the sign the scalar division gives it."""
        rng = np.random.default_rng(n)
        a = rng.normal(size=(20, n, n))
        if complex_entries:
            a = a + 1j * rng.normal(size=(20, n, n))
        _, vectors = np.linalg.eigh(a + np.conj(a.swapaxes(1, 2)))
        stacked = _normalize_phases(vectors)
        for V, S in zip(vectors, stacked):
            assert normalize_by_columns(V).tobytes() == S.tobytes()
            assert _normalize_phases(V).tobytes() == S.tobytes()


class TestMultiplicity:
    def test_distinct(self):
        es = eigh(diag_op([0.0, 1.0, 2.0]))
        for k in (1, 2, 3):
            assert multiplicity(es, k) == (1, k)

    def test_exact_degeneracy(self):
        es = eigh(diag_op([0.0, 0.0, 1.0]))
        assert multiplicity(es, 1) == (2, 1)
        assert multiplicity(es, 2) == (2, 1)
        assert multiplicity(es, 3) == (1, 3)

    def test_below_tolerance_cluster(self):
        es = eigh(diag_op([0.0, 1e-12, 1.0]))
        assert multiplicity(es, 1, tol_rel=1e-8) == (2, 1)
        assert multiplicity(es, 1, tol_rel=1e-14) == (1, 1)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(5)
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        h = SupportedMatrix(g, np.zeros(4), -np.ones(4, dtype=np.complex128))
        es = eigh(h)
        theta = rng.uniform(0, 2 * np.pi, 4)
        es2 = eigh(gauge_transform(GaugePhase(theta), h))
        for k in range(1, 5):
            assert multiplicity(es, k) == multiplicity(es2, k)

    def test_stacked_cut_matches_the_scalar_one(self):
        # neighbours at, inside and just outside the cluster tolerance,
        # on rows whose scale is set by 1 or by the largest eigenvalue
        rng = np.random.default_rng(13)
        steps = rng.choice([0.0, 0.5e-8, 1e-8, 1.5e-8, 0.4], size=(300, 6))
        values = rng.uniform(-2.0, 2.0, size=(300, 1)) \
            + np.cumsum(steps, axis=1)
        values[::3] *= 50.0
        simple = simple_positions(values)
        assert simple.shape == values.shape
        for row, flags in zip(values, simple):
            es = EigenSystem(row, np.eye(len(row)))
            assert flags.tolist() == [multiplicity(es, k)[0] == 1
                                      for k in range(1, len(row) + 1)]
        assert 0 < np.count_nonzero(~simple) < simple.size


class TestVanishing:
    def test_nowhere_vanishing(self):
        ok, where = is_nowhere_vanishing(np.ones(3) / np.sqrt(3))
        assert ok and where == []

    def test_vanishing_entry(self):
        ok, where = is_nowhere_vanishing(np.array([1.0, 0.0, -1.0])
                                         / np.sqrt(2))
        assert not ok and where == [1]

    def test_boundary_is_strict(self):
        tol = 1e-8
        ok, where = is_nowhere_vanishing(np.array([tol, 1.0]), tol=tol)
        # an entry exactly at the threshold does not vanish (strict <)
        assert ok and where == []
        ok, where = is_nowhere_vanishing(np.array([tol * 0.99, 1.0]),
                                         tol=tol)
        assert not ok and where == [0]


class TestPseudoInverse:
    def test_kernel_of_pseudo_inverse(self):
        rng = np.random.default_rng(6)
        h = random_supported(5, rng)
        es = eigh(h)
        out = pseudo_inverse_apply(h, es.value(2), es.vector(2), es=es)
        assert np.linalg.norm(out) <= 1e-12

    def test_two_level_closed_form(self):
        h = diag_op([1.0, 2.0])
        out = pseudo_inverse_apply(h, 1.0, np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0])

    def test_inverts_off_the_eigenspace(self):
        rng = np.random.default_rng(7)
        h = random_supported(6, rng)
        es = eigh(h)
        lam = es.value(3)
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        y = pseudo_inverse_apply(h, lam, x, es=es)
        shifted = h.to_dense() - lam * np.eye(6)
        proj = x - es.vector(3) * np.vdot(es.vector(3), x)
        assert np.linalg.norm(shifted @ y - proj) <= 1e-9 * max(
            1.0, float(np.linalg.norm(x)))
        # result orthogonal to the eigenspace
        assert abs(np.vdot(es.vector(3), y)) <= 1e-9


class TestResolventCoefficient:
    def test_two_level_closed_form(self):
        assert resolvent_coefficient(diag_op([0.0, 1.0]), 2, 0) == \
            pytest.approx(1.0)

    def test_top_eigenvalue_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = random_supported(5, rng)
            es = eigh(h)
            if multiplicity(es, 5)[0] != 1:
                continue
            for vertex in range(5):
                assert resolvent_coefficient(h, 5, vertex, es=es) >= 0.0

    def test_matches_pseudo_inverse_diagonal(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = random_supported(6, rng)
            es = eigh(h)
            for k in (1, 3, 6):
                if multiplicity(es, k)[0] != 1:
                    continue
                lam = es.value(k)
                for vertex in (0, 4):
                    e = np.zeros(6)
                    e[vertex] = 1.0
                    diag_entry = np.real(
                        pseudo_inverse_apply(h, lam, e, es=es)[vertex])
                    c = resolvent_coefficient(h, k, vertex, es=es)
                    assert c == pytest.approx(-diag_entry, abs=1e-10)

    def test_phase_invariance(self):
        rng = np.random.default_rng(10)
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        h = SupportedMatrix(g, rng.uniform(0, 1, 4),
                            -np.ones(4, dtype=np.complex128))
        theta = rng.uniform(0, 2 * np.pi, 4)
        h2 = gauge_transform(GaugePhase(theta), h)
        for k in (1, 4):
            a = resolvent_coefficient(h, k, 2)
            b = resolvent_coefficient(h2, k, 2)
            assert a == pytest.approx(b, rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(NonSimpleEigenvalueError):
            resolvent_coefficient(diag_op([0.0, 0.0, 1.0]), 1, 0)

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            resolvent_coefficient(diag_op([0.0, 1.0]), 1, 5)
