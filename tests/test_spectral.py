import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (complex_eigh, multiplicity_by_walk,
                      pseudo_inverse_apply, same_bits, small_graphs,
                      take_along_axis_phases)
from magnodal.errors import EigenSolverError, NonSimpleEigenvalueError
from magnodal.families import complete_graph
from magnodal.graphs import Graph, num_components
from magnodal.operators import GaugePhase, SupportedMatrix, gauge_transform
from magnodal.morse import RANK_TOL, _morse_indices
from magnodal.spectral import (
    DEGENERACY_TOL,
    EigenSystem,
    _normalize_phases,
    cluster_mask,
    eigh,
    eigh_dense,
    eigh_stack,
    eigvalsh_dense,
    is_nowhere_vanishing,
    multiplicity,
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
        """Every row, exactly real or not, gets the bits of its single
        solve on the complex path."""
        rng = np.random.default_rng(11)
        h = random_supported(6, rng, density=0.8)
        rows = rng.uniform(0.5, 1.5, size=(5, h.graph.num_edges)) + 0j
        if complex_entries:
            rows *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=rows.shape))
        values, vectors = eigh_stack(h.graph, h.diag, rows)
        assert np.iscomplexobj(vectors)
        for off, w, V in zip(rows, values, vectors):
            es = complex_eigh(SupportedMatrix(h.graph, h.diag, off))
            assert es.values.tobytes() == w.tobytes()
            assert es.vectors.tobytes() == V.tobytes()

    def test_real_rows_keep_their_bits_among_complex_rows(self):
        """The solver can pass the signs of a real row's zero imaginary
        parts on to its eigenvectors, as it does for some of these
        triangles; filled as among complex rows in every stack, a real
        row gets the same bits in an all-real stack as beside complex
        rows."""
        rng = np.random.default_rng(5)
        g, diag = complete_graph(3), rng.normal(size=3)
        real = rng.uniform(0.5, 1.5, (200, 3)) * rng.choice([-1, 1], (200, 3))
        mixed = np.concatenate(
            [real, real * np.exp(1j * rng.uniform(0, 2 * np.pi, real.shape))])
        alone = eigh_stack(g, diag, real + 0j)
        among = eigh_stack(g, diag, mixed)
        assert all(same_bits(a, b[:len(real)]) for a, b in zip(alone, among))

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



class TestPivotOracle:
    """``_normalize_phases`` indexes its pivots directly; it gives the
    bits of the ``np.take_along_axis`` version it replaced."""

    @pytest.mark.parametrize("shape", [
        (5, 5), (1, 1), (3, 2), (4, 3, 3), (2, 3, 4, 4), (0, 0),
        (0, 3, 3), (3, 0, 0), (2, 0, 4, 4)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_random_stacks(self, shape, complex_entries):
        rng = np.random.default_rng(sum(shape) + 10 * len(shape))
        v = rng.normal(size=shape)  # about half the real pivots negative
        if complex_entries:
            v = v + 1j * rng.normal(size=shape)
        got, want = _normalize_phases(v), take_along_axis_phases(v)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert same_bits(got, want)

    def test_negative_real_pivots_flip_their_columns(self):
        v = np.array([[[-3.0, 0.5], [1.0, -2.0]], [[0.25, 4.0], [-0.5, 1.0]]])
        got = _normalize_phases(v[None])[0]
        assert same_bits(got, take_along_axis_phases(v))
        assert same_bits(got, np.array([[[3.0, -0.5], [-1.0, 2.0]],
                                        [[-0.25, 4.0], [0.5, 1.0]]]))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_first_largest_entry_wins_a_tie(self, complex_entries):
        # every column holds two entries of exactly the same modulus
        if complex_entries:
            cols = [[0.625j, -0.625, 0.125], [0.375 + 0.5j, 0.625, -0.25],
                    [0.0, -0.5 - 0.0j, 0.5j]]
        else:
            cols = [[0.5, -0.5, 0.1], [-0.5, 0.5, 0.1], [0.2, -0.6, 0.6]]
        v = np.array(cols).T
        first = [0, 0, 1]
        for stack in (v, v[None], np.stack([v, -v])[None]):
            got = _normalize_phases(stack)
            assert same_bits(got, take_along_axis_phases(stack))
            pivots = got.reshape(-1, 3, 3)[:, first, [0, 1, 2]]
            assert np.all(pivots.real > 0.0)
            assert np.all(np.abs(pivots.imag) <= 1e-16)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_signed_zeros(self, complex_entries):
        z = -0.0
        if complex_entries:
            v = np.array([[complex(z, 0.5), complex(0.75, z), complex(z, z)],
                          [complex(-0.5, z), complex(0.0, -0.25), 1.0],
                          [complex(z, -0.25), complex(-0.75, 0.0),
                           complex(0.0, z)]])
        else:
            v = np.array([[z, 0.0, -0.75], [-0.5, z, 0.25], [0.0, -0.25, z]])
        for stack in (v, np.stack([v, v.T]), np.stack([v, -v])[:, None]):
            assert same_bits(_normalize_phases(stack),
                             take_along_axis_phases(stack))


def broken_stack(value, complex_entries: bool) -> np.ndarray:
    """Three Hermitian 4x4 matrices; the middle one holds ``value`` in
    a symmetric pair of entries."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4, 4))
    if complex_entries:
        a = a + 1j * rng.normal(size=(3, 4, 4))
    a = a + np.conj(a.swapaxes(1, 2))
    a[1, 2, 0] = a[1, 0, 2] = value
    return a


BROKEN = [(value, complex_entries) for value in (np.nan, np.inf, -np.inf)
          for complex_entries in (False, True)]


class TestGatewayFailures:
    """LAPACK fails on a NaN or infinite entry, and every solve through
    the gateway raises ``EigenSolverError`` for it, stacked or alone."""

    @pytest.mark.parametrize("value,complex_entries", BROKEN)
    def test_dense_solves(self, value, complex_entries):
        a = broken_stack(value, complex_entries)
        for solve in (eigh_dense, eigvalsh_dense):
            for dense in (a, a[1], a[None]):
                with pytest.raises(EigenSolverError):
                    solve(dense)
        assert eigh_dense(a[::2])[0].shape == (2, 4)  # the others solve

    @pytest.mark.parametrize("value,complex_entries", BROKEN)
    def test_eigh_and_eigh_stack(self, value, complex_entries):
        g = complete_graph(4)
        off = np.ones((3, g.num_edges),
                      dtype=np.complex128 if complex_entries else float)
        if complex_entries:
            off *= np.exp(0.5j)
        off[1, 2] = value
        with pytest.raises(EigenSolverError):
            eigh_stack(g, np.zeros(4), off)
        with pytest.raises(EigenSolverError):
            eigh(SupportedMatrix(g, np.zeros(4), off[1]))

    def test_nan_results_are_refused_too(self):
        """On this matrix ``np.linalg.eigh`` reports no failure and
        returns NaNs; the gateway refuses it."""
        a = np.ones((4, 4)) - np.eye(4)
        a[1, 0] = a[0, 1] = np.inf
        assert np.isnan(np.linalg.eigvalsh(a)).all()
        for solve in (eigh_dense, eigvalsh_dense):
            with pytest.raises(EigenSolverError, match="non-finite"):
                solve(a)
        with pytest.raises(EigenSolverError, match="non-finite"):
            eigh_stack(complete_graph(4), np.zeros(4),
                       np.array([[np.inf, 1, 1, 1, 1, 1]]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value,complex_entries", BROKEN)
    def test_morse_indices(self, value, complex_entries):
        with pytest.raises(EigenSolverError):
            _morse_indices(broken_stack(value, complex_entries), RANK_TOL)

    def test_failures_raise_under_optimized_mode(self):
        from test_nodal import run_optimized

        script = textwrap.dedent("""
            import sys
            import numpy as np
            from magnodal.errors import EigenSolverError
            from magnodal.families import complete_graph
            from magnodal.morse import RANK_TOL, _morse_indices
            from magnodal.operators import SupportedMatrix
            from magnodal.spectral import (eigh, eigh_dense, eigh_stack,
                                           eigvalsh_dense)

            if not sys.flags.optimize:
                sys.exit(2)
            g = complete_graph(4)
            raised = 0
            for value in (np.nan, np.inf):
                for dtype in (float, complex):
                    a = np.ones((2, 4, 4), dtype=dtype)
                    a[1, 2, 0] = a[1, 0, 2] = value
                    off = np.ones((2, g.num_edges), dtype=dtype)
                    off[1, 0] = value
                    for call in (lambda: eigh_dense(a),
                                 lambda: eigvalsh_dense(a),
                                 lambda: eigh(SupportedMatrix(
                                     g, np.zeros(4), off[1])),
                                 lambda: eigh_stack(g, np.zeros(4), off),
                                 lambda: _morse_indices(a, RANK_TOL)):
                        try:
                            call()
                        except EigenSolverError:
                            raised += 1
            sys.exit(0 if raised == 20 else 1)
        """)
        run = run_optimized(script)
        assert run.returncode == 0, run.stderr

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

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(6).filter(lambda g: g.n and num_components(g) == 1),
           st.data())
    def test_spectrum_is_gauge_invariant(self, g, data):
        """A vertex phase transform is a unitary conjugation, so the
        spectrum of a connected operator does not move."""
        floats = st.floats(-2.0, 2.0)
        angles = st.floats(0.0, 2 * np.pi)
        diag = np.array(data.draw(st.lists(floats, min_size=g.n,
                                           max_size=g.n)))
        moduli = np.array(data.draw(st.lists(
            st.floats(0.2, 2.0), min_size=g.num_edges,
            max_size=g.num_edges)))
        phases = np.array(data.draw(st.lists(
            angles, min_size=g.num_edges, max_size=g.num_edges)))
        theta = np.array(data.draw(st.lists(angles, min_size=g.n,
                                            max_size=g.n)))
        h = SupportedMatrix(g, diag, moduli * np.exp(1j * phases))
        values = eigh(h).values
        moved = eigh(gauge_transform(GaugePhase(theta), h)).values
        np.testing.assert_allclose(moved, values, rtol=0.0,
                                   atol=1e-12 * max(1.0, h.norm_fro))

    def test_stacked_cut_matches_the_scalar_one(self):
        # neighbours at, inside and just outside the cluster tolerance,
        # on rows whose scale is set by 1 or by the largest eigenvalue
        rng = np.random.default_rng(13)
        steps = rng.choice([0.0, 0.5e-8, 1e-8, 1.5e-8, 0.4], size=(300, 6))
        values = rng.uniform(-2.0, 2.0, size=(300, 1)) \
            + np.cumsum(steps, axis=1)
        values[::3] *= 50.0
        # gaps exactly at the cut, which is 1e-8 here
        values = np.vstack([values, [-1.0, -0.5, 0.0, 1e-8, 2e-8, 1.0]])
        simple = simple_positions(values)
        assert simple.shape == values.shape
        walks = [[multiplicity_by_walk(row, k, DEGENERACY_TOL)
                  for k in range(1, 7)] for row in values]
        for row, flags, walk in zip(values, simple, walks):
            es = EigenSystem(row, np.eye(len(row)))
            assert [multiplicity(es, k) for k in range(1, 7)] == walk
            assert flags.tolist() == [m == 1 for m, _ in walk]
        for k in range(1, 7):  # the stacked test, a whole stack at once
            assert np.count_nonzero(cluster_mask(values, values[:, k - 1]),
                                    axis=1).tolist() \
                == [walk[k - 1][0] for walk in walks]
        assert 0 < np.count_nonzero(~simple) < simple.size
        assert max(m for walk in walks for m, _ in walk) >= 3


class TestVanishing:
    def test_nowhere_vanishing(self):
        ok, where = is_nowhere_vanishing(np.ones(3) / np.sqrt(3))
        assert ok and where == []

    def test_vanishing_entry(self):
        ok, where = is_nowhere_vanishing(np.array([1.0, 0.0, -1.0])
                                         / np.sqrt(2))
        assert not ok and where == [1]

    def test_boundary_is_strict(self, monkeypatch):
        import magnodal.spectral as spectral

        tol = 1e-6  # read when it runs: a patched cut is the one used
        monkeypatch.setattr(spectral, "VANISH_TOL", tol)
        ok, where = is_nowhere_vanishing(np.array([tol, 1.0]))
        # an entry exactly at the threshold does not vanish (strict <)
        assert ok and where == []
        ok, where = is_nowhere_vanishing(np.array([tol * 0.99, 1.0]))
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
        assert resolvent_coefficient(eigh(diag_op([0.0, 1.0])), 2, 0) == \
            pytest.approx(1.0)

    def test_top_eigenvalue_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = random_supported(5, rng)
            es = eigh(h)
            if multiplicity(es, 5)[0] != 1:
                continue
            for vertex in range(5):
                assert resolvent_coefficient(es, 5, vertex) >= 0.0

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
                    c = resolvent_coefficient(es, k, vertex)
                    assert c == pytest.approx(-diag_entry, abs=1e-10)

    def test_phase_invariance(self):
        rng = np.random.default_rng(10)
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        h = SupportedMatrix(g, rng.uniform(0, 1, 4),
                            -np.ones(4, dtype=np.complex128))
        theta = rng.uniform(0, 2 * np.pi, 4)
        h2 = gauge_transform(GaugePhase(theta), h)
        for k in (1, 4):
            a = resolvent_coefficient(eigh(h), k, 2)
            b = resolvent_coefficient(eigh(h2), k, 2)
            assert a == pytest.approx(b, rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(NonSimpleEigenvalueError):
            resolvent_coefficient(eigh(diag_op([0.0, 0.0, 1.0])), 1, 0)

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            resolvent_coefficient(eigh(diag_op([0.0, 1.0])), 1, 5)
