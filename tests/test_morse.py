"""Torus points, eigenvalue gradients, Hessians, and critical scans."""

import numpy as np
import pytest

from magnodal.errors import (
    NonSimpleEigenvalueError,
    NotCriticalError,
    NotProperlySupportedError,
)
from magnodal.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.graphs import Graph, OneForm, cycle_basis_from_forest
from magnodal.morse import (
    GaugeChart,
    TorusPoint,
    critical_scan,
    eigenvalue_at,
    eigenvalue_gradient,
    gauge_chart,
    gradient_coords,
    gradient_fd,
    hessian_eigenvalue,
    hessian_eigenvalue_fd,
    hessian_frozen_form,
    is_critical,
    morse_index,
    verify_index_equals_surplus,
)
from magnodal.nodal import nodal_count
from magnodal.operators import SupportedMatrix, abs_part
from magnodal.spectral import eigh, pseudo_inverse_apply


def triangle_base():
    g = cycle_graph(3)
    return SupportedMatrix(g, np.array([0.1, 0.2, 0.3]),
                           -np.ones(3, dtype=np.complex128))


def ring_op(n):
    g = cycle_graph(n)
    return SupportedMatrix(g, np.zeros(n), -np.ones(n, dtype=np.complex128))


class TestTorusPoint:
    def test_angle_reduction(self):
        h = abs_part(triangle_base())
        p = TorusPoint(h, np.array([-np.pi / 2, 3 * np.pi, 0.25]))
        assert p.angles[0] == pytest.approx(3 * np.pi / 2)
        assert p.angles[1] == pytest.approx(np.pi)
        assert p.angles[2] == pytest.approx(0.25)

    def test_complex_base_rejected(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([1j]))
        with pytest.raises(ValueError):
            TorusPoint(h, np.zeros(1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            TorusPoint(abs_part(triangle_base()), np.zeros(2))

    def test_from_coords_places_nonforest_angles(self):
        h = abs_part(triangle_base())
        chart = gauge_chart(h.graph)
        assert chart.dim == 1
        p = TorusPoint.from_coords(h, [0.7], chart)
        assert p.gauge_fixed
        nf = chart.nonforest_indices[0]
        assert p.angles[nf] == pytest.approx(0.7)
        assert np.count_nonzero(p.angles) == 1

    def test_from_operator_round_trip(self):
        h = triangle_base()
        p = TorusPoint.from_operator(h)
        assert p.base.is_real and np.all(p.base.offdiag.real > 0)
        # signs land in the angles as exact pi entries
        assert np.allclose(p.angles, np.pi)
        np.testing.assert_array_equal(p.operator().to_dense(), h.to_dense())

    def test_from_operator_with_twist(self):
        h = triangle_base()
        alpha = OneForm(h.graph, np.array([0.3, 0.0, 0.0]))
        p = TorusPoint.from_operator(h, alpha)
        q = TorusPoint.from_operator(h)
        assert p.angles[0] == pytest.approx(q.angles[0] + 0.3)

    def test_from_operator_needs_support(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2),
                            np.zeros(1, dtype=np.complex128))
        with pytest.raises(NotProperlySupportedError):
            TorusPoint.from_operator(h)

    def test_coords_round_trip(self):
        h = abs_part(triangle_base())
        chart = gauge_chart(h.graph)
        p = TorusPoint.from_coords(h, [1.1], chart)
        q = p.with_coords(chart, p.coords(chart))
        np.testing.assert_allclose(q.angles, p.angles)

    def test_conjugate_negates_angles(self):
        h = abs_part(triangle_base())
        p = TorusPoint(h, np.array([0.5, 0.0, np.pi]))
        c = p.conjugate()
        assert c.angles[0] == pytest.approx(2 * np.pi - 0.5)
        assert c.angles[1] == 0.0
        assert c.angles[2] == pytest.approx(np.pi)

    def test_conjugate_preserves_spectrum(self):
        rng = np.random.default_rng(8)
        h = abs_part(random_operator(complete_graph(4), rng))
        p = TorusPoint(h, rng.uniform(0, 2 * np.pi, size=6))
        for k in (1, 2, 3, 4):
            assert eigenvalue_at(p.conjugate(), k) == \
                pytest.approx(eigenvalue_at(p, k), abs=1e-12)


class TestGradient:
    def test_zero_at_real_point(self):
        h = strong_diagonal_fixture(complete_graph(4))
        p = TorusPoint.from_operator(h)
        scale = h.norm_fro
        for k in range(1, 5):
            g = eigenvalue_gradient(p, k)
            assert float(np.max(np.abs(g.values))) <= 1e-10 * scale

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = abs_part(random_operator(cycle_graph(3), rng))
        p = TorusPoint(h, rng.uniform(0, 2 * np.pi, size=3))
        for k in (1, 2, 3):
            exact = eigenvalue_gradient(p, k).values
            fd = gradient_fd(p, k)
            denom = max(1e-12, float(np.linalg.norm(exact)))
            assert np.linalg.norm(exact - fd) / denom <= 1e-6

    def test_degenerate_raises(self):
        p = TorusPoint.from_operator(ring_op(3))
        with pytest.raises(NonSimpleEigenvalueError):
            eigenvalue_gradient(p, 2)

    def test_chart_slice(self):
        rng = np.random.default_rng(4)
        h = abs_part(random_operator(complete_graph(4), rng))
        p = TorusPoint(h, rng.uniform(0, 2 * np.pi, size=6))
        chart = gauge_chart(h.graph)
        full = eigenvalue_gradient(p, 1).values
        np.testing.assert_allclose(gradient_coords(p, 1, chart),
                                   full[chart.nonforest_indices])

    def test_tree_chart_is_empty(self):
        rng = np.random.default_rng(1)
        h = abs_part(random_operator(path_graph(4), rng))
        chart = gauge_chart(h.graph)
        assert chart.dim == 0
        p = TorusPoint.from_operator(h)
        assert gradient_coords(p, 2, chart).shape == (0,)


class TestIsCritical:
    def test_symmetry_point(self):
        p = TorusPoint.from_operator(triangle_base())
        rep = is_critical(p, 1)
        assert rep.critical and rep.kind == "symmetry"
        assert rep.multiplicity == 1 and rep.vanishing == ()

    def test_generic_point_not_critical(self):
        h = abs_part(triangle_base())
        p = TorusPoint(h, np.array([0.9, 0.0, 0.0]))
        rep = is_critical(p, 1)
        assert not rep.critical and rep.kind == "smooth-regular"
        assert rep.max_imag_product > 0

    def test_degenerate_point(self):
        p = TorusPoint.from_operator(ring_op(3))
        rep = is_critical(p, 2)
        assert rep.critical and rep.kind == "incorrigible"
        assert rep.multiplicity == 2

    def test_exceptional_point(self):
        from magnodal.linkage import build_exceptional_fixture

        fx = build_exceptional_fixture(3, seed=0)
        rep = is_critical(fx.point, fx.k)
        assert rep.critical and rep.kind == "exceptional"
        assert rep.vanishing == (0,)


class TestFrozenForm:
    def test_two_vertex_blocks(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.array([0.2, 0.9]),
                            np.array([-1.1], dtype=np.complex128))
        p = TorusPoint.from_operator(h)
        for k in (1, 2):
            ff = hessian_frozen_form(p, k)
            assert ff.edge_block_index == nodal_count(h, k)
            assert ff.gauge_block_index() == k - 1

    def test_triangle_blocks(self):
        h = triangle_base()
        p = TorusPoint.from_operator(h)
        for k, count in ((1, 0), (2, 2), (3, 2)):
            ff = hessian_frozen_form(p, k)
            assert ff.edge_block_index == count
            assert ff.gauge_block_index() == k - 1

    def test_needs_critical_point(self):
        h = abs_part(triangle_base())
        p = TorusPoint(h, np.array([1.2, 0.0, 0.0]))
        with pytest.raises(NotCriticalError):
            hessian_frozen_form(p, 1)


class TestHessian:
    def test_matches_fd_at_moderate_scale(self):
        p = TorusPoint.from_operator(triangle_base())
        for k in (1, 2, 3):
            exact = hessian_eigenvalue(p, k)
            fd = hessian_eigenvalue_fd(p, k)
            rel = np.linalg.norm(exact - fd) \
                / max(1.0, np.linalg.norm(exact))
            assert rel <= 1e-4

    def test_matches_fd_on_several_cycles(self):
        h = strong_diagonal_fixture(complete_graph(4), eta=10.0)
        p = TorusPoint.from_operator(h)
        exact = hessian_eigenvalue(p, 2)
        fd = hessian_eigenvalue_fd(p, 2)
        assert exact.shape == (3, 3)
        rel = np.linalg.norm(exact - fd) / max(1.0, np.linalg.norm(exact))
        assert rel <= 1e-4

    def test_matches_fd_away_from_critical_points(self):
        rng = np.random.default_rng(5)
        h = abs_part(random_operator(complete_graph(5), rng))
        chart = gauge_chart(h.graph)
        for _ in range(20):
            p = TorusPoint.from_coords(
                h, rng.uniform(0, 2 * np.pi, size=chart.dim), chart)
            for k in range(1, 6):
                assert not is_critical(p, k).critical
                exact = hessian_eigenvalue(p, k, chart=chart)
                fd = hessian_eigenvalue_fd(p, k, chart=chart)
                rel = np.linalg.norm(exact - fd) \
                    / max(1.0, np.linalg.norm(exact))
                assert rel <= 1e-4

    def test_matches_per_column_pseudo_inverse(self):
        # Reference assembly: one pseudo_inverse_apply per direction.
        rng = np.random.default_rng(11)
        h = abs_part(random_operator(complete_graph(5), rng))
        chart = gauge_chart(h.graph)
        edges = [h.graph.edges[i] for i in chart.nonforest_indices]
        for _ in range(5):
            p = TorusPoint.from_coords(
                h, rng.uniform(0, 2 * np.pi, size=chart.dim), chart)
            op = p.operator()
            es = eigh(op)
            for k in range(1, 6):
                v, lam = es.vector(k), es.value(k)
                W = np.zeros((5, chart.dim), dtype=np.complex128)
                for j, (r, s) in enumerate(edges):
                    hrs = op.offdiag[h.graph.index_of(r, s)]
                    W[r, j] = 1j * hrs * v[s]
                    W[s, j] = -1j * np.conj(hrs) * v[r]
                Vp = np.column_stack([-pseudo_inverse_apply(op, lam, w, es=es)
                                      for w in W.T])
                ref = 2.0 * np.real(Vp.conj().T @ W).T
                for j, (r, s) in enumerate(edges):
                    ref[j, j] -= 2.0 * np.real(
                        np.conj(v[r]) * op.offdiag[h.graph.index_of(r, s)]
                        * v[s])
                ref = 0.5 * (ref + ref.T)
                np.testing.assert_allclose(
                    hessian_eigenvalue(p, k, chart=chart, es=es), ref,
                    rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_degenerate_raises(self):
        p = TorusPoint.from_operator(ring_op(3))
        with pytest.raises(NonSimpleEigenvalueError):
            hessian_eigenvalue(p, 2)

    def test_tree_hessian_is_empty(self):
        rng = np.random.default_rng(3)
        h = abs_part(random_operator(path_graph(3), rng))
        p = TorusPoint.from_operator(h)
        assert hessian_eigenvalue(p, 1).shape == (0, 0)

    def test_index_does_not_depend_on_forest(self):
        h = strong_diagonal_fixture(complete_graph(4))
        p = TorusPoint.from_operator(h)
        default = gauge_chart(h.graph)
        path_forest = ((0, 1), (1, 2), (2, 3))
        other = GaugeChart(h.graph,
                           cycle_basis_from_forest(h.graph, path_forest,
                                                   [-1, 0, 1, 2]))
        assert sorted(default.basis.forest_edges) != sorted(path_forest)
        for k in range(1, 5):
            a = morse_index(hessian_eigenvalue(p, k, chart=default))
            b = morse_index(hessian_eigenvalue(p, k, chart=other))
            assert a == b


class TestMorseIndex:
    def test_trivial_matrices(self):
        assert morse_index(np.eye(3)) == (0, 0)
        assert morse_index(-np.eye(3)) == (3, 0)
        assert morse_index(np.diag([-1.0, 0.0, 2.0])) == (1, 1)
        assert morse_index(np.zeros((2, 2))) == (0, 2)
        assert morse_index(np.zeros((0, 0))) == (0, 0)

    def test_rank_tolerance(self):
        h = np.diag([1.0, 1e-9])
        assert morse_index(h, rank_tol=1e-7) == (0, 1)
        assert morse_index(h, rank_tol=1e-12) == (0, 0)


class TestCriticalScan:
    def test_tree_has_single_trivial_report(self):
        rng = np.random.default_rng(6)
        h = random_operator(path_graph(3), rng)
        sr = critical_scan(h, 1)
        assert len(sr.reports) == 1
        assert sr.reports[0].coords == ()
        assert sr.reports[0].classification == "symmetry"
        assert sr.starts_attempted == 0

    def test_triangle_symmetry_points(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        for k in (1, 2, 3):
            sr = critical_scan(h, k, starts=16, seed=0)
            assert len(sr.reports) == 2
            assert all(r.classification == "symmetry" for r in sr.reports)
            assert all(r.origin == "symmetry-enumeration"
                       for r in sr.reports)
            assert sorted(r.morse_index for r in sr.reports) == [0, 1]
            assert all(r.nullity == 0 for r in sr.reports)
            assert not sr.incorrigible_candidates

    def test_degenerate_ring_reports_incorrigible(self):
        sr = critical_scan(ring_op(4), 2, starts=8, seed=0)
        assert all(r.classification == "incorrigible" for r in sr.reports)
        assert all(r.multiplicity == 2 for r in sr.reports)
        assert sr.incorrigible_candidates

    def test_deterministic_under_seed(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        a = critical_scan(h, 2, starts=12, seed=5)
        b = critical_scan(h, 2, starts=12, seed=5)
        assert [r.coords for r in a.reports] == [r.coords for r in b.reports]

    def test_complex_matrix_rejected(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([1j]))
        with pytest.raises(ValueError):
            critical_scan(h, 1)

    @pytest.mark.parametrize("h", [
        strong_diagonal_fixture(complete_graph(4), eta=10.0),
        *(random_operator(complete_graph(4), np.random.default_rng(s))
          for s in range(6)),
    ], ids=["strong-K4", *(f"random-K4-seed{s}" for s in range(6))])
    def test_search_reports_are_critical(self, h):
        base = abs_part(h)
        scale = max(1.0, base.norm_fro)
        chart = gauge_chart(h.graph)
        for k in range(1, h.graph.n + 1):
            sr = critical_scan(h, k, starts=16, seed=0)
            for r in sr.reports:
                if r.origin != "search":
                    continue
                p = TorusPoint.from_coords(base, np.array(r.coords), chart)
                assert float(np.max(np.abs(gradient_fd(p, k)))) \
                    <= 1e-6 * scale
                assert r.morse_index + r.nullity <= chart.dim

    def test_newton_steps_cost_one_eigensolve(self, monkeypatch):
        import magnodal.morse as morse

        calls = 0

        def counting_eigh(h):
            nonlocal calls
            calls += 1
            return eigh(h)

        monkeypatch.setattr(morse, "eigh", counting_eigh)
        h = strong_diagonal_fixture(complete_graph(5), eta=10.0)
        sr = critical_scan(h, 2, starts=16, seed=0)
        assert sr.starts_attempted > 0
        assert calls <= 20 * sr.starts_attempted


    @pytest.mark.parametrize("start", [0.0, np.pi, 2 * np.pi])
    def test_degenerate_start_costs_one_eigensolve(self, monkeypatch, start):
        import magnodal.morse as morse

        calls = 0

        def counting_eigh(h):
            nonlocal calls
            calls += 1
            return eigh(h)

        base = abs_part(ring_op(4))
        chart = gauge_chart(base.graph)
        monkeypatch.setattr(morse, "eigh", counting_eigh)
        status, x, gap = morse._polish(base, chart, 2, np.array([start]),
                                       1e-10, 1e-8)
        monkeypatch.undo()
        # the gap is the one a second solve at the same point would give
        x0 = np.mod(np.array([start]), 2 * np.pi)
        es = eigh(TorusPoint.from_coords(base, x0, chart).operator())
        expected = min(abs(es.values[j] - es.values[1]) for j in (0, 2, 3))
        assert calls == 1
        assert status == "degenerate"
        assert x.tolist() == x0.tolist()
        assert gap == expected


def count_calls(monkeypatch, module, *names):
    """Wrap the ``names`` bindings of ``module``; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _inner=getattr(module, name),
                     **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


class TestOneOperatorPerSolve:
    """Hessians reuse the solve they follow instead of rebuilding the
    operator at the same point."""

    def test_critical_scan(self, monkeypatch):
        import magnodal.morse as morse

        counts = count_calls(monkeypatch, morse, "eigh", "magnetic_action")
        critical_scan(strong_diagonal_fixture(complete_graph(5), eta=10.0),
                      2, starts=16, seed=0)
        assert counts["eigh"] > 0
        assert counts["magnetic_action"] <= counts["eigh"]

    def test_verify_index(self, monkeypatch):
        import magnodal.morse as morse

        counts = count_calls(monkeypatch, morse, "eigh", "magnetic_action")
        t = verify_index_equals_surplus(
            strong_diagonal_fixture(complete_graph(5)))
        assert t.num_ok == 320
        assert counts["eigh"] == 64
        assert counts["magnetic_action"] <= counts["eigh"]


class TestVerifyIndexSurplus:
    def test_triangle_all_classes(self):
        t = verify_index_equals_surplus(
            strong_diagonal_fixture(complete_graph(3)))
        assert len(t.rows) == 6 and t.num_ok == 6 and t.num_skipped == 0
        for row in t.rows:
            assert row.index == row.surplus and row.nullity == 0

    def test_k4_all_classes(self):
        t = verify_index_equals_surplus(
            strong_diagonal_fixture(complete_graph(4)))
        assert len(t.rows) == 32 and t.num_ok == 32

    def test_degenerate_classes_are_skipped(self):
        t = verify_index_equals_surplus(ring_op(4))
        assert len(t.rows) == 8
        assert t.num_ok == 2 and t.num_skipped == 6
        ok = [r for r in t.rows if r.status == "ok"]
        assert [(r.class_parities, r.k, r.surplus, r.index) for r in ok] \
            == [((0,), 1, 0, 0), ((0,), 4, 1, 1)]
        assert all("multiplicity" in r.reason for r in t.rows
                   if r.status == "skipped")

    def test_complex_matrix_rejected(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([1j]))
        with pytest.raises(ValueError):
            verify_index_equals_surplus(h)
