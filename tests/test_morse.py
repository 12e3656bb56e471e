"""Torus points, eigenvalue gradients, Hessians, and critical scans."""

import itertools

import numpy as np
import pytest

from conftest import (eigenvalue_at, gradient_fd, hessian_eigenvalue_fd,
                      scalar_report)
from magnodal.errors import (
    AdmissibilityError,
    InternalCrossCheckError,
    NonSimpleEigenvalueError,
    NotCriticalError,
    NotProperlySupportedError,
)
from magnodal.families import (
    complete_graph,
    cycle_graph,
    degenerate_ring_fixture,
    path_graph,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.graphs import Graph, OneForm, cycle_basis_from_forest
from magnodal.morse import (
    GaugeChart,
    TorusPoint,
    critical_scan,
    eigenvalue_gradient,
    gauge_chart,
    gradient_coords,
    hessian_eigenvalue,
    hessian_frozen_form,
    is_critical,
    morse_index,
    verify_index_equals_surplus,
)
from magnodal.nodal import nodal_count, nodal_surplus
from magnodal.operators import (
    FLUX_TOL,
    SupportedMatrix,
    abs_part,
    dense_matrices,
    is_gauge_equiv_to_symmetry,
)
from magnodal.spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    eigh,
    is_nowhere_vanishing,
    multiplicity,
    pseudo_inverse_apply,
)


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_flux_slack_near_a_symmetry_point(self, k):
        # Within CRITICAL_TOL of the real point the fluxes sit off pi by
        # more than FLUX_TOL; only the slack test calls the point real.
        h = abs_part(strong_diagonal_fixture(complete_graph(4), eta=10.0))
        chart = gauge_chart(h.graph)
        near = TorusPoint.from_coords(h, np.array([1e-6, 0.0, 0.0]), chart)
        equiv, _ = is_gauge_equiv_to_symmetry(near.operator(), tol=FLUX_TOL)
        assert not equiv
        rep = is_critical(near, k)
        assert rep.critical and rep.kind == "symmetry"
        off = TorusPoint.from_coords(h, np.array([1e-5, 0.0, 0.0]), chart)
        rep = is_critical(off, k)
        assert not rep.critical and rep.kind == "smooth-regular"


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

    def test_stack_matches_one_matrix_at_a_time(self):
        import magnodal.morse as morse

        a = np.random.default_rng(0).normal(size=(3, 3))
        stack = np.stack([a + a.T, np.zeros((3, 3)), -np.eye(3),
                          np.diag([-0.5, 0.5, 2.0]), a])
        w, index, nullity = morse._morse_indices(stack, 0.25)
        for m, wm, i, z in zip(stack, w, index, nullity):
            assert (int(i), int(z)) == morse_index(m, 0.25)
            assert same_bits(wm, np.linalg.eigvalsh(0.5 * (m + m.T)))
        # the zero matrix beside nonzero ones is all nullity
        assert (index[1], nullity[1]) == (0, 3)
        # -0.5 and 0.5 sit exactly on the cut 0.25 * 2.0: nullity, not index
        assert (index[3], nullity[3]) == (0, 2)

    def test_empty_stack(self):
        import magnodal.morse as morse

        w, index, nullity = morse._morse_indices(np.zeros((4, 0, 0)), 1e-7)
        assert w.shape == (4, 0)
        assert index.tolist() == nullity.tolist() == [0, 0, 0, 0]


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
        """One stacked solve per Newton round plus one for the symmetry
        points, and every start solves exactly the points its scalar run
        solves."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        h = strong_diagonal_fixture(complete_graph(5), eta=10.0)
        base, chart = abs_part(h), gauge_chart(h.graph)
        solves = [oracle_solve_count(monkeypatch, base, chart, 2, start)
                  for start in scan_starts(chart, 16, 0)]
        stacks = count_stacks(monkeypatch, morse)
        inner = morse._offdiag_at

        def marking(*args):  # every round builds its operators once
            stacks.append(("round", 0))
            return inner(*args)

        monkeypatch.setattr(morse, "_offdiag_at", marking)
        counts = count_calls(monkeypatch, nodal, "eigh")
        sr = critical_scan(h, 2, starts=16, seed=0)
        assert sr.starts_attempted == len(solves) > 0
        assert counts["eigh"] == 0
        rounds = [[]]  # the symmetry points come before the first round
        for path, _ in stacks:
            if path == "round":
                rounds.append([])
            else:
                rounds[-1].append(path)
        assert rounds[0] == ["real"]  # the symmetry points
        assert len(rounds) == 1 + max(solves)
        # one stacked solve per solver path: real rows (Newton trials that
        # land on 0 or pi exactly) among complex ones cost a second call
        assert all(sorted(r) in (["complex"], ["real"], ["complex", "real"])
                   for r in rounds[1:])
        assert sum(rows for path, rows in stacks if path != "round") \
            == 2 ** 6 + sum(solves)

    @pytest.mark.parametrize("start", [0.0, np.pi, 2 * np.pi])
    def test_degenerate_start_costs_one_eigensolve(self, monkeypatch, start):
        import magnodal.morse as morse

        base = abs_part(ring_op(4))
        chart = gauge_chart(base.graph)
        stacks = count_stacks(monkeypatch, morse)
        [(status, x, gap, solve)] = morse._polish(
            base, chart, 2, np.array([[start]]), 1e-10, 1e-8)
        monkeypatch.undo()
        # the gap is the one a second solve at the same point would give
        x0 = np.mod(np.array([start]), 2 * np.pi)
        es = eigh(TorusPoint.from_coords(base, x0, chart).operator())
        expected = min(abs(es.values[j] - es.values[1]) for j in (0, 2, 3))
        assert stacks == [("real", 1)]
        assert status == "degenerate" and solve is None
        assert x.tolist() == x0.tolist()
        assert gap == expected

    def test_search_reports_reuse_the_polish_solve(self, monkeypatch):
        """Every eigensolve of a scan is the symmetry stack or a Newton
        round: a search report reads the solve its polish ended on."""
        import magnodal.morse as morse

        stacks = count_stacks(monkeypatch, morse)
        in_polish = []
        original = morse._polish

        def counting_polish(*args, **kwargs):
            before = len(stacks)
            result = original(*args, **kwargs)
            in_polish.extend(stacks[before:])
            return result

        monkeypatch.setattr(morse, "_polish", counting_polish)
        h = random_operator(complete_graph(5), np.random.default_rng(0))
        sr = critical_scan(h, 2, starts=4, seed=0)
        search = sum(r.origin == "search" for r in sr.reports)
        assert search > 0  # 20 here; each cost a second solve once
        assert stacks == [("real", 2 ** 6)] + in_polish
        # ... and that solve is the one at the reported coordinates
        monkeypatch.undo()
        base, chart = abs_part(h), gauge_chart(h.graph)
        for r in sr.reports:
            if r.origin != "search":
                continue
            p = TorusPoint.from_coords(base, np.array(r.coords), chart)
            hp = p.operator()
            fresh = scalar_report(r.coords, hp, eigh(hp), 2, chart, "search",
                                  tol_degeneracy=DEGENERACY_TOL,
                                  tol_vanish=VANISH_TOL,
                                  rank_tol=morse.RANK_TOL)
            expected = fresh.to_payload()
            expected["conjugate_of"] = r.to_payload()["conjugate_of"]
            assert r.to_payload() == expected


def scan_starts(chart, starts, seed):
    """The start points ``critical_scan`` polishes, in its order."""
    import magnodal.morse as morse

    beta = chart.dim
    grid = morse._halton(min(128, max(8, 2 ** beta)), beta) * morse.TWO_PI
    rng = np.random.default_rng(seed)
    return np.vstack([grid, rng.uniform(0.0, morse.TWO_PI,
                                        size=(starts, beta))])


def scan_gtol(base):
    """The gradient tolerance ``critical_scan`` sets from the base."""
    return 1e-10 * max(1.0, float(np.max(np.abs(eigh(base).values))))


def oracle_solve_count(monkeypatch, base, chart, k, start):
    """Eigensolves one start makes in the scalar oracle."""
    import conftest

    with monkeypatch.context() as m:
        counts = count_calls(m, conftest, "eigh")
        conftest.scalar_polish(base, chart, k, start, scan_gtol(base),
                               DEGENERACY_TOL)
    return counts["eigh"]


def count_stacks(monkeypatch, module):
    """Record ``(path, rows)`` for each stacked solve (one ``eigh_dense``
    call through ``eigh_stack``) that ``module`` makes."""
    stacks = []
    inner = module.eigh_stack

    def recording(graph, diag, offdiag):
        dense = dense_matrices(graph, diag, offdiag)
        stacks.append(("complex" if np.iscomplexobj(dense) else "real",
                       len(dense)))
        return inner(graph, diag, offdiag)

    monkeypatch.setattr(module, "eigh_stack", recording)
    return stacks


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


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestLockstepPolish:
    """The lockstep polish follows the scalar oracle bit for bit: the
    status, the coordinates, the auxiliary number and the final solve."""

    @pytest.mark.parametrize("case,k,starts", [
        ("strong-K5", 2, 4),
        ("random-K5-seed0", 2, 4),
        ("random-K5-seed0", 3, 4),
        ("ring-C4", 1, 8),
        ("ring-C4", 2, 8),
        ("strong-C3", 2, 16),
    ])
    def test_matches_the_scalar_oracle(self, monkeypatch, case, k, starts):
        import conftest
        import magnodal.morse as morse

        h = {"strong-K5": strong_diagonal_fixture(complete_graph(5)),
             "random-K5-seed0": random_operator(complete_graph(5),
                                                np.random.default_rng(0)),
             "ring-C4": ring_op(4),
             "strong-C3": strong_diagonal_fixture(cycle_graph(3))}[case]
        base, chart = abs_part(h), gauge_chart(h.graph)
        points = scan_starts(chart, starts, 0)
        stacks = count_stacks(monkeypatch, morse)
        got = morse._polish(base, chart, k, points, scan_gtol(base),
                            DEGENERACY_TOL)
        monkeypatch.undo()
        want = [conftest.scalar_polish(base, chart, k, p, scan_gtol(base),
                                       DEGENERACY_TOL) for p in points]
        assert len(got) == len(want)
        for (status, x, aux, s), (status0, x0, aux0, s0) in zip(got, want):
            assert status == status0
            assert same_bits(x, x0)
            assert same_bits(aux, aux0)
            assert (s is None) == (s0 is None)
            if s is not None:
                assert same_bits(s.h.offdiag, s0.h.offdiag)
                assert same_bits(s.es.values, s0.es.values)
                assert same_bits(s.es.vectors, s0.es.vectors)
                assert same_bits(s.products, s0.products)
                assert s.lam == s0.lam and same_bits(s.v, s0.v)
        statuses = {r[0] for r in want}
        if case == "random-K5-seed0" and k == 2:
            assert "stuck" in statuses
        if case == "ring-C4":
            # a Halton start at pi is a real operator among complex ones
            assert {"real", "complex"} <= {path for path, _ in stacks}
            assert "degenerate" in statuses

    def test_converged_final_solve_holds_no_stack(self):
        """A returned solve owns its arrays, so a kept report does not
        keep a round's stacks alive."""
        import magnodal.morse as morse

        h = strong_diagonal_fixture(complete_graph(4))
        base, chart = abs_part(h), gauge_chart(h.graph)
        for status, _, _, s in morse._polish(
                base, chart, 2, scan_starts(chart, 4, 0), scan_gtol(base),
                DEGENERACY_TOL):
            assert status == "ok"
            for arr in (s.es.values, s.es.vectors, s.products, s.h.offdiag):
                assert arr.base is None


class TestOneOperatorPerSolve:
    """Every eigensolve of a scan or an index check is stacked, and no
    operator is built one point at a time."""

    def test_critical_scan(self, monkeypatch):
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        stacks = count_stacks(monkeypatch, morse)
        counts = count_calls(monkeypatch, nodal, "eigh")
        counts.update(count_calls(monkeypatch, morse, "magnetic_action"))
        critical_scan(strong_diagonal_fixture(complete_graph(5), eta=10.0),
                      2, starts=16, seed=0)
        assert len(stacks) > 1
        assert counts == {"eigh": 0, "magnetic_action": 0}

    def test_verify_index(self, monkeypatch):
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        stacks = count_stacks(monkeypatch, morse)
        counts = count_calls(monkeypatch, nodal, "eigh")
        counts.update(count_calls(monkeypatch, morse, "magnetic_action"))
        t = verify_index_equals_surplus(
            strong_diagonal_fixture(complete_graph(5)))
        assert t.num_ok == 320
        assert stacks == [("real", 64)]
        assert counts == {"eigh": 0, "magnetic_action": 0}

    def test_verify_index_checks_each_pair_once(self, monkeypatch):
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        morse_counts = count_calls(monkeypatch, morse, "is_nowhere_vanishing")
        nodal_counts = count_calls(monkeypatch, nodal, "is_nowhere_vanishing")
        verify_index_equals_surplus(strong_diagonal_fixture(complete_graph(5)))
        assert morse_counts["is_nowhere_vanishing"] == 0
        assert nodal_counts["is_nowhere_vanishing"] == 64 * 5

    def test_verify_index_solves_each_pair_once(self, monkeypatch):
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        names = ("multiplicity", "edge_products")
        counts = [count_calls(monkeypatch, module,
                              *(n for n in names if hasattr(module, n)))
                  for module in (morse, nodal)]
        verify_index_equals_surplus(strong_diagonal_fixture(complete_graph(5)))
        total = {n: sum(c.get(n, 0) for c in counts) for n in names}
        assert total == {"multiplicity": 64 * 5, "edge_products": 64 * 5}


class TestStackedHessians:
    """A scan assembles its Hessians in one stack per phase, and an index
    check in one stack per k; each reads its spectra from one stacked
    solve."""

    @pytest.mark.parametrize("case,k,phases", [
        ("random-K5-seed0", 2, 2),  # symmetry points and search reports
        ("strong-C3", 2, 1),        # symmetry points only
    ])
    def test_scan_builds_one_hessian_stack_per_phase(self, monkeypatch, case,
                                                     k, phases):
        import magnodal.morse as morse

        h = {"random-K5-seed0": random_operator(complete_graph(5),
                                                np.random.default_rng(0)),
             "strong-C3": strong_diagonal_fixture(cycle_graph(3))}[case]
        events = record_calls(monkeypatch, (morse, "_reports_at"),
                              (morse, "_hessian"), (np.linalg, "eigvalsh"))
        polish = morse._polish

        def quiet_polish(*args):  # its Newton Jacobians are not reports
            before = len(events)
            out = polish(*args)
            del events[before:]
            return out

        monkeypatch.setattr(morse, "_polish", quiet_polish)
        sr = critical_scan(h, k, starts=4, seed=0)
        assert any(r.origin == "search" for r in sr.reports) == (phases == 2)
        assert events == ["_reports_at", "_hessian", "eigvalsh"] * phases

    def test_verify_builds_one_hessian_stack_per_k(self, monkeypatch):
        import magnodal.morse as morse

        events = record_calls(monkeypatch, (morse, "_hessian"),
                              (np.linalg, "eigvalsh"))
        h = strong_diagonal_fixture(complete_graph(5))
        assert verify_index_equals_surplus(h).num_ok == 320
        # one Hessian per pair made 320 calls
        assert events == ["_hessian"] * h.graph.n + ["eigvalsh"]

    def test_chart_and_classes_share_the_nonforest_positions(self):
        from magnodal.operators import gauge_classes_of_signings

        h = strong_diagonal_fixture(complete_graph(5))
        idx = gauge_chart(h.graph).nonforest_indices
        assert gauge_classes_of_signings(h).nonforest is idx
        assert not idx.flags.writeable
        assert [h.graph.edges[i] for i in idx] \
            == list(gauge_chart(h.graph).basis.nonforest_edges)


def record_calls(monkeypatch, *bindings):
    """Wrap each ``(module, name)`` binding; returns the live list of the
    names called, in call order."""
    events = []
    for module, name in bindings:
        def recording(*args, _name=name, _inner=getattr(module, name),
                      **kwargs):
            events.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)
    return events


def payload_bits(report) -> str:
    """The report payload with every float spelled out, signed zeros
    included."""
    return repr(report.to_payload())


class TestStackedReports:
    """Each point of a stacked ``_reports_at`` call gets the report the
    scalar oracle gives it alone, bit for bit."""

    @pytest.mark.parametrize("case,k", [
        *((f"random-K5-seed{s}", k) for s in range(3) for k in (2, 3)),
        ("tree-P3", 1),
        ("ring-C4", 1),
    ])
    def test_matches_the_scalar_oracle(self, monkeypatch, case, k):
        import magnodal.morse as morse

        if case == "tree-P3":
            h = random_operator(path_graph(3), np.random.default_rng(6))
        elif case == "ring-C4":
            h = degenerate_ring_fixture(4)[0]
        else:
            h = random_operator(complete_graph(5),
                                np.random.default_rng(int(case[-1])))
        calls = []
        inner = morse._reports_at

        def recording(points, *args, **kwargs):
            got = inner(points, *args, **kwargs)
            calls.append((points, args, kwargs, list(got)))
            return got

        monkeypatch.setattr(morse, "_reports_at", recording)
        critical_scan(h, k, starts=4, seed=0)
        monkeypatch.undo()
        for points, (k0, chart, origin), kwargs, got in calls:
            want = [scalar_report(coords, hp, es, k0, chart, origin, **kwargs)
                    for coords, hp, es in points]
            assert [payload_bits(r) for r in got] \
                == [payload_bits(r) for r in want]
        kinds = {r.classification for r in calls[0][3]}
        origins = [origin for _, (_, _, origin), _, _ in calls]
        if case == "tree-P3":
            assert calls[0][1][1].dim == 0
            assert origins == ["symmetry-enumeration"]
        elif case == "ring-C4":
            # one flux class is simple at k = 1, the other is not
            assert kinds == {"symmetry", "incorrigible"}
        else:
            assert origins == ["symmetry-enumeration", "search"]


def verify_rows_oracle(h, tol_vanish):
    """Skip decisions of ``verify_index_equals_surplus`` as three checks.

    Multiplicity, then vanishing entries, then ``nodal_surplus``: the
    order the checks ran in before ``nodal_surplus`` alone decided.
    """
    base = abs_part(h)
    chart = gauge_chart(h.graph)
    rows = []
    for bits in itertools.product((0, 1), repeat=chart.dim):
        coords = np.array([np.pi if b else 0.0 for b in bits])
        hs = TorusPoint.from_coords(base, coords, chart).operator()
        es = eigh(hs)
        for k in range(1, h.graph.n + 1):
            m, _ = multiplicity(es, k)
            if m != 1:
                rows.append((bits, k, "skipped", f"multiplicity {m}"))
                continue
            ok, vanishing = is_nowhere_vanishing(es.vector(k), tol_vanish)
            if not ok:
                rows.append((bits, k, "skipped", f"vanishes at {vanishing}"))
                continue
            try:
                surplus = nodal_surplus(hs, k, es=es, tol_vanish=tol_vanish)
            except AdmissibilityError as exc:
                rows.append((bits, k, "skipped", str(exc)))
                continue
            rows.append((bits, k, "ok", surplus))
    return rows


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

    @pytest.mark.parametrize("case,tol_vanish,reason", [
        ("ring-C4", 1e-8, "multiplicity 2"),
        ("zero-diagonal-P3", 1e-8, "vanishes at [1]"),
        ("zero-diagonal-P3", 0.0, "edge products too close to zero on "
         "edges [(0, 1), (1, 2)]"),
        ("strong-K4", 1e-8, None),
    ])
    def test_skip_reasons_match_the_three_check_oracle(self, case, tol_vanish,
                                                       reason):
        h = {"ring-C4": degenerate_ring_fixture(4)[0],
             "zero-diagonal-P3": SupportedMatrix(
                 path_graph(3), np.zeros(3),
                 -np.ones(2, dtype=np.complex128)),
             "strong-K4": strong_diagonal_fixture(complete_graph(4))}[case]
        t = verify_index_equals_surplus(h, tol_vanish=tol_vanish)
        got = [(r.class_parities, r.k, r.status,
                r.surplus if r.status == "ok" else r.reason) for r in t.rows]
        assert got == verify_rows_oracle(h, tol_vanish)
        reasons = {r.reason for r in t.rows if r.status == "skipped"}
        assert reasons == (set() if reason is None else {reason})

    def test_complex_matrix_rejected(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([1j]))
        with pytest.raises(ValueError):
            verify_index_equals_surplus(h)

    def test_first_failing_pair_in_class_order_is_named(self, monkeypatch):
        """Two pairs get a wrong surplus; the error names the one that
        comes first class by class, not k by k."""
        import magnodal.morse as morse

        h = strong_diagonal_fixture(complete_graph(4))
        idx = gauge_chart(h.graph).nonforest_indices
        inner = morse._count

        def wrong(s, tol_vanish):
            bits = tuple(int(x) for x in s.h.offdiag.real[idx] < 0.0)
            off = (bits, s.k) in {((0, 0, 0), 2), ((0, 0, 1), 1)}
            return inner(s, tol_vanish) + off

        monkeypatch.setattr(morse, "_count", wrong)
        with pytest.raises(InternalCrossCheckError) as err:
            verify_index_equals_surplus(h)
        assert str(err.value) == ("Morse index 1 differs from nodal surplus "
                                  "2 at class (0, 0, 0), k=2")

    def test_degenerate_hessian_message(self):
        with pytest.raises(InternalCrossCheckError) as err:
            verify_index_equals_surplus(
                strong_diagonal_fixture(complete_graph(4)), rank_tol=1.0)
        assert str(err.value) == (
            "Hessian at class (0, 0, 0), k=1 is degenerate (nullity 3); the "
            "index comparison needs a nondegenerate critical point")
