"""Torus points, eigenvalue gradients, Hessians, and critical scans."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (complex_eigh, conjugate_point, custom_forest,
                      degenerate_ring_fixture, eigenvalue_at,
                      frozen_form_indices, gauged_real, gradient_fd,
                      hessian_eigenvalue_fd, path_graph,
                      pseudo_inverse_apply, same_bits, scalar_classify,
                      scalar_nodal_surplus, scalar_report, simple_eigen,
                      small_graphs, torus_point, vanishing_entries)
from test_nodal import COARSE_TOLERANCES
from magnodal.errors import (
    AdmissibilityError,
    InternalCrossCheckError,
    NonSimpleEigenvalueError,
    NotProperlySupportedError,
)
from magnodal.families import (
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    matching_family_for_betti,
    random_connected_graph,
    random_operator,
    random_regular_like_graph,
    strong_diagonal_fixture,
    surplus_probe_operator,
)
from magnodal.graphs import Graph, OneForm, betti_number, num_components
from magnodal.morse import (
    HESSIAN_SYM_TOL,
    TWO_PI,
    TorusPoint,
    _kinds,
    critical_scan,
    eigenvalue_gradient,
    gradient_coords,
    hessian_eigenvalue,
    morse_index,
    verify_index_equals_surplus,
)
from magnodal.nodal import (PRODUCT_REAL_TOL, _checked, nodal_count,
                            nodal_surplus)
from magnodal.operators import (
    SupportedMatrix,
    abs_part,
    frobenius_norms,
    gauge_classes_of_signings,
)
from magnodal.spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    EigenSystem,
    eigh,
    eigh_stack,
    multiplicity,
    simple_positions,
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

    def test_conjugate_negates_angles(self):
        h = abs_part(triangle_base())
        p = TorusPoint(h, np.array([0.5, 0.0, np.pi]))
        c = conjugate_point(p)
        assert c.angles[0] == pytest.approx(2 * np.pi - 0.5)
        assert c.angles[1] == 0.0
        assert c.angles[2] == pytest.approx(np.pi)

    def test_conjugate_preserves_spectrum(self):
        rng = np.random.default_rng(8)
        h = abs_part(random_operator(complete_graph(4), rng))
        p = TorusPoint(h, rng.uniform(0, 2 * np.pi, size=6))
        for k in (1, 2, 3, 4):
            assert eigenvalue_at(conjugate_point(p), k) == \
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
        full = eigenvalue_gradient(p, 1).values
        idx = h.graph.spanning_forest.nonforest
        np.testing.assert_allclose(gradient_coords(p, 1), full[idx])

    def test_tree_chart_is_empty(self):
        rng = np.random.default_rng(1)
        h = abs_part(random_operator(path_graph(4), rng))
        assert len(h.graph.spanning_forest.nonforest) == 0
        p = TorusPoint.from_operator(h)
        assert gradient_coords(p, 2).shape == (0,)


def kind_at(p: TorusPoint, k: int) -> tuple[str, float, tuple[int, ...]]:
    """``morse._kinds`` at a point, on ``nodal._checked``'s solve of its
    operator, with the largest imaginary edge product and the vanishing
    vertices the kernel marks; the scalar classifier must agree."""
    h = p.operator()
    s, checks = _checked(h, k)
    got = (_kinds(s, np.array([h.norm_fro]), checks)[0],
           float(np.max(np.abs(s.products.imag), initial=0.0)),
           tuple(np.flatnonzero(checks.vanishing[0, k - 1]).tolist()))
    assert got == scalar_classify(simple_eigen(h, k, None, DEGENERACY_TOL),
                                  PRODUCT_REAL_TOL, VANISH_TOL)
    return got


class TestKinds:
    def test_symmetry_point(self):
        p = TorusPoint.from_operator(triangle_base())
        assert kind_at(p, 1)[::2] == ("symmetry", ())

    def test_generic_point_not_critical(self):
        h = abs_part(triangle_base())
        p = TorusPoint(h, np.array([0.9, 0.0, 0.0]))
        kind, worst, _ = kind_at(p, 1)
        assert kind == "smooth-regular" and worst > 0

    def test_degenerate_point(self):
        # no kind at a double eigenvalue: the checked solve raises, and
        # the scan reports the point as incorrigible
        p = TorusPoint.from_operator(ring_op(3))
        with pytest.raises(NonSimpleEigenvalueError) as err:
            _checked(p.operator(), 2)
        assert err.value.multiplicity == 2
        with pytest.raises(NonSimpleEigenvalueError):
            simple_eigen(p.operator(), 2, None, DEGENERACY_TOL)
        first = critical_scan(ring_op(3), 2).reports[0]
        assert first.coords == (0.0,)
        assert (first.classification, first.multiplicity) \
            == ("incorrigible", 2)

    def test_exceptional_point(self):
        from magnodal.linkage import build_exceptional_fixture

        fx = build_exceptional_fixture(3, seed=0)
        assert kind_at(fx.point, fx.k)[::2] == ("exceptional", (0,))

    @pytest.mark.parametrize("k", [1, 2])
    def test_flux_slack_near_a_symmetry_point(self, k):
        # Within PRODUCT_REAL_TOL of the real point the fluxes sit off pi
        # by more than FLUX_TOL; only the slack test calls the point real.
        h = abs_part(strong_diagonal_fixture(complete_graph(4), eta=10.0))
        near = torus_point(h, np.array([1e-6, 0.0, 0.0]))
        assert gauged_real(near.operator()) is None
        assert kind_at(near, k)[0] == "symmetry"
        off = torus_point(h, np.array([1e-5, 0.0, 0.0]))
        assert kind_at(off, k)[0] == "smooth-regular"


class TestFrozenForm:
    """The frozen-eigenvector form's two blocks, by conftest's
    ``frozen_form_indices``: the edge block's negative entries count the
    nodal edges, and the vertex-phase block has index ``k - 1``."""

    def test_two_vertex_blocks(self):
        g = path_graph(2)
        h = SupportedMatrix(g, np.array([0.2, 0.9]),
                            np.array([-1.1], dtype=np.complex128))
        for k in (1, 2):
            assert frozen_form_indices(h, k) == (nodal_count(h, k), k - 1)

    def test_triangle_blocks(self):
        h = triangle_base()
        for k, count in ((1, 0), (2, 2), (3, 2)):
            assert nodal_count(h, k) == count
            assert frozen_form_indices(h, k) == (count, k - 1)


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
        for _ in range(20):
            p = torus_point(h, rng.uniform(0, 2 * np.pi, size=6))
            for k in range(1, 6):
                assert kind_at(p, k)[0] == "smooth-regular"
                exact = hessian_eigenvalue(p, k)
                fd = hessian_eigenvalue_fd(p, k)
                rel = np.linalg.norm(exact - fd) \
                    / max(1.0, np.linalg.norm(exact))
                assert rel <= 1e-4

    def test_matches_per_column_pseudo_inverse(self):
        # Reference assembly: one pseudo_inverse_apply per direction.
        rng = np.random.default_rng(11)
        h = abs_part(random_operator(complete_graph(5), rng))
        edges = h.graph.spanning_forest.nonforest_edges
        for _ in range(5):
            p = torus_point(h, rng.uniform(0, 2 * np.pi, size=len(edges)))
            op = p.operator()
            es = eigh(op)
            for k in range(1, 6):
                v, lam = es.vector(k), es.value(k)
                W = np.zeros((5, len(edges)), dtype=np.complex128)
                for j, (r, s) in enumerate(edges):
                    hrs = op.offdiag[h.graph.edge_index[r, s]]
                    W[r, j] = 1j * hrs * v[s]
                    W[s, j] = -1j * np.conj(hrs) * v[r]
                Vp = np.column_stack([-pseudo_inverse_apply(op, lam, w, es=es)
                                      for w in W.T])
                ref = 2.0 * np.real(Vp.conj().T @ W).T
                for j, (r, s) in enumerate(edges):
                    ref[j, j] -= 2.0 * np.real(
                        np.conj(v[r]) * op.offdiag[h.graph.edge_index[r, s]]
                        * v[s])
                ref = 0.5 * (ref + ref.T)
                np.testing.assert_allclose(
                    hessian_eigenvalue(p, k), ref,
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
        """The Hessian stack on the gauge slice of another spanning
        forest has the same Morse index."""
        import magnodal.morse as morse

        h = strong_diagonal_fixture(complete_graph(4))
        p = TorusPoint.from_operator(h)
        path_forest = ((0, 1), (1, 2), (2, 3))
        other = custom_forest(h.graph, path_forest, [-1, 0, 1, 2])
        assert h.graph.spanning_forest.edges != path_forest
        op = p.operator()
        es = eigh(op)
        for k in range(1, 5):
            s = morse._Solves.at(h.graph, op.offdiag[None], es.values[None],
                                 es.vectors[None], k)
            a = morse_index(hessian_eigenvalue(p, k))
            b = morse_index(morse._hessian(s, other, DEGENERACY_TOL)[0])
            assert a == b


class TestMorseIndex:
    def test_trivial_matrices(self):
        assert morse_index(np.eye(3)) == (0, 0)
        assert morse_index(-np.eye(3)) == (3, 0)
        assert morse_index(np.diag([-1.0, 0.0, 2.0])) == (1, 1)
        assert morse_index(np.zeros((2, 2))) == (0, 2)
        assert morse_index(np.zeros((0, 0))) == (0, 0)

    def test_rank_tolerance(self, monkeypatch):
        import magnodal.morse as morse

        h = np.diag([1.0, 1e-9])
        monkeypatch.setattr(morse, "RANK_TOL", 1e-7)
        assert morse_index(h) == (0, 1)
        monkeypatch.setattr(morse, "RANK_TOL", 1e-12)
        assert morse_index(h) == (0, 0)

    def test_stack_matches_one_matrix_at_a_time(self, monkeypatch):
        import magnodal.morse as morse

        monkeypatch.setattr(morse, "RANK_TOL", 0.25)

        a = np.random.default_rng(0).normal(size=(3, 3))
        stack = np.stack([a + a.T, np.zeros((3, 3)), -np.eye(3),
                          np.diag([-0.5, 0.5, 2.0]), a])
        w, index, nullity = morse._morse_indices(stack, 0.25)
        for m, wm, i, z in zip(stack, w, index, nullity):
            assert (int(i), int(z)) == morse_index(m)
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


class TestHalton:
    """The grid starts of ``critical_scan``, pinned bit for bit."""

    def test_pinned_rows(self):
        import magnodal.morse as morse

        a = morse._halton(8, 3)
        assert [[x.hex() for x in a[i]] for i in (0, 2, 6)] == [
            ["0x1.0000000000000p-1", "0x1.5555555555555p-2",
             "0x1.999999999999ap-3"],
            ["0x1.8000000000000p-1", "0x1.c71c71c71c71cp-4",
             "0x1.3333333333334p-1"],
            ["0x1.c000000000000p-1", "0x1.1c71c71c71c72p-1",
             "0x1.c28f5c28f5c29p-2"]]
        b = morse._halton(300, 11)
        assert b.shape == (300, 11)
        assert [x.hex() for x in b[299, [0, 2, 10]]] == [
            "0x1.a400000000000p-3", "0x1.3a92a30553262p-6",
            "0x1.5fa23b236e04cp-1"]
        assert morse._halton(0, 4).shape == (0, 4)


def scalar_torus_distance(a, b) -> float:
    """Max-metric torus distance of two points, one coordinate at a time."""
    return max(min(abs(float(np.mod(x - y, TWO_PI))),
                   TWO_PI - abs(float(np.mod(x - y, TWO_PI))))
               for x, y in zip(a, b))


class TestLandingFilter:
    """The scan's one landing-point filter keeps what its two greedy
    loops kept, one point at a time: a degenerate landing farther than
    ``DEDUP_TOL`` from every kept one, and a converged landing outside
    its radius of every symmetry point and outside the larger of the two
    radii of every kept landing."""

    @staticmethod
    def landings(rng, count: int, d: int) -> np.ndarray:
        """Clusters of spreads below and above ``DEDUP_TOL``, one of them
        across the seam at 0 = 2 pi."""
        centres = rng.uniform(0.0, TWO_PI, size=(4, d))
        centres[0] = 0.0
        spread = rng.choice([1e-8, 1e-6, 1e-4], size=(count, 1))
        return np.mod(centres[rng.integers(0, 4, count)]
                      + spread * rng.normal(size=(count, d)), TWO_PI)

    @pytest.mark.parametrize("seed", range(12))
    def test_degenerate_rule(self, seed):
        import magnodal.morse as morse

        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        xs = self.landings(rng, 60, d)
        kept = []
        for i, x in enumerate(xs):
            if all(scalar_torus_distance(x, xs[j]) > morse.DEDUP_TOL
                   for j in kept):
                kept.append(i)
        assert 1 < len(kept) < len(xs)
        assert morse._first_of_clusters(
            xs, np.full(len(xs), morse.DEDUP_TOL), np.empty((0, d))) == kept

    @pytest.mark.parametrize("seed", range(12))
    def test_converged_rule(self, seed):
        import magnodal.morse as morse

        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        xs = self.landings(rng, 60, d)
        known = np.vstack([xs[:2] + 1e-7, rng.uniform(0, TWO_PI, (3, d))])
        decrements = 10.0 ** rng.uniform(-9, -4, len(xs))
        radii = np.fmax(morse.DEDUP_TOL, 10.0 * decrements)
        kept = []
        for i, x in enumerate(xs):
            radius = max(morse.DEDUP_TOL, 10.0 * float(decrements[i]))
            if any(scalar_torus_distance(x, y) <= radius for y in known):
                continue
            if any(scalar_torus_distance(x, xs[j]) <= max(radius, radii[j])
                   for j in kept):
                continue
            kept.append(i)
        assert 1 < len(kept) < len(xs) - 2
        assert morse._first_of_clusters(xs, radii, known) == kept


class TestCriticalScan:
    @pytest.mark.parametrize("k", [0, 5])
    def test_k_outside_the_spectrum_raises_before_any_solve(self, monkeypatch,
                                                             k):
        stacks = count_stacks(monkeypatch)
        with pytest.raises(ValueError, match=f"k={k} outside 1..4"):
            critical_scan(strong_diagonal_fixture(complete_graph(4)), k)
        assert stacks == []

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
        with pytest.raises(AdmissibilityError) as err:
            critical_scan(h, 1)
        assert type(err.value) is AdmissibilityError
        assert str(err.value) == ("the scan sweeps the torus over a real "
                                  "base matrix; this operator has complex "
                                  "entries")

    @pytest.mark.parametrize("h", [
        strong_diagonal_fixture(complete_graph(4), eta=10.0),
        *(random_operator(complete_graph(4), np.random.default_rng(s))
          for s in range(6)),
    ], ids=["strong-K4", *(f"random-K4-seed{s}" for s in range(6))])
    def test_search_reports_are_critical(self, h):
        base = abs_part(h)
        scale = max(1.0, base.norm_fro)
        for k in range(1, h.graph.n + 1):
            sr = critical_scan(h, k, starts=16, seed=0)
            for r in sr.reports:
                if r.origin != "search":
                    continue
                p = torus_point(base, np.array(r.coords))
                assert float(np.max(np.abs(gradient_fd(p, k)))) \
                    <= 1e-6 * scale
                assert r.morse_index + r.nullity <= betti_number(h.graph)

    def test_newton_steps_cost_one_eigensolve(self, monkeypatch):
        """One stacked solve per Newton round plus one for the symmetry
        points, and every start solves exactly the points its scalar run
        solves."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        h = strong_diagonal_fixture(complete_graph(5), eta=10.0)
        base = abs_part(h)
        solves = [oracle_solve_count(monkeypatch, base, 2, start)
                  for start in scan_starts(base, 16, 0)]
        stacks = count_stacks(monkeypatch)
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
        # one complex stack per round, exactly real trials included
        assert all(r == ["complex"] for r in rounds[1:])
        assert sum(rows for path, rows in stacks if path != "round") \
            == 2 ** 6 + sum(solves)

    @pytest.mark.parametrize("start", [0.0, np.pi, 2 * np.pi])
    def test_degenerate_start_costs_one_eigensolve(self, monkeypatch, start):
        import magnodal.morse as morse

        base = abs_part(ring_op(4))
        stacks = count_stacks(monkeypatch)
        status, x, gap, _ = morse._polish(
            base, base.graph.spanning_forest, 2, np.array([[start]]), 1e-10,
            1e-8)
        monkeypatch.undo()
        # the gap is the one a second complex solve at the point would give
        x0 = np.mod(np.array([start]), 2 * np.pi)
        es = complex_eigh(torus_point(base, x0).operator())
        expected = min(abs(es.values[j] - es.values[1]) for j in (0, 2, 3))
        assert stacks == [("complex", 1)]
        assert status.tolist() == [morse._DEGENERATE]
        assert x.tolist() == [x0.tolist()]
        assert gap.tolist() == [expected]

    def test_search_reports_reuse_the_polish_solve(self, monkeypatch):
        """Every eigensolve of a scan is the symmetry stack or a Newton
        round: a search report reads the solve its polish ended on."""
        import magnodal.morse as morse

        stacks = count_stacks(monkeypatch)
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
        assert {path for path, _ in in_polish} == {"complex"}
        # ... and that solve is the one at the reported coordinates
        monkeypatch.undo()
        base = abs_part(h)
        for r in sr.reports:
            if r.origin != "search":
                continue
            p = torus_point(base, np.array(r.coords))
            hp = p.operator()
            fresh = scalar_report(r.coords, hp, eigh(hp), 2, "search",
                                  tol_degeneracy=DEGENERACY_TOL,
                                  tol_vanish=VANISH_TOL,
                                  rank_tol=morse.RANK_TOL)
            expected = fresh.to_payload()
            expected["conjugate_of"] = r.to_payload()["conjugate_of"]
            assert r.to_payload() == expected


    def test_search_reports_take_the_polish_solves(self, monkeypatch):
        """A search report is classified from the polish's solve as it
        stands: no solve of its own, and one edge-product call, the
        kernel's at every position of the stack.  Each report phase
        makes two stacked degeneracy tests, one for its Hessians'
        pseudo-inverse and one for the multiplicities of its
        incorrigible rows, and none per row."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        inside = []
        for module, name in ((morse, "cluster_mask"),
                             (nodal, "cluster_mask"),
                             (nodal, "edge_products"),
                             (nodal, "eigh")):
            def counting(*args, _name=name, _inner=getattr(module, name),
                         **kwargs):
                inside.append((_name, len(args[0])) if _name == "cluster_mask"
                              else _name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        reports = morse._reports_at

        def reporting(*args, **kwargs):
            before = len(inside)
            out = reports(*args, **kwargs)
            calls.append(inside[before:])
            return out

        calls = []
        monkeypatch.setattr(morse, "_reports_at", reporting)
        h = random_operator(complete_graph(5), np.random.default_rng(0))
        sr = critical_scan(h, 2, starts=4, seed=0)
        assert sum(r.origin == "search" for r in sr.reports) > 0
        # the symmetry points, checked in their block, and the search
        # reports, checked here: the smooth rows, then the incorrigible ones
        assert calls == [
            [*checked,
             ("cluster_mask", sum(r.classification != "incorrigible"
                                  for r in sr.reports if r.origin == origin)),
             ("cluster_mask", sum(r.classification == "incorrigible"
                                  for r in sr.reports if r.origin == origin))]
            for origin, checked in (("symmetry-enumeration", []),
                                    ("search", ["edge_products"]))]

def scan_starts(base, starts, seed):
    """The start points ``critical_scan`` polishes, in its order."""
    import magnodal.morse as morse

    beta = betti_number(base.graph)
    grid = morse._halton(min(128, max(8, 2 ** beta)), beta) * morse.TWO_PI
    rng = np.random.default_rng(seed)
    return np.vstack([grid, rng.uniform(0.0, morse.TWO_PI,
                                        size=(starts, beta))])


def scan_gtol(base):
    """The gradient tolerance ``critical_scan`` sets from the base."""
    return 1e-10 * max(1.0, float(np.max(np.abs(eigh(base).values))))


def oracle_solve_count(monkeypatch, base, k, start):
    """Eigensolves one start makes in the scalar oracle."""
    import conftest

    with monkeypatch.context() as m:
        counts = count_calls(m, conftest, "complex_eigh")
        conftest.scalar_polish(base, k, start, scan_gtol(base),
                               DEGENERACY_TOL)
    return counts["complex_eigh"]


def count_stacks(monkeypatch):
    """Record ``(path, rows)`` for each call of ``eigh_dense``, by the
    dtype of the stack that reaches it: through ``eigh_stack`` in the
    Newton polish, or through ``nodal``'s class-block solve at the
    symmetry points.  A single matrix counts as a stack of one."""
    import magnodal.nodal as nodal
    import magnodal.spectral as spectral

    stacks = []
    for module in (spectral, nodal):
        def recording(dense, _solve=module.eigh_dense):
            stacks.append(("complex" if np.iscomplexobj(dense) else "real",
                           dense.size // dense.shape[-1] ** 2))
            return _solve(dense)
        monkeypatch.setattr(module, "eigh_dense", recording)
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


#: Outcome codes of ``morse._polish`` and the statuses the oracle names.
OUTCOMES = {"_OK": "ok", "_DEGENERATE": "degenerate", "_STUCK": "stuck",
            "_MAXITER": "maxiter"}


def check_against_oracle(base, k, points, polished):
    """Every start of ``_polish``'s result ``polished`` against the
    scalar oracle: outcome, coordinates, auxiliary number and, for a
    converged start, its row of the solve stack, bit for bit."""
    import conftest
    import magnodal.morse as morse

    status, xs, auxs, solves = polished
    want = [conftest.scalar_polish(base, k, p, scan_gtol(base),
                                   DEGENERACY_TOL) for p in points]
    names = {getattr(morse, code): name for code, name in OUTCOMES.items()}
    assert len(status) == len(xs) == len(auxs) == len(want)
    assert len(solves.values) == len(want) and solves.k == k
    for i, (status0, x0, aux0, s0) in enumerate(want):
        assert names[status[i]] == status0
        assert same_bits(xs[i], x0)
        assert same_bits(auxs[i], aux0)
        assert (s0 is not None) == (status0 == "ok")
        if s0 is not None:
            assert same_bits(solves.offdiag[i], s0.h.offdiag)
            assert same_bits(solves.values[i], s0.es.values)
            assert same_bits(solves.vectors[i], s0.es.vectors)
            assert same_bits(solves.products[i], s0.products)
    return {r[0] for r in want}


class TestLockstepPolish:
    """The lockstep polish follows the scalar oracle bit for bit: the
    outcome, the coordinates, the auxiliary number and, for a converged
    start, its row of the solve stack."""

    @pytest.mark.parametrize("case,k,starts", [
        ("strong-K5", 2, 4),
        ("random-K5-seed0", 2, 4),
        ("random-K5-seed0", 3, 4),
        ("ring-C4", 1, 8),
        ("ring-C4", 2, 8),
        ("strong-C3", 2, 16),
    ])
    def test_matches_the_scalar_oracle(self, monkeypatch, case, k, starts):
        import magnodal.morse as morse

        h = {"strong-K5": strong_diagonal_fixture(complete_graph(5)),
             "random-K5-seed0": random_operator(complete_graph(5),
                                                np.random.default_rng(0)),
             "ring-C4": ring_op(4),
             "strong-C3": strong_diagonal_fixture(cycle_graph(3))}[case]
        base = abs_part(h)
        points, gtol = scan_starts(base, starts, 0), scan_gtol(base)
        stacks = count_stacks(monkeypatch)
        polished = morse._polish(base, h.graph.spanning_forest, k,
                                 points, gtol, DEGENERACY_TOL)
        monkeypatch.undo()
        statuses = check_against_oracle(base, k, points, polished)
        if case == "random-K5-seed0" and k == 2:
            assert "stuck" in statuses
        if case == "ring-C4":
            # a Halton start at pi is a real operator among complex ones,
            # solved on the complex path with them
            assert np.pi in points
            assert {path for path, _ in stacks} == {"complex"}
            assert "degenerate" in statuses

    @pytest.mark.parametrize("case,k", [("strong-C3", 2), ("ring-C3", 1)])
    def test_a_round_with_real_trials_is_one_stack(self, monkeypatch, case,
                                                   k):
        """Newton trials on a triangle land exactly on 0 or pi, so later
        rounds hold exactly real operators beside complex ones.  Such a
        round is still one round: one complex stacked solve, and, with a
        moved start, one Hessian stack and one least-squares call."""
        import magnodal.morse as morse

        h = {"strong-C3": strong_diagonal_fixture(cycle_graph(3)),
             "ring-C3": ring_op(3)}[case]
        base = abs_part(h)
        points, gtol = scan_starts(base, 4, 0), scan_gtol(base)
        stacks = count_stacks(monkeypatch)
        log = record_calls(monkeypatch, (morse, "_offdiag_at"),
                           (morse, "eigh_stack"), (morse, "_hessian"),
                           (morse, "_lstsq"))
        inner, real = morse._offdiag_at, []

        def real_rows(*args):
            off = inner(*args)
            real.append(np.all(off.imag == 0.0, axis=1))
            return off

        monkeypatch.setattr(morse, "_offdiag_at", real_rows)
        polished = morse._polish(base, h.graph.spanning_forest, k,
                                 points, gtol, DEGENERACY_TOL)
        monkeypatch.undo()
        rounds = []
        for name in log:
            if name == "_offdiag_at":
                rounds.append([])
            else:
                rounds[-1].append(name)
        mixed = [i for i, rows in enumerate(real)
                 if rows.any() and not rows.all()]
        assert [i for i in mixed if i > 0]  # past the Halton start at pi
        assert stacks == [("complex", len(rows)) for rows in real]
        assert all(r.count("eigh_stack") == 1 for r in rounds)
        assert all(r.count("_hessian") == r.count("_lstsq") == ("_lstsq" in r)
                   for r in rounds)
        assert any("_lstsq" in rounds[i] for i in mixed)
        check_against_oracle(base, k, points, polished)


def probe_operator(family: str, beta: int) -> SupportedMatrix:
    """A surplus-probe operator on a complete graph minus a matching
    (``cmm``) or a regular-like graph (``rrl``) of first Betti number
    ``beta``, as ``clt-experiment`` draws them."""
    rng = np.random.default_rng(beta)
    g = (complete_minus_matching(*matching_family_for_betti(beta), rng=rng)
         if family == "cmm" else random_regular_like_graph(beta, rng))
    return surplus_probe_operator(g, rng)


class TestRealTrialLandings:
    """``unit_phases`` is exactly real only at 0 and pi, so a Newton
    trial whose edge entries are exactly real sits at a symmetry point:
    every coordinate reduces to exactly 0 or pi modulo 2 pi.  A start
    that makes such a trial ends on a symmetry point, converged within
    its dedup radius of one, which ``_first_of_clusters`` drops against
    the known points, or degenerate there.  So how such a trial is
    solved moves no search report."""

    @pytest.mark.parametrize("family,number", [
        *((family, beta) for family in ("cmm", "rrl")
          for beta in (3, 4, 5, 6)),
        ("random-K5", 0), ("random-K5", 1),
        ("ring", 3), ("ring", 4), ("ring", 5)])
    def test_real_trials_land_on_symmetry_points(self, monkeypatch, family,
                                                 number):
        """On the probes of beta 3 to 6, on random K5 operators
        (``number`` is the seed) and on uniform rings (``number`` is the
        length), each start of a scan at every k polished alone."""
        import magnodal.morse as morse

        h = (random_operator(complete_graph(5), np.random.default_rng(number))
             if family == "random-K5" else ring_op(number) if family == "ring"
             else probe_operator(family, number))
        base, forest = abs_part(h), h.graph.spanning_forest
        gtol = scan_gtol(base)
        known = np.array(list(itertools.product(
            (0.0, np.pi), repeat=betti_number(h.graph))))
        trials, inner = [], morse._offdiag_at

        def recording(base, forest, coords):  # one call per polish round
            off = inner(base, forest, coords)
            if np.all(off.imag == 0.0):
                trials.append(np.mod(coords, TWO_PI))
            return off

        monkeypatch.setattr(morse, "_offdiag_at", recording)
        landed = []
        for k in range(1, h.graph.n + 1):
            for start in scan_starts(base, 4, k):
                trials.clear()
                status, x, aux, _ = morse._polish(
                    base, forest, k, start[None], gtol, DEGENERACY_TOL)
                if trials:
                    landed.append(status[0])
                    assert all(np.isin(t, (0.0, np.pi)).all() for t in trials)
                    assert status[0] in (morse._OK, morse._DEGENERATE)
                    radius = (max(morse.DEDUP_TOL, 10.0 * aux[0])
                              if status[0] == morse._OK else morse.DEDUP_TOL)
                    assert min(scalar_torus_distance(x[0], y)
                               for y in known) <= radius
                    assert status[0] == morse._DEGENERATE or \
                        morse._first_of_clusters(x, np.array([radius]),
                                                 known) == []
        assert morse._OK in landed


@st.composite
def real_operators(draw, max_n=6):
    """A small connected real operator with at least one cycle, and its
    spanning forest."""
    g = draw(small_graphs(max_n).filter(
        lambda g: g.n and num_components(g) == 1 and betti_number(g)))
    diag = draw(st.lists(st.floats(-2.0, 2.0), min_size=g.n,
                         max_size=g.n))
    off = draw(st.lists(st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),
                        min_size=g.num_edges, max_size=g.num_edges))
    return SupportedMatrix(g, np.array(diag), np.array(off) + 0j), \
        g.spanning_forest


def conjugate_pairs(h: SupportedMatrix, k: int, starts: int):
    """``(coords, partner, radius)`` for each search report of
    ``critical_scan(h, k)`` that names a ``conjugate_of`` partner.

    ``radius`` is the scan's dedup radius for the pair, the larger of
    the two points' ``max(DEDUP_TOL, 10 * Newton decrement)``, read off
    the polish outcomes of the points' starts."""
    import magnodal.morse as morse

    polished = []
    original = morse._polish
    with pytest.MonkeyPatch.context() as m:
        m.setattr(morse, "_polish",
                  lambda *args: polished.append(original(*args))
                  or polished[-1])
        reports = critical_scan(h, k, starts=starts, seed=0).reports
    pairs = [(np.array(r.coords), np.array(r.conjugate_of))
             for r in reports if r.conjugate_of is not None]
    if not pairs:
        return []
    status, xs, aux, _ = polished[0]
    landed = status == morse._OK
    radius = np.maximum(morse.DEDUP_TOL, 10.0 * aux)

    def radius_at(x):  # the first start that landed there is the kept one
        return radius[np.argmax(landed & np.all(xs == x, axis=1))]

    return [(x, y, max(radius_at(x), radius_at(y))) for x, y in pairs]


class TestConjugationSymmetry:
    """Conjugation ``x -> -x`` maps the operator at slice point ``x`` to
    its complex conjugate, so ``lambda_k`` is even: the same spectrum, a
    negated gradient and the same Hessian.  On the exact conjugate the
    stacked solves give the spectrum bit for bit and the gradient
    negated exactly; at ``-x mod 2 pi``, whose phases round on their
    own, the spectra agree to rounding and, where ``lambda_k`` keeps a
    clear gap, so do the gradients.  The Hessians agree within
    ``HESSIAN_SYM_TOL`` on both."""

    @settings(max_examples=150, deadline=None)
    @given(real_operators(), st.data())
    def test_stacked_solves_at_conjugate_points(self, op, data):
        import magnodal.morse as morse

        base, forest = op
        g, idx = base.graph, forest.nonforest
        k = data.draw(st.integers(1, g.n))
        x = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, TWO_PI, exclude_max=True)
                     | st.sampled_from([0.0, np.pi]),
                     min_size=len(idx), max_size=len(idx)),
            min_size=1, max_size=4)))
        off = morse._offdiag_at(base, forest, x)

        def solve(offdiag):
            values, vectors = eigh_stack(g, base.diag, offdiag)
            s = morse._Solves.at(g, offdiag, values, vectors, k)
            return s, -2.0 * s.products.imag[:, idx]

        (a, ga), (c, gc) = solve(off), solve(np.conj(off))
        b, gb = solve(morse._offdiag_at(base, forest, np.mod(-x, TWO_PI)))
        scale = max(1.0, base.norm_fro)
        assert same_bits(c.values, a.values)
        simple = simple_positions(a.values)[:, k - 1]
        assert np.array_equal(gc[simple], -ga[simple])
        np.testing.assert_allclose(b.values, a.values, rtol=0.0,
                                   atol=1e-12 * scale)
        w = a.values
        gap = np.min(np.abs(np.delete(w, k - 1, axis=1) - w[:, k - 1:k]),
                     axis=1, initial=np.inf)
        rows = np.flatnonzero(gap > 1e-3 * scale)
        np.testing.assert_allclose(gb[rows], -ga[rows], rtol=0.0,
                                   atol=1e-9 * scale)
        hess = [morse._hessian(s.take(rows), forest, DEGENERACY_TOL)
                for s in (a, b, c)]
        bound = HESSIAN_SYM_TOL * np.maximum(
            1.0, np.max(np.abs(hess[0]), axis=(1, 2), initial=0.0))
        for other in hess[1:]:
            assert np.all(np.max(np.abs(other - hess[0]), axis=(1, 2),
                                 initial=0.0) <= bound)


    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 5), st.data())
    def test_scan_pairs_conjugate_search_reports(self, seed, n, data):
        """On random operators with a few cycles, a search report's
        ``conjugate_of`` partner lies within the scan's dedup radius of
        ``-coords mod 2 pi``, and ``lambda_k`` agrees at the two points
        within ``1e-12 * max(1, ||h||_F)``.  About a quarter of the
        examples pair a report."""
        import magnodal.morse as morse

        rng = np.random.default_rng(seed)
        g = random_connected_graph(
            n, data.draw(st.integers(n + 1, n * (n - 1) // 2)), rng)
        base = abs_part(random_operator(g, rng))
        k = data.draw(st.integers(1, n))
        bound = 1e-12 * max(1.0, base.norm_fro)
        for x, y, radius in conjugate_pairs(base, k, starts=4):
            assert morse._torus_distance(np.mod(-x, TWO_PI), y) <= radius
            lam = [eigh(torus_point(base, c).operator()).value(k)
                   for c in (x, y)]
            assert abs(lam[0] - lam[1]) <= bound

    def test_scans_do_pair_conjugate_search_reports(self):
        """The property above is not vacuous: a random K5 scan pairs
        search reports at k = 1 and 3."""
        h = abs_part(random_operator(complete_graph(5),
                                     np.random.default_rng(0)))
        assert [len(conjugate_pairs(h, k, starts=4)) for k in (1, 3)] \
            == [1, 1]


class TestStackedLeastSquares:
    """``spectral._lstsq``, which ``morse`` and ``linkage`` share, gives
    every row of a stack the bits of ``np.linalg.lstsq`` on that row
    alone."""

    @pytest.mark.parametrize("kind", ["general", "symmetric",
                                      "rank-deficient", "zero"])
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    @pytest.mark.parametrize("count", [1, 40])
    def test_rows_match_lstsq(self, kind, d, count):
        from magnodal.spectral import _lstsq

        rng = np.random.default_rng(1000 * d + count)
        a = rng.normal(size=(count, d, d)) \
            * 10.0 ** rng.uniform(-6, 6, size=(count, 1, 1))
        if kind == "symmetric":
            a = a + a.swapaxes(1, 2)
        elif kind == "rank-deficient":
            a = a[:, :, :d // 2] @ rng.normal(size=(count, d // 2, d))
        elif kind == "zero":
            a = np.zeros((count, d, d))
        b = rng.normal(size=(count, d))
        got = _lstsq(a, b)
        assert got.shape == (count, d)
        for i in range(count):
            want, *_ = np.linalg.lstsq(a[i], b[i], rcond=None)
            assert same_bits(got[i], want)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 19])
    def test_wide_rows_match_lstsq(self, d):
        """The 2-by-d closure Jacobians of ``linkage``'s sampler."""
        from magnodal.spectral import _lstsq

        rng = np.random.default_rng(d)
        a = rng.normal(size=(30, 2, d)) * rng.uniform(0.1, 3.0, size=d)
        b = rng.normal(size=(30, 2)) * 10.0 ** rng.uniform(-14, 0,
                                                            size=(30, 1))
        got = _lstsq(a, b)
        assert got.shape == (30, d)
        for i in range(30):
            want, *_ = np.linalg.lstsq(a[i], b[i], rcond=None)
            assert same_bits(got[i], want)


class TestOneOperatorPerSolve:
    """Every eigensolve of a scan or an index check is stacked, and no
    operator is built one point at a time."""

    def test_critical_scan(self, monkeypatch):
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        stacks = count_stacks(monkeypatch)
        counts = count_calls(monkeypatch, nodal, "eigh")
        counts.update(count_calls(monkeypatch, morse, "magnetic_action"))
        critical_scan(strong_diagonal_fixture(complete_graph(5), eta=10.0),
                      2, starts=16, seed=0)
        assert len(stacks) > 1
        assert counts == {"eigh": 0, "magnetic_action": 0}

    def test_verify_index(self, monkeypatch):
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        stacks = count_stacks(monkeypatch)
        counts = count_calls(monkeypatch, nodal, "eigh")
        counts.update(count_calls(monkeypatch, morse, "magnetic_action"))
        t = verify_index_equals_surplus(
            strong_diagonal_fixture(complete_graph(5)))
        assert t.num_ok == 320
        assert stacks == [("real", 64)]
        assert counts == {"eigh": 0, "magnetic_action": 0}

    def test_verify_index_checks_each_pair_once(self, monkeypatch):
        """One kernel call decides every (class, k) pair at once, and its
        masks word the skip reasons: after the one stacked solve of the
        symmetry points, their one product call and the kernel call, no
        pair is solved, checked, counted for multiplicity or gets its
        edge products again, the skipped ones included: the Hessians
        read the products the kernel checked."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal
        import magnodal.spectral as spectral

        for case, skipped in VERIFY_SKIPS:
            h = verify_fixture(case)
            with monkeypatch.context() as m:
                events = record_calls(
                    m, (nodal, "_stack_checks"), (nodal, "eigh"),
                    (spectral, "eigh"), (morse, "eigh_stack"),
                    (nodal, "eigh_dense"),
                    (spectral, "eigh_dense"), (spectral, "multiplicity"),
                    (nodal, "edge_products"))
                t = verify_index_equals_surplus(h)
            assert t.num_skipped == skipped
            assert all(r.reason for r in t.rows if r.status == "skipped")
            assert events == ["eigh_dense", "edge_products", "_stack_checks"]


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
                              (morse, "_hessian"), (morse, "eigvalsh_dense"))
        polish = morse._polish

        def quiet_polish(*args):  # its Newton Jacobians are not reports
            before = len(events)
            out = polish(*args)
            del events[before:]
            return out

        monkeypatch.setattr(morse, "_polish", quiet_polish)
        sr = critical_scan(h, k, starts=4, seed=0)
        assert any(r.origin == "search" for r in sr.reports) == (phases == 2)
        assert events == ["_reports_at", "_hessian",
                          "eigvalsh_dense"] * phases

    def test_verify_builds_one_hessian_stack_per_k(self, monkeypatch):
        import magnodal.morse as morse

        events = record_calls(monkeypatch, (morse, "_hessian"),
                              (morse, "eigvalsh_dense"))
        h = strong_diagonal_fixture(complete_graph(5))
        assert verify_index_equals_surplus(h).num_ok == 320
        # one Hessian per pair made 320 calls
        assert events == ["_hessian"] * h.graph.n + ["eigvalsh_dense"]

    def test_chart_and_classes_share_the_nonforest_positions(self):
        h = strong_diagonal_fixture(complete_graph(5))
        idx = h.graph.spanning_forest.nonforest
        assert gauge_classes_of_signings(h).nonforest is idx
        assert not idx.flags.writeable
        assert [h.graph.edges[i] for i in idx] \
            == list(h.graph.spanning_forest.nonforest_edges)


#: ``verify_fixture`` cases and how many of their pairs are skipped.
VERIFY_SKIPS = (("strong-K5", 0), ("ring-C4", 6), ("zero-diagonal-P3", 1))


def verify_fixture(case):
    """Operators with every pair admissible (strong K5), pairs skipped
    for multiplicity (ring C4) and for vanishing entries (zero-diagonal
    P3)."""
    return {"strong-K5": lambda: strong_diagonal_fixture(complete_graph(5)),
            "ring-C4": lambda: ring_op(4),
            "zero-diagonal-P3": lambda: SupportedMatrix(
                path_graph(3), np.zeros(3),
                -np.ones(2, dtype=np.complex128))}[case]()


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

        def recording(coords, base, s, forest, origin, checks=None,
                      **kwargs):
            got = inner(coords, base, s, forest, origin, checks=checks,
                        **kwargs)
            # the oracle builds each report alone, from its own checks
            calls.append((coords, base, s, forest, origin, kwargs, list(got)))
            return got

        monkeypatch.setattr(morse, "_reports_at", recording)
        critical_scan(h, k, starts=4, seed=0)
        monkeypatch.undo()
        for coords, base, s, forest, origin, kwargs, got in calls:
            want = [scalar_report(
                x, SupportedMatrix(base.graph, base.diag, s.offdiag[i]),
                EigenSystem(s.values[i], s.vectors[i]), s.k, origin,
                rank_tol=morse.RANK_TOL, **kwargs)
                for i, x in enumerate(coords)]
            assert [payload_bits(r) for r in got] \
                == [payload_bits(r) for r in want]
        kinds = {r.classification for r in calls[0][-1]}
        origins = [origin for *_, origin, _, _ in calls]
        if case == "tree-P3":
            assert len(calls[0][3].nonforest) == 0
            assert origins == ["symmetry-enumeration"]
        elif case == "ring-C4":
            # one flux class is simple at k = 1, the other is not
            assert kinds == {"symmetry", "incorrigible"}
        else:
            assert origins == ["symmetry-enumeration", "search"]


def verify_rows_oracle(h, tol_vanish):
    """Skip decisions of ``verify_index_equals_surplus`` as three checks.

    Multiplicity, then vanishing entries, then the scalar oracle's
    surplus: the order the checks ran in before one kernel decided.
    """
    base = abs_part(h)
    rows = []
    for bits in itertools.product((0, 1), repeat=betti_number(h.graph)):
        coords = np.array([np.pi if b else 0.0 for b in bits])
        hs = torus_point(base, coords).operator()
        es = eigh(hs)
        for k in range(1, h.graph.n + 1):
            m, _ = multiplicity(es, k)
            if m != 1:
                rows.append((bits, k, "skipped", f"multiplicity {m}"))
                continue
            vanishing = vanishing_entries(es.vector(k), tol_vanish)
            if vanishing:
                rows.append((bits, k, "skipped", f"vanishes at {vanishing}"))
                continue
            try:
                surplus = scalar_nodal_surplus(hs, k, es=es,
                                               tol_vanish=tol_vanish)
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
        with pytest.raises(AdmissibilityError) as err:
            verify_index_equals_surplus(h)
        assert type(err.value) is AdmissibilityError
        assert str(err.value) == ("index-versus-surplus verification runs "
                                  "over the signings of a real matrix; this "
                                  "operator has complex entries")

    def test_first_failing_pair_in_class_order_is_named(self, monkeypatch):
        """Two pairs get a wrong surplus; the error names the one that
        comes first class by class, not k by k."""
        import magnodal.nodal as nodal

        h = strong_diagonal_fixture(complete_graph(4))
        inner = nodal._stack_checks

        def wrong(*args, **kwargs):
            checks = inner(*args, **kwargs)
            # class ids count in bit order: class (0, 0, 1) is row 1
            surplus = checks.surplus.copy()
            surplus[0, 1] += 1  # class (0, 0, 0), k=2
            surplus[1, 0] += 1  # class (0, 0, 1), k=1
            return replace(checks, surplus=surplus)

        monkeypatch.setattr(nodal, "_stack_checks", wrong)
        with pytest.raises(InternalCrossCheckError) as err:
            verify_index_equals_surplus(h)
        assert str(err.value) == ("Morse index 1 differs from nodal surplus "
                                  "2 at class (0, 0, 0), k=2")

    def test_degenerate_hessian_message(self, monkeypatch):
        """The nullity cut is ``morse.RANK_TOL``, read when the check
        runs: at 1 every Hessian eigenvalue is a nullity."""
        import magnodal.morse as morse

        monkeypatch.setattr(morse, "RANK_TOL", 1.0)
        with pytest.raises(InternalCrossCheckError) as err:
            verify_index_equals_surplus(
                strong_diagonal_fixture(complete_graph(4)))
        assert str(err.value) == (
            "Hessian at class (0, 0, 0), k=1 is degenerate (nullity 3); the "
            "index comparison needs a nondegenerate critical point")

    def test_disconnected_graph_mismatch_is_inadmissible(self):
        """A triangle and an isolated vertex with the lowest diagonal: at
        a vanishing tolerance of 0 the triangle's eigenvectors pass the
        checks, and their surpluses, counted against the whole
        spectrum, miss the Morse indices.  Index equals surplus is a
        theorem on connected graphs only, so that is an
        ``AdmissibilityError``, not an internal fault."""
        g = Graph(4, ((0, 1), (0, 2), (1, 2)))
        h = SupportedMatrix(g, np.array([0.0, 0.3, 0.7, -5.0]),
                            np.full(3, -1.0 + 0j))
        with pytest.raises(AdmissibilityError) as err:
            verify_index_equals_surplus(h, tol_vanish=0.0)
        assert type(err.value) is AdmissibilityError
        assert str(err.value) == (
            "Morse index 1 differs from nodal surplus 0 at class (0,), k=2; "
            "the index-surplus identity holds on connected graphs only")
        # at the default tolerance the vanishing entries skip every pair
        assert verify_index_equals_surplus(h).num_skipped == 8


#: ``nodal.SWEEP_CHUNK`` values: every class alone, and two that divide
#: no ``2^beta``.
SMALL_CHUNKS = (1, 3, 7)


def block_fixture(case):
    """The strong and random fixtures of the scan and index tests."""
    if case.startswith("random-K5-seed"):
        return random_operator(complete_graph(5),
                               np.random.default_rng(int(case[-1])))
    return {"strong-K4": lambda: strong_diagonal_fixture(complete_graph(4)),
            "strong-K5-eta10": lambda: strong_diagonal_fixture(
                complete_graph(5), eta=10.0)}.get(
        case, lambda: verify_fixture(case))()


def verify_outcome(h):
    """The index table as plain data, or the error's type and message."""
    try:
        t = verify_index_equals_surplus(h)
    except (AdmissibilityError, InternalCrossCheckError) as exc:
        return type(exc), str(exc)
    return [vars(r) for r in t.rows]


def scan_outcome(h, k):
    sr = critical_scan(h, k, starts=4, seed=0)
    return ([payload_bits(r) for r in sr.reports],
            sr.incorrigible_candidates, sr.coverage, sr.starts_attempted,
            sr.unconverged)


class TestClassBlocks:
    """The symmetry points are solved in blocks of ``nodal.SWEEP_CHUNK``
    classes; no block size changes a bit of a scan or an index check."""

    @pytest.mark.parametrize("case", [
        "strong-K4", "strong-K5", "ring-C4", "zero-diagonal-P3",
        *(f"random-K5-seed{s}" for s in range(3))])
    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_verify_index_does_not_see_the_block_size(self, monkeypatch,
                                                      chunk, case):
        import magnodal.nodal as nodal

        h = block_fixture(case)
        want = verify_outcome(h)
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        assert verify_outcome(h) == want

    @pytest.mark.parametrize("case,k", [
        ("strong-K5-eta10", 2), ("ring-C4", 1),
        *((f"random-K5-seed{s}", 2) for s in range(3))])
    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_critical_scan_does_not_see_the_block_size(self, monkeypatch,
                                                       chunk, case, k):
        import magnodal.nodal as nodal

        h = block_fixture(case)
        want = scan_outcome(h, k)
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        assert scan_outcome(h, k) == want

    @pytest.mark.parametrize("fault", ["index", "bound"])
    @pytest.mark.parametrize("chunk", (*SMALL_CHUNKS, 256))
    def test_first_failure_in_a_later_block(self, monkeypatch, chunk, fault):
        """A wrong surplus planted at class 40 of strong K5, in a later
        block for every small chunk, raises the same error class and
        message whatever the block size."""
        import magnodal.nodal as nodal

        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        inner, seen = nodal._stack_checks, [0]

        def planting(*args, **kwargs):
            checks = inner(*args, **kwargs)
            row, seen[0] = 40 - seen[0], seen[0] + len(checks.surplus)
            if not 0 <= row < len(checks.surplus):
                return checks
            surplus = checks.surplus.copy()
            surplus[row, 1] = surplus[row, 1] + 1 if fault == "index" else 7
            return replace(checks, surplus=surplus)

        monkeypatch.setattr(nodal, "_stack_checks", planting)
        with pytest.raises(InternalCrossCheckError) as err:
            verify_index_equals_surplus(
                strong_diagonal_fixture(complete_graph(5)))
        assert str(err.value) == {
            "index": "Morse index 3 differs from nodal surplus 4 at class "
                     "(1, 0, 1, 0, 0, 0), k=2",
            "bound": "nodal count 8 violates the bounds [1, 7] for k=2, "
                     "beta=6"}[fault]

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_verify_index_stacks_stay_within_a_block(self, monkeypatch,
                                                     chunk):
        """No eigensolve or Hessian stack of an index check holds more
        than a block of classes; a block's Morse indices, one stacked
        solve over its n Hessian stacks, hold at most n blocks."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        sizes = {"eigh_dense": [], "_hessian": [], "eigvalsh_dense": []}
        for module, name in ((nodal, "eigh_dense"), (morse, "_hessian"),
                             (morse, "eigvalsh_dense")):
            def recording(a, *args, _name=name,
                          _inner=getattr(module, name), **kwargs):
                sizes[_name].append(len(a.values if _name == "_hessian"
                                        else a))
                return _inner(a, *args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        h = strong_diagonal_fixture(complete_graph(5))
        assert verify_index_equals_surplus(h).num_ok == 320
        assert sum(sizes["eigh_dense"]) == 2 ** 6
        assert max(sizes["eigh_dense"]) == max(sizes["_hessian"]) == chunk
        assert max(sizes["eigvalsh_dense"]) <= h.graph.n * chunk

    @pytest.mark.parametrize("case", [
        "strong-K4", "strong-K5", "strong-K5-eta10", "ring-C4",
        "zero-diagonal-P3", *(f"random-K5-seed{s}" for s in range(3))])
    @pytest.mark.parametrize("tols", ["default", *sorted(COARSE_TOLERANCES)])
    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_scan_column_is_the_single_position_check(self, monkeypatch,
                                                      chunk, tols, case):
        """A symmetry block's checks, at the operator's norm, decide as
        the checks of its solves at each row's norm, at every column: a
        signed real row's norm has the bits of the operator's, so every
        mask is the same.  Column ``k - 1`` of the products has the bits
        of the products of the k-th eigenvectors alone."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        base = abs_part(block_fixture(case))
        tols = dict(COARSE_TOLERANCES.get(tols, ()))
        if "tol_product" in tols:
            monkeypatch.setattr(nodal, "PRODUCT_DEGENERATE_TOL",
                                tols.pop("tol_product"))
        for _, (_, off, vectors, checks) in morse._symmetry_blocks(base,
                                                                   **tols):
            scale = frobenius_norms(base.diag, off)
            assert same_bits(scale, np.full(len(off), base.norm_fro))
            for k in range(1, base.graph.n + 1):
                solves = nodal._Solves.at(base.graph, off, checks.values,
                                          vectors, k)
                assert same_bits(checks.products[:, k - 1], solves.products)
            per_row = solves.checks(base.graph, scale, **tols)
            for name in ("simple", "vanishing", "flat", "unresolved",
                         "surplus"):
                assert same_bits(getattr(checks, name),
                                 getattr(per_row, name)), name

    @pytest.mark.parametrize("beta", [0, 1, 3, 7])
    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_backwards_listing_walks_the_product_order(self, monkeypatch,
                                                       chunk, beta):
        """Block by block, the symmetry points come in
        ``itertools.product`` order, and their sign rows are those of
        the classes whose id has bit ``j`` set where coordinate ``j`` is
        ``pi``."""
        import magnodal.morse as morse
        import magnodal.nodal as nodal

        g = {0: path_graph(3), 1: cycle_graph(4), 3: complete_graph(4),
             7: random_connected_graph(6, 12, np.random.default_rng(0))}[beta]
        assert betti_number(g) == beta
        h = strong_diagonal_fixture(g)
        classes = gauge_classes_of_signings(h)
        points = np.array(list(itertools.product([0, 1], repeat=beta)),
                          dtype=np.int64).reshape(2 ** beta, beta)
        monkeypatch.setattr(nodal, "SWEEP_CHUNK", chunk)
        lo = 0
        for bits, (rows, *_) in morse._symmetry_blocks(h):
            want = points[lo:lo + chunk]
            assert bits.tolist() == want.tolist()
            assert same_bits(rows,
                             classes.rows(want @ (1 << np.arange(beta))))
            lo += len(want)
        assert lo == 2 ** beta


class TestCutsReadAtCallTime:
    """The Hessian-nullity cut is ``morse.RANK_TOL``, read when a scan
    runs, not bound when the module loads."""

    def test_scan_reads_the_rank_tolerance(self, monkeypatch):
        import magnodal.morse as morse

        h = strong_diagonal_fixture(complete_graph(4))
        monkeypatch.setattr(morse, "RANK_TOL", 1.0)
        reports = critical_scan(h, 2, starts=0).reports
        assert reports and {r.nullity for r in reports} == {3}
