"""Linkage configuration spaces and exceptional-point analysis."""

import itertools

import numpy as np
import pytest

from magnodal.errors import (
    AdmissibilityError,
    CapExceededError,
    EmptyConfigurationError,
    LinkageHypothesisError,
    NonGenericLengthsError,
    NotCriticalError,
    VanishingEigenvectorError,
)
from magnodal.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.linkage import (
    LinkageLengths,
    analyze_exceptional,
    build_exceptional_fixture,
    is_generic,
    sample_configuration,
    solvability_and_connectivity,
)
from magnodal.morse import TorusPoint, critical_scan, gauge_chart
from magnodal.operators import SupportedMatrix, abs_part
from magnodal.spectral import eigh


def brute_force_generic(lengths, tol=1e-9):
    vals = np.asarray(lengths, dtype=float)
    cut = tol * float(np.max(vals))
    for signs in itertools.product((1.0, -1.0), repeat=len(vals)):
        if abs(float(np.dot(signs, vals))) <= cut:
            return False
    return True


def sampled_four_bar_components(lengths, samples=20000):
    """Components of the closed 4-bar configurations, counted on a grid.

    Bar 0 lies along the x axis and the angle t of bar 1 sweeps a grid.
    The last two bars close the polygon, in two mirror positions, where
    the distance from the end of bar 1 back to the start lies strictly
    between |l2 - l3| and l2 + l3.  Each arc of such t carries one
    circle, its two mirror branches meeting at the arc ends; a full
    circle of such t carries two, whose branches never meet.
    """
    l0, l1, l2, l3 = lengths
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    d = np.abs(l0 + l1 * np.exp(1j * t))
    closes = (d > abs(l2 - l3)) & (d < l2 + l3)
    if closes.all():
        return 2
    return int(np.count_nonzero(closes & ~np.roll(closes, 1)))


class TestLinkageLengths:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            LinkageLengths(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            LinkageLengths(np.array([1.0, -0.5]))

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            LinkageLengths(np.array([]))

    def test_len(self):
        assert len(LinkageLengths(np.array([1.0, 2.0, 3.0]))) == 3


class TestIsGeneric:
    def test_equilateral_is_generic(self):
        assert is_generic(LinkageLengths(np.array([1.0, 1.0, 1.0])))

    def test_flat_triangle_is_not(self):
        assert not is_generic(LinkageLengths(np.array([1.0, 1.0, 2.0])))

    def test_four_bars(self):
        assert is_generic(LinkageLengths(np.array([2.0, 1.5, 1.0, 0.9])))

    def test_against_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            vals = rng.uniform(0.1, 3.0, size=m)
            if rng.uniform() < 0.3 and m >= 2:
                # plant a vanishing signed sum
                vals[-1] = abs(float(np.sum(vals[:-1])
                                     * rng.choice([-1.0, 1.0])))
                if vals[-1] <= 0.1:
                    continue
            got = is_generic(LinkageLengths(vals))
            assert got == brute_force_generic(vals)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            is_generic(LinkageLengths(np.ones(21) + np.arange(21) * 0.01))


class TestSolvability:
    def test_overlong_bar_gives_empty(self):
        top = solvability_and_connectivity(
            LinkageLengths(np.array([5.0, 1.0, 1.0])))
        assert top.kind == "empty" and top.dimension is None

    def test_equilateral_two_components(self):
        top = solvability_and_connectivity(
            LinkageLengths(np.array([1.0, 1.0, 1.0])))
        assert top.kind == "two-components" and top.dimension == 0

    def test_five_bars_connected(self):
        top = solvability_and_connectivity(
            LinkageLengths(np.array([1.0, 1.0, 1.0, 1.2, 0.9])))
        assert top.kind == "connected" and top.dimension == 2

    def test_two_long_bars_alone_stay_connected(self):
        # the two longest bars beat half the perimeter, but no third bar
        # joins them pairwise: one circle of configurations
        lengths = (0.627, 0.243, 0.726, 0.269)
        top = solvability_and_connectivity(LinkageLengths(np.array(lengths)))
        assert top.kind == "connected" and top.dimension == 1
        assert sampled_four_bar_components(lengths) == 1

    def test_four_bars_against_sampled_components(self):
        kinds = {0: "empty", 1: "connected", 2: "two-components"}
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(60):
            lengths = tuple(rng.uniform(0.1, 1.0, size=4))
            top = solvability_and_connectivity(
                LinkageLengths(np.array(lengths)))
            assert top.kind == kinds[sampled_four_bar_components(lengths)]
            seen.add(top.kind)
        assert seen == set(kinds.values())

    def test_nongeneric_rejected(self):
        with pytest.raises(NonGenericLengthsError):
            solvability_and_connectivity(
                LinkageLengths(np.array([1.0, 1.0, 2.0])))


class TestSampleConfiguration:
    def test_two_bars_fold_flat(self):
        theta = sample_configuration(LinkageLengths(np.array([1.0, 1.0])))
        assert theta[0] == 0.0
        assert theta[1] == pytest.approx(np.pi)

    def test_equilateral_triangle(self):
        theta = sample_configuration(LinkageLengths(np.array([1.0, 1.0, 1.0])))
        assert theta[0] == 0.0
        assert sorted(theta[1:]) == pytest.approx([2 * np.pi / 3,
                                                   4 * np.pi / 3])

    def test_four_bars_close_up(self):
        L = LinkageLengths(np.array([2.0, 1.5, 1.0, 0.9]))
        total = float(np.sum(L.lengths))
        for seed in (0, 1, 2):
            theta = sample_configuration(L, seed=seed)
            z = np.sum(L.lengths * np.exp(1j * theta))
            assert abs(z) <= 1e-10 * total

    def test_unsolvable_raises(self):
        with pytest.raises(EmptyConfigurationError):
            sample_configuration(LinkageLengths(np.array([5.0, 1.0, 1.0])))

    def test_single_bar_raises(self):
        with pytest.raises(EmptyConfigurationError):
            sample_configuration(LinkageLengths(np.array([1.0])))


class TestBuildFixture:
    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            build_exceptional_fixture(2)

    def test_degree_three_shape(self):
        fx = build_exceptional_fixture(3, seed=0)
        assert fx.h.graph.n == 4
        assert fx.vanishing_vertex == 0 and fx.degree == 3
        hp = fx.point.operator()
        es = eigh(hp)
        assert es.value(fx.k) == pytest.approx(fx.eigenvalue, abs=1e-9)
        v = es.vector(fx.k)
        assert abs(v[0]) < 1e-8
        assert np.all(np.abs(v[1:]) > 1e-6)

    def test_deterministic(self):
        a = build_exceptional_fixture(3, seed=1)
        b = build_exceptional_fixture(3, seed=1)
        np.testing.assert_array_equal(a.h.offdiag, b.h.offdiag)
        np.testing.assert_array_equal(a.point.angles, b.point.angles)


class TestAnalyzeExceptional:
    def test_degree_three_isolated(self):
        fx = build_exceptional_fixture(3, seed=0)
        an = analyze_exceptional(fx.point, fx.k)
        assert an.vanishing_vertex == 0
        assert an.manifold_dimension == 0
        assert an.hessian_nullity == 0
        assert an.hessian_index == an.morse_index_predicted
        assert an.morse_index_predicted \
            == an.surplus_reduced + (2 if an.shift_coefficient < 0 else 0)
        assert an.closure_residual <= 1e-8
        assert an.manifold_samples_checked == 0
        assert len(an.lengths) == 3

    def test_degree_four_curve(self):
        fx = build_exceptional_fixture(4, seed=0)
        an = analyze_exceptional(fx.point, fx.k)
        assert an.manifold_dimension == 1
        assert an.hessian_nullity == 1
        assert an.hessian_index == an.morse_index_predicted
        assert an.manifold_samples_checked == 4
        assert an.connectivity.dimension == 1

    def test_degree_five_surface(self):
        fx = build_exceptional_fixture(5, seed=0)
        an = analyze_exceptional(fx.point, fx.k)
        assert an.manifold_dimension == 2
        assert an.hessian_nullity == 2
        assert an.hessian_index == an.morse_index_predicted
        assert an.connectivity.kind in ("connected", "two-components")

    def test_conjugate_point_agrees(self):
        fx = build_exceptional_fixture(3, seed=0)
        an = analyze_exceptional(fx.point, fx.k)
        cn = analyze_exceptional(fx.point.conjugate(), fx.k)
        assert cn.hessian_index == an.hessian_index
        assert cn.manifold_dimension == an.manifold_dimension
        assert cn.shift_coefficient == pytest.approx(an.shift_coefficient,
                                                     rel=1e-9)

    def test_low_degree_vanishing_rejected(self):
        g = path_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(2, dtype=np.complex128))
        p = TorusPoint.from_operator(h)
        with pytest.raises(AdmissibilityError) as err:
            analyze_exceptional(p, 2)
        assert "degree" in str(err.value)

    def test_nowhere_vanishing_rejected(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        p = TorusPoint.from_operator(h)
        with pytest.raises(VanishingEigenvectorError):
            analyze_exceptional(p, 1)

    def test_noncritical_rejected(self):
        h = abs_part(strong_diagonal_fixture(cycle_graph(3)))
        p = TorusPoint(h, np.array([0.8, 0.0, 0.0]))
        with pytest.raises(NotCriticalError):
            analyze_exceptional(p, 1)

    def test_degenerate_eigenvalue_rejected(self):
        g = cycle_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(3, dtype=np.complex128))
        p = TorusPoint.from_operator(h)
        with pytest.raises(LinkageHypothesisError) as err:
            analyze_exceptional(p, 2)
        assert err.value.hypothesis == 1

    def test_genericity_is_checked_once(self, monkeypatch):
        import magnodal.linkage as linkage

        fixtures = [build_exceptional_fixture(d, seed=0) for d in range(3, 7)]
        calls = 0
        original = linkage.is_generic

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(linkage, "is_generic", counting)
        for fx in fixtures:
            analyze_exceptional(fx.point, fx.k)
        assert calls == len(fixtures)

    def test_nongeneric_lengths_fail_hypothesis_two(self, monkeypatch):
        import magnodal.linkage as linkage

        fx = build_exceptional_fixture(3, seed=0)
        monkeypatch.setattr(linkage, "is_generic", lambda lengths: False)
        with pytest.raises(LinkageHypothesisError) as err:
            analyze_exceptional(fx.point, fx.k)
        assert err.value.hypothesis == 2

    def test_eigenvalue_leaving_position_k_is_named(self):
        """A manifold sample where the eigenvalue nearest lambda sits at
        another position reports that, not a shift-coefficient sign."""
        h = random_operator(complete_graph(5), np.random.default_rng(0))
        base, chart = abs_part(h), gauge_chart(h.graph)
        for r in critical_scan(h, 2, starts=4, seed=0).reports:
            if r.origin != "search":
                continue
            p = TorusPoint.from_coords(base, np.array(r.coords), chart)
            try:
                analyze_exceptional(p, 2)
            except LinkageHypothesisError as exc:
                err = exc
                break
        else:
            pytest.fail("no search report fails a linkage hypothesis")
        assert err.hypothesis == 3
        message = str(err)
        assert message.startswith("eigenvalue leaves position k=2 along the "
                                  "manifold (sample 0: position 1, "
                                  "configuration [0, ")
        assert "shift coefficient" not in message
