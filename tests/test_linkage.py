"""Linkage configuration spaces and exceptional-point analysis."""

import functools
import itertools

import numpy as np
import pytest

from conftest import (conjugate_point, path_graph, same_bits,
                      scalar_is_generic, scalar_sample_configuration,
                      torus_point, zero_bar_operator)
from magnodal.errors import (
    AdmissibilityError,
    CapExceededError,
    EmptyConfigurationError,
    InternalCrossCheckError,
    LinkageHypothesisError,
    NonGenericLengthsError,
    NotCriticalError,
    NotProperlySupportedError,
    VanishingEigenvectorError,
)
from magnodal.families import (
    complete_graph,
    cycle_graph,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.graphs import Graph
import magnodal.linkage as linkage
from magnodal.linkage import (
    LinkageLengths,
    analyze_exceptional,
    build_exceptional_fixture,
    is_generic,
    sample_configuration,
    solvability_and_connectivity,
)
from magnodal.morse import TorusPoint, critical_scan
from magnodal.nodal import edge_products
from magnodal.operators import SupportedMatrix, abs_part
from magnodal.spectral import eigh


def brute_force_generic(lengths, tol=1e-9):
    vals = np.asarray(lengths, dtype=float)
    cut = tol * float(np.max(vals))
    for signs in itertools.product((1.0, -1.0), repeat=len(vals)):
        if abs(float(np.dot(signs, vals))) <= cut:
            return False
    return True


def relabelled(h, perm):
    """``h`` with vertex u renamed ``perm[u]``; an edge whose endpoints
    change order stores the conjugate entry."""
    rs = np.asarray(perm)[h.graph.endpoints]
    g = Graph(h.graph.n, tuple(map(tuple, rs)))
    off = np.empty(g.num_edges, dtype=np.complex128)
    off[[g.edge_index[(min(r, s), max(r, s))] for r, s in rs]] = np.where(
        rs[:, 0] < rs[:, 1], h.offdiag, np.conj(h.offdiag))
    diag = np.empty(g.n)
    diag[perm] = h.diag
    return SupportedMatrix(g, diag, off)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_required(self, bad):
        with pytest.raises(ValueError, match="lengths must be finite"):
            LinkageLengths(np.array([bad, 1.0, 1.0]))

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

    @staticmethod
    def planted(rng, m, offset, late):
        """Lengths whose signed sum with the sign row of one odd index
        is ``offset`` times the largest length: an index in the last
        block when ``late``, else one below 64."""
        vals = rng.uniform(0.1, 3.0, size=m)
        vals[0] = 3.0 * m
        top = (1 << (m - 1)) - 1
        pick = 2 * int(rng.integers(0, min(32, (top + 1) // 2)))
        index = top - pick if late else pick + 1
        signs = 1.0 - 2.0 * ((index >> np.arange(m - 1)) & 1)
        rest = vals[0] + vals[2:] @ signs[1:]
        # bit 0 is set: vals[0] - vals[1] + rest = offset * max(vals)
        for _ in range(3):
            vals[1] = rest - offset * np.max(vals)
        return vals

    @pytest.mark.parametrize("offset", [0.0, 0.5e-9, 0.99e-9, 1.01e-9,
                                        2e-9, 1e-6])
    def test_matches_scalar_loop(self, offset):
        """Identical verdicts to the one-sum-at-a-time loop, on random
        sets and on sums planted at and around the cut, early and late
        in the enumeration; at 16 bars the sign rows span four blocks."""
        rng = np.random.default_rng(int(offset * 1e12) + 5)
        cases = [rng.uniform(0.1, 3.0, size=m) for m in range(1, 13)]
        cases += [self.planted(rng, m, offset, late)
                  for m in (2, 3, 5, 9, 13) for late in (False, True)]
        cases.append(self.planted(rng, 16, offset, True))
        if offset < 1e-9:  # the loop stops at the tie
            cases += [self.planted(rng, m, offset, False) for m in (18, 20)]
        verdicts = []
        for vals in cases:
            verdicts.append(is_generic(LinkageLengths(vals)))
            assert verdicts[-1] == scalar_is_generic(vals), len(vals)
        assert (False in verdicts) == (offset < 1e-9)

    def test_twenty_generic_lengths(self):
        vals = np.random.default_rng(20).uniform(0.1, 3.0, size=20)
        assert is_generic(LinkageLengths(vals))


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


#: Scalings by powers of two, which are exact, and by powers of ten, up
#: to one whose sum of four lengths overflows.
SCALES = [2.0 ** 600, 2.0 ** -600, 1e300, 1e-300, 5e307]
SCALE_IDS = ["2**600", "2**-600", "1e300", "1e-300", "5e307"]


class TestScaleFree:
    """The verdicts and the sampler read the lengths divided by the
    power of two at their maximum, so no sum overflows or underflows."""

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("lengths", [[1.0, 1.0, 1.0],
                                         [1.0, 2.0, 2.5, 3.0],
                                         [2.0, 1.5, 1.0, 0.9],
                                         [1.0, 1.0, 3.0]])
    def test_same_topology(self, lengths, scale):
        unit, scaled = (LinkageLengths(np.array(lengths) * f)
                        for f in (1.0, scale))
        assert is_generic(scaled) and is_generic(unit)
        assert solvability_and_connectivity(scaled) \
            == solvability_and_connectivity(unit)

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("lengths", [[1.0, 1.0, 1.0],
                                         [1.0, 2.0, 2.5, 3.0],
                                         [2.0, 1.5, 1.0, 0.9]])
    def test_closed_configuration(self, lengths, scale):
        """The angles close the polygon at every scale, and have the
        bits of the unscaled ones when the scale is a power of two."""
        vals = np.array(lengths)
        theta = sample_configuration(LinkageLengths(vals * scale))
        z = np.sum(vals * np.exp(1j * theta))
        assert abs(z) <= 1e-10 * np.sum(vals)
        if np.frexp(scale)[0] == 0.5:
            assert same_bits(theta, sample_configuration(
                LinkageLengths(vals)))


@functools.cache
def sampler_cases():
    """Length sets of 2 to 12 bars, and near the solvability boundary,
    where every restart can fail."""
    rng = np.random.default_rng(31)
    cases = [rng.uniform(0.1, 3.0, size=m) for m in (2, 2, 3, 4, 5, 6, 8, 12)]
    for m in (3, 4, 6):
        vals = rng.uniform(0.5, 1.5, size=m)
        vals[0] = np.sum(vals[1:]) * (1.0 - 1e-10)
        cases.append(vals)
    cases.append(np.array([1.0, 1.0]))
    return cases


class TestSamplerOracle:
    """The sampler against ``scalar_sample_configuration``, which solves
    each Newton step with ``np.linalg.lstsq``."""

    @staticmethod
    def scalar(vals, seed, restarts):
        try:
            return scalar_sample_configuration(vals, seed, restarts)
        except EmptyConfigurationError as exc:
            return str(exc)

    @pytest.mark.parametrize("restarts", [1, 3, 60])
    @pytest.mark.parametrize("case", range(len(sampler_cases())))
    def test_one_seed_matches_scalar(self, case, restarts, monkeypatch):
        vals = sampler_cases()[case]
        monkeypatch.setattr(linkage, "SAMPLE_RESTARTS", restarts)
        for seed in (0, 1, 18, 35):
            want = self.scalar(vals, seed, restarts)
            try:
                got = sample_configuration(LinkageLengths(vals), seed)
            except EmptyConfigurationError as exc:
                got = str(exc)
            if isinstance(want, str):
                assert got == want
            else:
                assert same_bits(got, want)

    def test_cases_include_failures(self):
        outcomes = [isinstance(self.scalar(vals, seed, 3), str)
                    for vals in sampler_cases() for seed in (0, 1, 18, 35)]
        assert any(outcomes) and not all(outcomes)


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
    def test_zero_edge_entry_is_refused_before_solving(self, monkeypatch):
        """An eigenvector vanishing at a vertex whose three nonzero bars
        close beside a zero entry: the zero entry has no phase and is
        refused before any eigensolve, as the scan refuses it, where a
        zero bar length used to escape as a ``ValueError``."""
        import magnodal.spectral as spectral

        h, k = zero_bar_operator()
        v = eigh(h).vector(k)
        assert abs(v[0]) < 1e-12 and np.count_nonzero(h.offdiag == 0) == 1

        def refuse(*args):
            raise AssertionError("an eigensolve ran before the refusal")

        monkeypatch.setattr(spectral, "_eigensolve", refuse)
        with pytest.raises(NotProperlySupportedError,
                           match="phase recovery needs a nonzero entry on "
                                 "every edge"):
            analyze_exceptional(h, k)

    def test_degree_three_isolated(self):
        fx = build_exceptional_fixture(3, seed=0)
        an = analyze_exceptional(fx.point.operator(), fx.k)
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
        an = analyze_exceptional(fx.point.operator(), fx.k)
        assert an.manifold_dimension == 1
        assert an.hessian_nullity == 1
        assert an.hessian_index == an.morse_index_predicted
        assert an.manifold_samples_checked == 4
        assert an.connectivity.dimension == 1

    def test_degree_five_surface(self):
        fx = build_exceptional_fixture(5, seed=0)
        an = analyze_exceptional(fx.point.operator(), fx.k)
        assert an.manifold_dimension == 2
        assert an.hessian_nullity == 2
        assert an.hessian_index == an.morse_index_predicted
        assert an.connectivity.kind in ("connected", "two-components")

    def test_conjugate_point_agrees(self):
        fx = build_exceptional_fixture(3, seed=0)
        an = analyze_exceptional(fx.point.operator(), fx.k)
        cn = analyze_exceptional(conjugate_point(fx.point).operator(), fx.k)
        assert cn.hessian_index == an.hessian_index
        assert cn.manifold_dimension == an.manifold_dimension
        assert cn.shift_coefficient == pytest.approx(an.shift_coefficient,
                                                     rel=1e-9)

    def test_low_degree_vanishing_rejected(self):
        g = path_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(2, dtype=np.complex128))
        with pytest.raises(AdmissibilityError) as err:
            analyze_exceptional(h, 2)
        assert "degree" in str(err.value)

    def test_nowhere_vanishing_rejected(self):
        h = strong_diagonal_fixture(cycle_graph(3))
        with pytest.raises(VanishingEigenvectorError):
            analyze_exceptional(h, 1)

    def test_noncritical_rejected(self):
        h = abs_part(strong_diagonal_fixture(cycle_graph(3)))
        p = TorusPoint(h, np.array([0.8, 0.0, 0.0]))
        with pytest.raises(NotCriticalError) as err:
            analyze_exceptional(p.operator(), 1)
        worst = np.max(np.abs(edge_products(
            h.graph, p.operator().offdiag, eigh(p.operator()).vector(1)).imag))
        assert worst > 0.0
        assert str(err.value) == (
            f"gradient is nonzero (max imaginary product {worst:.3e}); not "
            f"a critical point")

    def test_degenerate_eigenvalue_rejected(self):
        g = cycle_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(3, dtype=np.complex128))
        with pytest.raises(LinkageHypothesisError) as err:
            analyze_exceptional(h, 2)
        assert err.value.hypothesis == 1

    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_relabelled_fixture_agrees(self, degree, seed):
        """Moving the vanishing vertex from 0 to the middle and to the
        end puts neighbours below it, whose row entries are stored
        conjugated, and changes nothing but its label."""
        fx = build_exceptional_fixture(degree, seed=seed)
        h = fx.point.operator()
        want = analyze_exceptional(h, fx.k)
        for v0 in ((degree + 1) // 2, degree):
            perm = (np.arange(degree + 1) + v0) % (degree + 1)
            got = analyze_exceptional(relabelled(h, perm), fx.k)
            assert got.vanishing_vertex == v0
            for name in ("k_reduced", "manifold_dimension",
                         "surplus_reduced", "morse_index_predicted",
                         "hessian_index", "hessian_nullity",
                         "manifold_samples_checked", "connectivity"):
                assert getattr(got, name) == getattr(want, name), name
            np.testing.assert_allclose(np.sort(got.lengths.lengths),
                                       np.sort(want.lengths.lengths),
                                       rtol=0, atol=1e-9)
            assert got.shift_coefficient \
                == pytest.approx(want.shift_coefficient, rel=0, abs=1e-9)

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
            analyze_exceptional(fx.point.operator(), fx.k)
        assert calls == len(fixtures)

    def test_nongeneric_lengths_fail_hypothesis_two(self, monkeypatch):
        import magnodal.linkage as linkage

        fx = build_exceptional_fixture(3, seed=0)
        monkeypatch.setattr(linkage, "is_generic", lambda lengths: False)
        with pytest.raises(LinkageHypothesisError) as err:
            analyze_exceptional(fx.point.operator(), fx.k)
        assert err.value.hypothesis == 2

    def test_manifold_samples_match_scalar_sampler(self, monkeypatch):
        """The manifold check against the same check sampling with
        ``scalar_sample_configuration``: the same configurations bit for
        bit, and the same count or the same error and message, on
        fixtures and on the search reports of random K5 scans, which
        fail it."""
        outcomes = []
        check = linkage._check_manifold_samples

        def scalar(L, seed):
            return scalar_sample_configuration(L.lengths, seed,
                                               linkage.SAMPLE_RESTARTS)

        def run(sampler, args):
            thetas = []

            def record(L, seed):
                thetas.append(sampler(L, seed))
                return thetas[-1]

            linkage.sample_configuration = record
            try:
                return check(*args), thetas
            except (LinkageHypothesisError, EmptyConfigurationError) as exc:
                return (type(exc), str(exc)), thetas
            finally:
                linkage.sample_configuration = sample_configuration

        def compare(*args):
            want, want_thetas = run(scalar, args)
            got, thetas = run(sample_configuration, args)
            assert got == want and len(thetas) == len(want_thetas)
            assert all(map(same_bits, thetas, want_thetas))
            outcomes.append(want)
            return check(*args)

        monkeypatch.setattr(linkage, "_check_manifold_samples", compare)
        for degree in (4, 5, 6):
            for seed in (0, 1):
                fx = build_exceptional_fixture(degree, seed=seed)
                analyze_exceptional(fx.point.operator(), fx.k, seed=seed)
        for seed in (0, 1):
            h = random_operator(complete_graph(5),
                                np.random.default_rng(seed))
            base = abs_part(h)
            for k in (2, 3):
                for r in critical_scan(h, k, starts=4, seed=0).reports:
                    if r.origin != "search":
                        continue
                    p = torus_point(base, np.array(r.coords))
                    try:
                        analyze_exceptional(p.operator(), k)
                    except (LinkageHypothesisError, AdmissibilityError,
                            VanishingEigenvectorError):
                        pass
        assert 4 in outcomes
        assert any(isinstance(o, tuple) for o in outcomes)

    def test_eigenvalue_leaving_position_k_is_named(self):
        """A manifold sample where the eigenvalue nearest lambda sits at
        another position reports that, not a shift-coefficient sign."""
        h = random_operator(complete_graph(5), np.random.default_rng(0))
        base = abs_part(h)
        for r in critical_scan(h, 2, starts=4, seed=0).reports:
            if r.origin != "search":
                continue
            p = torus_point(base, np.array(r.coords))
            try:
                analyze_exceptional(p.operator(), 2)
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


class TestCutsReadAtCallTime:
    """Each cut of the genericity test, the exceptional analysis and the
    fixture builder is one module constant, read at call time."""

    def test_manifold_sample_count(self, monkeypatch):
        fx = build_exceptional_fixture(4, seed=0)
        monkeypatch.setattr(linkage, "MANIFOLD_SAMPLES", 1)
        an = analyze_exceptional(fx.point.operator(), fx.k)
        assert an.manifold_samples_checked == 1

    def test_shift_coefficient_cut(self, monkeypatch):
        # the builder reads the cut too, so the fixture comes first
        fx = build_exceptional_fixture(3, seed=0)
        monkeypatch.setattr(linkage, "SHIFT_COEFF_TOL", 1e6)
        with pytest.raises(LinkageHypothesisError) as err:
            analyze_exceptional(fx.point.operator(), fx.k)
        assert err.value.hypothesis == 3

    def test_genericity_cut_and_cap(self, monkeypatch):
        lengths = LinkageLengths(np.array([1.0, 1.0, 1.0]))
        monkeypatch.setattr(linkage, "GENERICITY_TOL", 1.0)
        assert not is_generic(lengths)
        monkeypatch.undo()
        monkeypatch.setattr(linkage, "LENGTH_CAP", 2)
        with pytest.raises(CapExceededError, match="cap of 2"):
            is_generic(lengths)

    def test_hessian_nullity_cut(self, monkeypatch):
        """The analysis reads ``morse.RANK_TOL`` when it runs: at 1 every
        Hessian eigenvalue is a nullity, which no manifold dimension
        predicts."""
        import magnodal.morse as morse

        fx = build_exceptional_fixture(4, seed=0)
        monkeypatch.setattr(morse, "RANK_TOL", 1.0)
        with pytest.raises(InternalCrossCheckError, match="nullity"):
            analyze_exceptional(fx.point.operator(), fx.k)

    def test_sample_restarts(self, monkeypatch):
        lengths = LinkageLengths(np.array([1.0, 1.0, 1.5]))
        monkeypatch.setattr(linkage, "SAMPLE_RESTARTS", 0)
        with pytest.raises(EmptyConfigurationError,
                           match="after 0 restarts"):
            sample_configuration(lengths)

    def test_fixture_attempts(self, monkeypatch):
        monkeypatch.setattr(linkage, "FIXTURE_ATTEMPTS", 0)
        with pytest.raises(RuntimeError, match="after 0 attempts"):
            build_exceptional_fixture(3, seed=0)
