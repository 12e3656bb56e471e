import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (class_id, classes_by_enumeration, cycle_masks,
                      enumerate_signings, forest_mask, index_of, signs_of,
                      small_graphs)
from magnodal.errors import (
    CapExceededError,
    GraphMismatchError,
    NotProperlySupportedError,
    SchemaError,
)
from magnodal.families import (complete_minus_matching, path_graph,
                               random_connected_graph)
from magnodal.graphs import Graph, OneForm, betti_number, num_components
from magnodal.operators import (
    FLUX_TOL,
    GaugePhase,
    SupportedMatrix,
    abs_part,
    gauge_classes_of_signings,
    gauge_transform,
    is_gauge_equiv_to_symmetry,
    is_properly_supported,
    magnetic_action,
    operator_from_json,
    operator_to_json,
    phase_form,
    signs_for_index,
    unit_phases,
)
from magnodal.spectral import eigh


def c3():
    return Graph(3, ((0, 1), (1, 2), (0, 2)))


def k4():
    return Graph(4, tuple((r, s) for r in range(4) for s in range(r + 1, 4)))


def c3_op(diag=(0.0, 0.0, 0.0), off=(-1.0, -1.0, -1.0)):
    return SupportedMatrix(c3(), np.array(diag),
                           np.array(off, dtype=np.complex128))


def random_op(g, rng, complex_entries=False):
    diag = rng.uniform(-1.0, 1.0, size=g.n)
    off = rng.uniform(0.5, 1.5, size=g.num_edges).astype(np.complex128)
    if complex_entries:
        off = off * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=g.num_edges))
    return SupportedMatrix(g, diag, off)


class TestSupportedMatrix:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        h = random_op(k4(), rng, complex_entries=True)
        dense = h.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        back = SupportedMatrix.from_dense(k4(), dense)
        assert np.array_equal(back.diag, h.diag)
        assert np.array_equal(back.offdiag, h.offdiag)

    def test_real_flag_is_exact(self):
        assert c3_op().is_real
        assert not c3_op(off=(-1.0, -1.0, -1.0 + 1e-300j)).is_real

    def test_real_dense_dtype(self):
        assert c3_op().to_dense().dtype == np.float64

    def test_from_dense_rejects_off_support(self):
        g = Graph(3, ((0, 1), (1, 2)))
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = 1.0
        with pytest.raises(ValueError):
            SupportedMatrix.from_dense(g, m)

    def test_from_dense_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            SupportedMatrix.from_dense(Graph(2, ((0, 1),)), m)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SupportedMatrix(c3(), np.zeros(2), np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            SupportedMatrix(c3(), np.zeros(3), np.zeros(2, dtype=complex))

    def test_norm_fro_matches_dense(self):
        rng = np.random.default_rng(1)
        h = random_op(k4(), rng, complex_entries=True)
        assert h.norm_fro == pytest.approx(
            float(np.linalg.norm(h.to_dense(), "fro")), rel=1e-14)

    def test_proper_support(self):
        assert is_properly_supported(c3_op())
        assert not is_properly_supported(c3_op(off=(-1.0, 0.0, -1.0)))
        assert is_properly_supported(
            SupportedMatrix(Graph(2), np.zeros(2), np.zeros(0, dtype=complex)))


class TestPhaseActions:
    def test_unit_phases_exact_at_multiples_of_pi(self):
        w = unit_phases(np.array([0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi]))
        assert np.array_equal(w, np.array([1, -1, -1, 1, -1],
                                          dtype=np.complex128))

    def test_zero_form_is_identity(self):
        h = c3_op()
        out = magnetic_action(OneForm(c3(), np.zeros(3)), h)
        assert np.array_equal(out.offdiag, h.offdiag)

    def test_pi_form_negates(self):
        h = c3_op()
        out = magnetic_action(OneForm(c3(), np.full(3, np.pi)), h)
        assert np.array_equal(out.offdiag, -h.offdiag)
        assert out.is_real

    def test_action_composes_additively(self):
        rng = np.random.default_rng(2)
        h = random_op(c3(), rng)
        x = OneForm(c3(), rng.uniform(0, 2 * np.pi, 3))
        y = OneForm(c3(), rng.uniform(0, 2 * np.pi, 3))
        once = magnetic_action(x + y, h)
        twice = magnetic_action(x, magnetic_action(y, h))
        assert np.max(np.abs(once.offdiag - twice.offdiag)) <= 1e-12

    def test_graph_mismatch(self):
        with pytest.raises(GraphMismatchError):
            magnetic_action(OneForm(Graph(3, ((0, 1),)), [0.1]), c3_op())

    def test_gauge_transform_entrywise(self):
        rng = np.random.default_rng(3)
        h = random_op(k4(), rng, complex_entries=True)
        theta = rng.uniform(0, 2 * np.pi, 4)
        out = gauge_transform(GaugePhase(theta), h)
        for i, (r, s) in enumerate(k4().edges):
            expected = h.offdiag[i] * np.exp(1j * (theta[s] - theta[r]))
            assert abs(out.offdiag[i] - expected) <= 1e-12

    def test_gauge_transform_is_unitary_conjugation(self):
        rng = np.random.default_rng(4)
        h = random_op(k4(), rng, complex_entries=True)
        theta = rng.uniform(0, 2 * np.pi, 4)
        out = gauge_transform(GaugePhase(theta), h)
        u = np.diag(np.exp(-1j * theta))
        assert np.max(np.abs(out.to_dense()
                             - u @ h.to_dense() @ u.conj().T)) <= 1e-12

    def test_gauge_preserves_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_op(k4(), rng, complex_entries=True)
            theta = rng.uniform(0, 2 * np.pi, 4)
            a = eigh(h).values
            b = eigh(gauge_transform(GaugePhase(theta), h)).values
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, h.norm_fro)

    def test_gauge_maps_eigenvectors_by_inverse_phase(self):
        rng = np.random.default_rng(6)
        h = random_op(k4(), rng, complex_entries=True)
        theta = rng.uniform(0, 2 * np.pi, 4)
        es = eigh(h)
        es2 = eigh(gauge_transform(GaugePhase(theta), h))
        u = np.diag(np.exp(-1j * theta))
        for k in range(1, 5):
            v = u @ es.vector(k)
            w = es2.vector(k)
            # subspace comparison: phase freedom removed by projection
            overlap = abs(np.vdot(w, v))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_constant_phase_acts_trivially(self):
        h = c3_op()
        out = gauge_transform(GaugePhase(np.full(3, 1.234)), h)
        assert np.max(np.abs(out.offdiag - h.offdiag)) <= 1e-12

    def test_abs_part_and_phase_form_recover(self):
        rng = np.random.default_rng(7)
        h = random_op(c3(), rng, complex_entries=True)
        base = abs_part(h)
        assert base.is_real
        assert np.all(base.offdiag.real > 0)
        alpha = phase_form(h)
        back = magnetic_action(alpha, base)
        assert np.max(np.abs(back.offdiag - h.offdiag)) <= 1e-12

    def test_abs_part_identity_on_nonnegative(self):
        h = c3_op(off=(1.0, 2.0, 3.0))
        assert np.array_equal(abs_part(h).offdiag, h.offdiag)

    def test_phase_form_quarter_turn(self):
        h = SupportedMatrix(Graph(2, ((0, 1),)), np.zeros(2),
                            np.array([1j]))
        assert phase_form(h).values[0] == pytest.approx(np.pi / 2)

    def test_phase_form_needs_proper_support(self):
        with pytest.raises(NotProperlySupportedError):
            phase_form(c3_op(off=(0.0, -1.0, -1.0)))


class TestSignings:
    def test_single_edge_two_signings(self):
        h = SupportedMatrix(Graph(2, ((0, 1),)), np.zeros(2),
                            np.array([-1.0 + 0j]))
        signings = list(enumerate_signings(h))
        assert len(signings) == 2
        assert signings[0].offdiag[0] == -1.0
        assert signings[1].offdiag[0] == 1.0

    def test_c3_eight_signings_counter_order(self):
        h = c3_op()
        signings = list(enumerate_signings(h))
        assert len(signings) == 8
        for index, hs in enumerate(signings):
            assert np.array_equal(hs.offdiag,
                                  h.offdiag * signs_for_index(index, 3))
            assert hs.is_real

    def test_cap_refusal(self):
        g = Graph(26, tuple((0, i) for i in range(1, 26)))
        h = SupportedMatrix(g, np.zeros(26),
                            -np.ones(25, dtype=np.complex128))
        with pytest.raises(CapExceededError):
            list(enumerate_signings(h))
        # raising the cap lifts the refusal; take one element only
        assert next(iter(enumerate_signings(h, cap=25))).is_real

    def test_complex_input_rejected(self):
        h = c3_op(off=(-1.0, -1.0, 1j))
        with pytest.raises(ValueError):
            list(enumerate_signings(h))


class TestSigningClasses:
    def test_c3_two_classes_of_four(self):
        classes = gauge_classes_of_signings(c3_op())
        assert classes.num_classes == 2
        assert classes.class_size == 4
        masks = cycle_masks(c3())
        ids = [class_id(masks, index) for index in range(8)]
        assert sorted(ids) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_k4_eight_classes_of_eight(self):
        classes = gauge_classes_of_signings(
            SupportedMatrix(k4(), np.zeros(4),
                            -np.ones(6, dtype=np.complex128)))
        assert classes.num_classes == 8
        assert classes.class_size == 8

    def test_tree_single_class(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        h = SupportedMatrix(g, np.zeros(4), -np.ones(3, dtype=np.complex128))
        classes = gauge_classes_of_signings(h)
        assert classes.num_classes == 1
        assert classes.class_size == 2 ** 3

    def test_representatives_are_forest_gauge_members(self):
        classes = gauge_classes_of_signings(c3_op())
        reps = classes.rows(np.arange(classes.num_classes))
        assert reps.shape == (2, 3)
        assert reps.dtype == np.int8
        masks = cycle_masks(c3())
        for cid, rep in enumerate(reps):
            members = [signs_of(i, 3) for i in range(8)
                       if class_id(masks, i) == cid]
            assert tuple(int(x) for x in rep) in members
            assert not index_of(rep) & forest_mask(c3())

    def test_members_gauge_equivalent_to_representative(self):
        h = c3_op()
        classes = gauge_classes_of_signings(h)
        masks = cycle_masks(h.graph)
        # two signings in one class differ by a vertex sign flip, so the
        # parity over the fundamental cycle agrees; spot-check via fluxes
        for index in range(8):
            rep = classes.rows([class_id(masks, index)])[0]
            hs = SupportedMatrix(h.graph, h.diag,
                                 h.offdiag * signs_for_index(index, 3))
            hr = SupportedMatrix(h.graph, h.diag,
                                 h.offdiag * np.asarray(rep, dtype=float))
            prod_s = np.prod(np.sign(hs.offdiag.real))
            prod_r = np.prod(np.sign(hr.offdiag.real))
            assert prod_s == prod_r

    def test_cap_bounds_beta(self):
        h = SupportedMatrix(k4(), np.zeros(4),
                            -np.ones(6, dtype=np.complex128))
        assert gauge_classes_of_signings(h, cap=3).num_classes == 8
        with pytest.raises(CapExceededError,
                           match="over beta 3 exceeds the cap of 2"):
            gauge_classes_of_signings(h, cap=2)

    def test_zero_entry_classes_match_enumeration(self):
        # the classes depend on the cycle space only, not on the entries
        oracle = classes_by_enumeration(k4())
        for zero in range(6):
            off = -np.ones(6, dtype=np.complex128)
            off[zero] = 0.0
            classes = gauge_classes_of_signings(
                SupportedMatrix(k4(), np.zeros(4), off))
            assert oracle.class_ids == tuple(range(classes.num_classes))
            assert set(oracle.class_sizes) == {classes.class_size}
            assert [tuple(int(x) for x in row)
                    for row in classes.rows(range(classes.num_classes))] \
                == list(oracle.representatives)


def unit_op(g):
    return SupportedMatrix(g, np.zeros(g.n),
                           -np.ones(g.num_edges, dtype=np.complex128))


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(r + offset, s + offset) for r, s in g.edges]
        offset += g.n
    return Graph(offset, tuple(edges))


def random_graph_of_betti(beta, rng):
    """Random connected graph on the fewest vertices that carry beta."""
    n = 1
    while n * (n - 1) // 2 < n - 1 + beta:
        n += 1
    return random_connected_graph(n, n - 1 + beta, rng)


DEGENERATE_GRAPHS = {
    "two-triangles": disjoint_union(c3(), c3()),
    "k4+k3": disjoint_union(k4(), c3()),
    "triangle+path": disjoint_union(c3(), path_graph(3)),
    "tree": Graph(5, ((0, 1), (0, 2), (2, 3), (2, 4))),
    "edgeless": Graph(3, ()),
    "one-vertex": Graph(1, ()),
}


class TestClassesAgainstEnumeration:
    """Forest-gauge classes against the visit-every-signing oracle."""

    @staticmethod
    def check(g):
        classes = gauge_classes_of_signings(unit_op(g))
        oracle = classes_by_enumeration(g)
        assert oracle.class_ids == tuple(range(classes.num_classes))
        assert set(oracle.class_sizes) == {classes.class_size}
        rows = classes.rows(np.arange(classes.num_classes))
        assert rows.shape == (classes.num_classes, g.num_edges)
        assert [tuple(int(x) for x in row) for row in rows] \
            == list(oracle.representatives)

    @pytest.mark.parametrize("beta", range(11))
    def test_random_connected(self, beta):
        g = random_graph_of_betti(beta, np.random.default_rng(600 + beta))
        assert betti_number(g) == beta
        self.check(g)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_GRAPHS))
    def test_disconnected_and_degenerate(self, name):
        self.check(DEGENERATE_GRAPHS[name])

    def test_block_starting_mid_range(self):
        g = random_graph_of_betti(6, np.random.default_rng(606))
        rows = gauge_classes_of_signings(unit_op(g)).rows(np.arange(37, 53))
        assert [tuple(int(x) for x in row) for row in rows] \
            == list(classes_by_enumeration(g).representatives[37:53])

    def test_enumeration_holds_no_rows(self):
        # 2^18 rows of 25 signs would take 6.5 MB
        h = unit_op(complete_minus_matching(8, 3))
        assert h.graph.num_edges == 25 and betti_number(h.graph) == 18
        tracemalloc.start()
        try:
            classes = gauge_classes_of_signings(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes.num_classes == 2 ** 18
        assert peak < 1 << 20

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))))
    def test_property_on_small_graphs(self, spec):
        n, keep = spec
        pairs = [(r, s) for r in range(n) for s in range(r + 1, n)]
        g = Graph(n, tuple(e for e, k in zip(pairs, keep) if k))
        m, beta = g.num_edges, betti_number(g)
        classes = gauge_classes_of_signings(unit_op(g))
        assert classes.num_classes == 2 ** beta
        assert classes.class_size == 2 ** (n - num_components(g))
        masks = cycle_masks(g)
        sizes = [0] * classes.num_classes
        for index in range(1 << m):
            sizes[class_id(masks, index)] += 1
        assert sizes == [classes.class_size] * classes.num_classes
        for cid, rep in enumerate(classes.rows(range(classes.num_classes))):
            assert class_id(masks, index_of(rep)) == cid
            assert not index_of(rep) & forest_mask(g)


class TestSymmetryEquivalence:
    def test_real_matrix_passes_with_flat_witness(self):
        h = c3_op()
        ok, witness = is_gauge_equiv_to_symmetry(h)
        assert ok
        out = gauge_transform(witness, h)
        assert np.max(np.abs(out.offdiag.imag)) <= 1e-12

    def test_half_pi_flux_fails(self):
        h = c3_op()
        alpha = OneForm(c3(), np.array([np.pi / 2, 0.0, 0.0]))
        ok, witness = is_gauge_equiv_to_symmetry(magnetic_action(alpha, h))
        assert not ok and witness is None

    def test_distributed_pi_flux_passes(self):
        # phases pi/3 on each edge around the cycle sum to flux pi
        h = c3_op()
        basis_cycle = [1.0, -1.0, 1.0]  # orientation of edges around C3
        vals = np.array([b * np.pi / 3 for b in basis_cycle])
        hh = magnetic_action(OneForm(c3(), vals), h)
        ok, witness = is_gauge_equiv_to_symmetry(hh)
        assert ok
        flattened = gauge_transform(witness, hh)
        # witness pushes every entry to a multiple of pi within round-off
        args = np.angle(flattened.offdiag)
        rem = np.abs(args - np.pi * np.round(args / np.pi))
        assert np.max(rem) <= 1e-9

    def test_every_signing_is_symmetric(self):
        rng = np.random.default_rng(8)
        h = random_op(c3(), rng)
        for hs in enumerate_signings(abs_part(h)):
            ok, _ = is_gauge_equiv_to_symmetry(hs)
            assert ok

    def test_gauge_of_symmetry_stays_symmetric(self):
        rng = np.random.default_rng(9)
        h = abs_part(random_op(k4(), rng))
        theta = rng.uniform(0, 2 * np.pi, 4)
        ok, witness = is_gauge_equiv_to_symmetry(
            gauge_transform(GaugePhase(theta), h))
        assert ok
        flattened = gauge_transform(
            witness, gauge_transform(GaugePhase(theta), h))
        args = np.angle(flattened.offdiag)
        rem = np.abs(args - np.pi * np.round(args / np.pi))
        assert np.max(rem) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9), st.integers(0, 2 ** 32 - 1))
    def test_witness_makes_gauged_signings_real(self, g, seed):
        rng = np.random.default_rng(seed)
        h = random_op(g, rng)
        signed = SupportedMatrix(g, h.diag, h.offdiag * rng.choice(
            [-1.0, 1.0], size=g.num_edges))
        gauged = gauge_transform(
            GaugePhase(rng.uniform(0, 2 * np.pi, g.n)), signed)
        ok, witness = is_gauge_equiv_to_symmetry(gauged)
        assert ok
        args = np.angle(gauge_transform(witness, gauged).offdiag)
        assert np.all(np.abs(args - np.pi * np.round(args / np.pi))
                      <= FLUX_TOL)


class TestOperatorJson:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        h = random_op(k4(), rng, complex_entries=True)
        back = operator_from_json(operator_to_json(h))
        assert back.graph == h.graph
        assert np.array_equal(back.diag, h.diag)
        assert np.array_equal(back.offdiag, h.offdiag)

    def test_reversed_edge_conjugates(self):
        doc = {
            "graph": {"n": 2, "edges": [[0, 1]]},
            "diag": [0.0, 0.0],
            "offdiag": [{"edge": [1, 0], "re": 0.0, "im": 1.0}],
        }
        h = operator_from_json(doc)
        # stored value is h_01; the file gave h_10 = i so h_01 = -i
        assert h.offdiag[0] == -1j

    def test_schema_errors(self):
        good = operator_to_json(c3_op())
        for mutate in (
                lambda d: d.pop("diag"),
                lambda d: d.pop("offdiag"),
                lambda d: d["offdiag"].pop(),
                lambda d: d["offdiag"].append(dict(d["offdiag"][0])),
                lambda d: d["diag"].append(1.0),
                lambda d: d["offdiag"][0].pop("re"),
                lambda d: d["offdiag"][0].__setitem__("re", True),
                lambda d: d["offdiag"][0].__setitem__("edge", [0, 9]),
        ):
            doc = operator_to_json(c3_op())
            mutate(doc)
            with pytest.raises(SchemaError):
                operator_from_json(doc)
        operator_from_json(good)
