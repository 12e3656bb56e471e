import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (class_id, classes_by_enumeration, cycle_masks,
                      dense_by_fancy_index, enumerate_signings, forest_mask,
                      gauged_real, _is_number, index_of,
                      is_vertex_pair_by_any, operator_by_items, path_graph,
                      same_bits, signs_of, small_graphs)
from magnodal.errors import (
    CapExceededError,
    GraphMismatchError,
    InternalCrossCheckError,
    NotProperlySupportedError,
    SchemaError,
)
from magnodal.families import complete_minus_matching, random_connected_graph
from magnodal.graphs import (Graph, OneForm, _are_numbers, _are_vertex_pairs,
                             betti_number, num_components)
from magnodal.operators import (
    FLUX_TOL,
    GaugePhase,
    SupportedMatrix,
    abs_part,
    dense_matrices,
    gauge_classes_of_signings,
    gauge_transform,
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
    def test_dense_layout(self):
        rng = np.random.default_rng(0)
        h = random_op(k4(), rng, complex_entries=True)
        dense = h.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        assert np.array_equal(np.diag(dense).real, h.diag)
        r, s = h.graph.endpoints.T
        assert np.array_equal(dense[r, s], h.offdiag)

    def test_real_flag_is_exact(self):
        assert c3_op().is_real
        assert not c3_op(off=(-1.0, -1.0, -1.0 + 1e-300j)).is_real

    def test_real_dense_dtype(self):
        assert c3_op().to_dense().dtype == np.float64

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


class TestPhaseActions:
    def test_unit_phases_exact_at_multiples_of_pi(self):
        w = unit_phases(np.array([0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi]))
        assert np.array_equal(w, np.array([1, -1, -1, 1, -1],
                                          dtype=np.complex128))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.floats(-1e6, 1e6)
        | st.integers(-10 ** 5, 10 ** 5).map(lambda j: j * np.pi)
        | st.integers(-10 ** 5, 10 ** 5).map(
            lambda j: np.nextafter(j * np.pi, np.inf)), max_size=8))
    @example([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi, 1e-300,
              np.nextafter(np.pi, 0.0), np.nextafter(2 * np.pi, 7.0)])
    def test_exactly_real_only_at_zero_and_pi(self, values):
        """A phase is exactly real where its angle reduces to exactly 0
        or pi modulo 2 pi, and nowhere else: a torus point's operator is
        exactly real only where every coordinate sits there."""
        x = np.array(values, dtype=np.float64)
        rem = np.mod(x, 2 * np.pi)
        assert np.array_equal(unit_phases(x).imag == 0.0,
                              (rem == 0.0) | (rem == np.pi))

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

    def test_betti_cross_check(self, monkeypatch):
        import magnodal.operators as operators

        monkeypatch.setattr(operators, "betti_number", lambda g: 0)
        with pytest.raises(InternalCrossCheckError, match="Betti"):
            gauge_classes_of_signings(c3_op())

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

    def test_cap_bounds_beta(self, monkeypatch):
        import magnodal.operators as operators

        h = SupportedMatrix(k4(), np.zeros(4),
                            -np.ones(6, dtype=np.complex128))
        monkeypatch.setattr(operators, "SIGNING_CAP", 3)
        assert gauge_classes_of_signings(h).num_classes == 8
        monkeypatch.setattr(operators, "SIGNING_CAP", 2)
        with pytest.raises(CapExceededError,
                           match="over beta 3 exceeds the cap of 2"):
            gauge_classes_of_signings(h)

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
    """The flux criterion, through ``conftest.gauged_real``: an operator
    is gauge-equivalent to a real one exactly when every cycle flux of
    its entry phases is a multiple of pi."""

    def test_real_matrix_passes_with_flat_witness(self):
        out = gauged_real(c3_op())
        assert out is not None
        assert np.max(np.abs(out.offdiag.imag)) <= 1e-12

    def test_half_pi_flux_fails(self):
        h = c3_op()
        alpha = OneForm(c3(), np.array([np.pi / 2, 0.0, 0.0]))
        assert gauged_real(magnetic_action(alpha, h)) is None

    def test_distributed_pi_flux_passes(self):
        # phases pi/3 on each edge around the cycle sum to flux pi
        h = c3_op()
        basis_cycle = [1.0, -1.0, 1.0]  # orientation of edges around C3
        vals = np.array([b * np.pi / 3 for b in basis_cycle])
        flattened = gauged_real(magnetic_action(OneForm(c3(), vals), h))
        assert flattened is not None
        # witness pushes every entry to a multiple of pi within round-off
        args = np.angle(flattened.offdiag)
        rem = np.abs(args - np.pi * np.round(args / np.pi))
        assert np.max(rem) <= 1e-9

    def test_every_signing_is_symmetric(self):
        rng = np.random.default_rng(8)
        h = random_op(c3(), rng)
        for hs in enumerate_signings(abs_part(h)):
            assert gauged_real(hs) is not None

    def test_gauge_of_symmetry_stays_symmetric(self):
        rng = np.random.default_rng(9)
        h = abs_part(random_op(k4(), rng))
        theta = rng.uniform(0, 2 * np.pi, 4)
        flattened = gauged_real(gauge_transform(GaugePhase(theta), h))
        assert flattened is not None
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
        flattened = gauged_real(gauged)
        assert flattened is not None
        args = np.angle(flattened.offdiag)
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


class TestDenseAgainstFancyIndex:
    """The flat scatter of ``dense_matrices`` against the two-axis fancy
    index it replaced: the same dtype, shape and bits."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(6), st.integers(0, 4),
           st.sampled_from(["real", "complex zero imaginary", "complex"]),
           st.integers(0, 2 ** 32 - 1))
    @example(Graph(0), 3, "complex", 0)
    @example(Graph(1), 2, "real", 0)
    @example(Graph(3), 2, "complex", 0)
    @example(k4(), 0, "real", 0)
    @example(k4(), 0, "complex", 0)
    def test_same_bits(self, g, stack, kind, seed):
        rng = np.random.default_rng(seed)
        diag = rng.normal(size=g.n)
        off = rng.normal(size=(stack, g.num_edges))
        off[rng.random(off.shape) < 0.2] = -0.0
        if kind != "real":
            off = off.astype(np.complex128)
        if kind == "complex":
            off += 1j * rng.normal(size=off.shape)
        got = dense_matrices(g, diag, off)
        want = dense_by_fancy_index(g, diag, off)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert same_bits(got, want)


#: Edits of a valid operator document, each one entry's or key's worth;
#: the type edits and ``short edge`` come last.
JSON_EDITS = ("reverse", "duplicate", "duplicate reversed", "bool vertex",
              "nan", "drop key", "non-dict", "drop entry", "foreign edge",
              "shuffle", "bool number", "string number", "nested list",
              "out of range", "short diag", "short edge")


def edit_document(doc: dict, edit: str, rng) -> None:
    """Apply ``edit`` in place at positions drawn from ``rng``.  A
    document that has lost a key is left as it is.  An entry edit picks
    an entry that still has its three keys, so faults stack on one
    entry; the type edits and ``short edge`` pick a valid entry, and a
    reversal or ``bool vertex`` one whose edge is a list pair and whose
    ``im`` is a number (every whole entry, before any type edit)."""
    if len(doc) < 3:
        return
    entries = doc["offdiag"]
    whole = [j for j, item in enumerate(entries)
             if isinstance(item, dict) and len(item) == 3]
    if edit in ("reverse", "duplicate reversed", "bool vertex"):
        whole = [j for j in whole
                 if isinstance(entries[j]["edge"], list)
                 and len(entries[j]["edge"]) == 2
                 and isinstance(entries[j]["im"], (int, float))]
    elif edit in JSON_EDITS[10:]:
        whole = [j for j in whole
                 if is_vertex_pair_by_any(entries[j]["edge"])
                 and _is_number(entries[j]["re"])
                 and _is_number(entries[j]["im"])]
    i = whole[int(rng.integers(len(whole)))] if whole else None

    def reversed_entry(item):
        r, s = item["edge"]
        return {"edge": [s, r], "re": item["re"], "im": -item["im"]}

    if edit == "shuffle":
        rng.shuffle(entries)
    elif edit == "foreign edge":
        n = doc["graph"]["n"]
        entries.append({"edge": [0, n], "re": 1.0, "im": 0.0})
    elif edit == "nan":
        where = [("diag", j) for j in range(len(doc["diag"]))] + [
            (key, j) for j in whole for key in ("re", "im")]
        if where:
            key, j = where[int(rng.integers(len(where)))]
            if key == "diag":
                doc["diag"][j] = float("nan")
            else:
                entries[j][key] = float("nan")
    elif edit == "drop key":
        keys = [("doc", k) for k in ("graph", "diag", "offdiag")] + [
            ("entry", k) for k in ("edge", "re", "im") if i is not None]
        where, key = keys[int(rng.integers(len(keys)))]
        (doc if where == "doc" else entries[i]).pop(key)
    elif edit == "short diag":
        doc["diag"] = doc["diag"][:-1]
    elif edit in ("bool number", "string number", "nested list",
                  "out of range"):
        where = [("diag", j) for j in range(len(doc["diag"]))] + [
            (key, j) for j in whole for key in ("re", "im", "edge")]
        if where:
            key, j = where[int(rng.integers(len(where)))]
            box = doc["diag"] if key == "diag" else entries[j]
            at = j if key == "diag" else key
            box[at] = {"bool number": True, "string number": "1.5",
                       "nested list": [box[at]],
                       "out of range": 2 ** 1024}[edit]
    elif i is None:
        return
    elif edit == "short edge":
        entries[i]["edge"] = entries[i]["edge"][:1]
    elif edit == "reverse":
        entries[i] = reversed_entry(entries[i])
    elif edit == "duplicate":
        entries.append(dict(entries[i]))
    elif edit == "duplicate reversed":
        entries.append(reversed_entry(entries[i]))
    elif edit == "bool vertex":
        entries[i]["edge"][int(rng.integers(2))] = bool(rng.integers(2))
    elif edit == "non-dict":
        entries[i] = [entries[i]["edge"], entries[i]["re"]]
    elif edit == "drop entry":
        entries.pop(i)


def parse_outcome(parse, doc):
    """The parsed operator's graph and bits, or the error's message."""
    try:
        h = parse(copy.deepcopy(doc))
    except SchemaError as exc:
        return "SchemaError", str(exc)
    return h.graph, h.diag.tobytes(), h.offdiag.tobytes()


def malformed_base() -> dict:
    return {"graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
            "diag": [1.0, 2.0, 3.0],
            "offdiag": [{"edge": [0, 1], "re": 1.0, "im": 0.0},
                        {"edge": [0, 2], "re": -1.0, "im": 0.5},
                        {"edge": [1, 2], "re": 2.0, "im": 0.0}]}


BIG, NAN = 2 ** 1024, float("nan")

#: Malformed operator documents, each an edit of ``malformed_base()``,
#: with the message that the package printed for it before its
#: entries were validated a list at a time.
MALFORMED = [
    ('diag bool',
     lambda d: d["diag"].__setitem__(1, True),
     "'diag' must be a list of n finite numbers"),
    ('diag nan',
     lambda d: d["diag"].__setitem__(0, float("nan")),
     "'diag' must be a list of n finite numbers"),
    ('diag string',
     lambda d: d["diag"].__setitem__(2, "3.0"),
     "'diag' must be a list of n finite numbers"),
    ('diag nested',
     lambda d: d["diag"].__setitem__(0, [1.0]),
     "'diag' must be a list of n finite numbers"),
    ('diag out of range',
     lambda d: d["diag"].__setitem__(0, BIG),
     "'diag' must be a list of n finite numbers"),
    ('diag short',
     lambda d: d["diag"].pop(),
     "'diag' must be a list of n finite numbers"),
    ('graph bool vertex',
     lambda d: d["graph"]["edges"].__setitem__(1, [0, True]),
     'edge entry [0, True] is not a pair of integers'),
    ('graph nested pair',
     lambda d: d["graph"]["edges"].__setitem__(0, [[0], 1]),
     'edge entry [[0], 1] is not a pair of integers'),
    ('graph short pair',
     lambda d: d["graph"]["edges"].__setitem__(2, [1]),
     'edge entry [1] is not a pair of integers'),
    ('graph long pair',
     lambda d: d["graph"]["edges"].__setitem__(2, [1, 2, 0]),
     'edge entry [1, 2, 0] is not a pair of integers'),
    ('graph vertex out of range',
     lambda d: d["graph"]["edges"].append([0, 5]),
     'edge (0, 5) out of range for n=3'),
    ('re bool',
     lambda d: d["offdiag"][1].__setitem__("re", False),
     'entry for edge [0, 2] must have finite numeric re/im'),
    ('im nan',
     lambda d: d["offdiag"][2].__setitem__("im", float("nan")),
     'entry for edge [1, 2] must have finite numeric re/im'),
    ('re string',
     lambda d: d["offdiag"][0].__setitem__("re", "1"),
     'entry for edge [0, 1] must have finite numeric re/im'),
    ('im out of range',
     lambda d: d["offdiag"][0].__setitem__("im", -BIG),
     'entry for edge [0, 1] must have finite numeric re/im'),
    ('re nested',
     lambda d: d["offdiag"][1].__setitem__("re", [1.0]),
     'entry for edge [0, 2] must have finite numeric re/im'),
    ('edge nested',
     lambda d: d["offdiag"][1].__setitem__("edge", [[0], 2]),
     'bad edge reference [[0], 2]'),
    ('edge bool',
     lambda d: d["offdiag"][2].__setitem__("edge", [True, 2]),
     'bad edge reference [True, 2]'),
    ('edge short',
     lambda d: d["offdiag"][0].__setitem__("edge", [0]),
     'bad edge reference [0]'),
    ('edge not in graph',
     lambda d: d["offdiag"][0].__setitem__("edge", [0, 0]),
     'edge [0, 0] is not in the graph'),
    ('duplicate',
     lambda d: d["offdiag"].append(dict(d["offdiag"][0])),
     'edge [0, 1] listed twice'),
    ('duplicate reversed',
     lambda d: d["offdiag"].append({"edge": [2, 0], "re": 1.0, "im": 0.0}),
     'edge [2, 0] listed twice'),
    ('missing entry',
     lambda d: d["offdiag"].pop(1),
     'missing off-diagonal entries for edges [(0, 2)]'),
    ('non-dict entry',
     lambda d: d["offdiag"].__setitem__(1, [[0, 2], -1.0]),
     "each off-diagonal entry needs 'edge', 're', 'im'"),
    ('missing key',
     lambda d: d["offdiag"][2].pop("im"),
     "each off-diagonal entry needs 'edge', 're', 'im'"),
    ('offdiag not a list',
     lambda d: d.__setitem__("offdiag", {"edge": [0, 1]}),
     "'offdiag' must be a list"),
    ('bad number before bad edge',
     lambda d: (d["offdiag"][0].__setitem__("re", True),
                d["offdiag"][1].__setitem__("edge", [0, 9])),
     'entry for edge [0, 1] must have finite numeric re/im'),
    ('bad edge before bad number',
     lambda d: (d["offdiag"][0].__setitem__("edge", [0, 9]),
                d["offdiag"][1].__setitem__("re", True)),
     'edge [0, 9] is not in the graph'),
    ('duplicate before bad number',
     lambda d: (d["offdiag"].insert(1, dict(d["offdiag"][0])),
                d["offdiag"][2].__setitem__("im", "x")),
     'edge [0, 1] listed twice'),
    ('bad number before missing',
     lambda d: (d["offdiag"].pop(2), d["offdiag"][0].__setitem__("im", None)),
     'entry for edge [0, 1] must have finite numeric re/im'),
    ('duplicate with nan',
     lambda d: d["offdiag"].append({"edge": [0, 1], "re": NAN, "im": 0.0}),
     'edge [0, 1] listed twice'),
    ('reversed duplicate with nan',
     lambda d: d["offdiag"].append({"edge": [1, 0], "re": 1.0, "im": NAN}),
     'edge [1, 0] listed twice'),
    ('duplicate with bool vertex',
     lambda d: d["offdiag"].append({"edge": [True, 1], "re": 1.0, "im": 0.0}),
     'bad edge reference [True, 1]'),
    ('bool vertex and nan on one entry',
     lambda d: d["offdiag"][1].update(edge=[0, True], im=NAN),
     'bad edge reference [0, True]'),
    ('nan entry then its duplicate',
     lambda d: (d["offdiag"][2].__setitem__("re", NAN),
                d["offdiag"].append(dict(d["offdiag"][2]))),
     'entry for edge [1, 2] must have finite numeric re/im'),
    ('bad diag before bad entry',
     lambda d: (d["diag"].__setitem__(0, None),
                d["offdiag"].__setitem__(0, 7)),
     "'diag' must be a list of n finite numbers"),
]


@pytest.mark.parametrize("edit, message", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_documents_keep_their_messages(edit, message):
    """Bool, NaN, string, nested-list and out-of-range entries, bad and
    duplicate edges, wrong lengths, and two faults in one document: the
    first in document order names the error, word for word."""
    doc = malformed_base()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        operator_from_json(doc)
    assert str(err.value) == message


class TestOperatorJsonAgainstItems:
    """The one-pass ``operator_from_json`` against the item-by-item parse
    it replaced: the same bits, or the same ``SchemaError`` message
    (which one wins when several apply included)."""

    @settings(max_examples=400, deadline=None)
    @given(small_graphs(5), st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from(JSON_EDITS), max_size=3))
    @example(Graph(0), 0, [])
    @example(Graph(2), 0, ["drop key"])
    def test_same_outcome(self, g, seed, edits):
        rng = np.random.default_rng(seed)
        h = random_op(g, rng, complex_entries=bool(seed & 1))
        doc = json.loads(json.dumps(operator_to_json(h)))
        for edit in edits:
            edit_document(doc, edit, rng)
        assert parse_outcome(operator_from_json, doc) \
            == parse_outcome(operator_by_items, doc)

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                  st.floats(allow_nan=True), st.text(max_size=1)),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.tuples(inner, inner)),
        max_leaves=4))
    def test_vertex_pairs(self, e):
        assert _are_vertex_pairs(e) == is_vertex_pair_by_any(e)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-2, 2), st.integers(2 ** 1023, 2 ** 1025), st.booleans(),
        st.none(), st.floats(allow_nan=True), st.text(max_size=1),
        st.lists(st.integers(0, 2), max_size=3),
        st.tuples(st.integers(-1, 2), st.integers(-1, 2) | st.booleans())),
        max_size=4))
    def test_lists_of_numbers_and_pairs(self, xs):
        """One call decides a whole list as the per-entry tests did."""
        assert _are_numbers(*xs) == all(map(_is_number, xs))
        assert _are_vertex_pairs(*xs) == all(map(is_vertex_pair_by_any, xs))
