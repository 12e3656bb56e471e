"""Shared pytest plumbing.

The acceptance suite records one verdict per criterion; the terminal
summary hook prints them as stable one-per-line output at the end of
the run, whether or not output capture is active.

``path_graph``, ``star_graph``, ``two_triangle_join`` and
``degenerate_ring_fixture`` are test fixtures that no command builds:
the path and the star, the two triangles sharing a vertex with a
splitting double eigenvalue, and the even ring with a non-splitting
one.  ``gauged_real`` is the flux-criterion oracle: from
``phase_form``, ``flux_defects`` and ``gauge_transform`` it gauges an
operator real when every cycle flux is a multiple of pi, and gives
None otherwise.

``classes_by_enumeration`` is the switching-class oracle: it visits
every one of the ``2^|E|`` signings and groups them by cycle parities,
so it stays independent of the forest-gauge rows that
``gauge_classes_of_signings`` builds from the class ids.
``enumerate_signings`` streams those signings as matrices, and
``eigenvalue_at``, ``gradient_fd`` and ``hessian_eigenvalue_fd`` are
the finite-difference oracles for the analytic Morse derivatives, and
``frozen_form_indices`` gives the two block indices of the
frozen-eigenvector form, the nodal count and ``k - 1``, from
``np.linalg.eigh``.
``cycle_basis_by_lca`` is the fundamental-cycle oracle: it walks each
cycle through the lowest common ancestor, independent of the root
paths in ``graphs``.  ``cycle_basis_by_loop`` builds the same cycles
from the root paths one at a time, each checked by ``boundary``, the
vertex boundary summed edge by edge, against which the array build of
``SpanningForest.coeffs`` must agree bit for bit, and
``lose_a_root_path`` plants the fault that its boundary check must
catch, through the forest's root paths.  Each of the three cycle
builders returns the non-forest positions and the coefficient array.
``cycle_builds`` and ``forests_walked`` record the forests whose
cycles are built and the forests walked, for the tests that pin which
commands build the cycles.
``root_paths`` is the root-path oracle: each vertex's path follows its
parent's, in any order of the parent array, against which the forest's
paths must agree.
``custom_forest`` is a spanning forest other than the walk's, its
non-forest positions found by set difference and its order by depth,
and ``cycle_basis_from_forest`` builds its cycles.
``complex_products`` is the complex product oracle: on real entries
and vectors, the real products of ``nodal.edge_products`` must give
the same checks.
``multiplicity_by_walk`` is the degeneracy oracle: it grows the cluster
of the k-th eigenvalue one neighbour at a time, against which
``spectral.cluster_mask`` and ``multiplicity`` must agree.
``scalar_polish`` is the Newton oracle: one start at a time, one
``complex_eigh`` per trial point (the complex path, as the polish
solves every trial), against which the lockstep ``morse._polish``
must agree bit for bit, on each start's outcome and on the row of its
solve stack that a converged start ends on.  ``scalar_report`` is the
report oracle: one point at a time, one Hessian and one
``scalar_morse_index`` per point, against which the stacked
``morse._reports_at`` must agree bit for bit.
``scalar_transverse`` is the transversality oracle: one dense unit
matrix per direction and one product per unit, against which
``is_transverse_at`` must agree bit for bit on its singular values,
ranks and witness.  ``scalar_sample_configuration`` is the linkage
sampler oracle, solving each Newton step with ``np.linalg.lstsq``.
``scalar_is_generic`` visits the signed length sums one at a time, and
``recursive_dumps`` is the serializer that recurses once per leaf.
``pseudo_inverse_apply``, ``cycle_basis_from_forest`` and
``projects_surjectively`` are references that the package has no
caller for: one pseudo-inverse column of the Hessian assembly, the
cycle basis over another spanning forest, and the edge projection
criterion for a multiplicity-2 eigenspace.  ``torus_point`` places a
``TorusPoint`` at gauge-slice coordinates and ``conjugate_point``
conjugates it; the oracles decide vanishing entries and Morse indices
at cuts of their own, ``vanishing_entries`` and
``scalar_morse_index``.  ``kernel_tolerances``
turns an oracle's keyword tolerances into the library's: the
degeneracy and vanishing cuts stay keywords, and the product cut is
patched into ``nodal``'s constant while its block runs.
``take_along_axis_phases`` is the phase normalization that gathers its
pivots with ``np.take_along_axis``, the pivot oracle of
``spectral._normalize_phases``.
``simple_eigen``, ``scalar_count``, ``scalar_nodal_count``,
``signing_histogram`` and ``scalar_classify`` (the kind of a critical
point, which ``morse._kinds`` must give) are the admissibility
oracle: the scalar checks, one operator and one eigenvalue position at
a time, each with its own comparison, that the package ran before its
one stacked kernel, ``nodal._stack_checks``, except that a count
outside the bounds on a disconnected graph is inadmissible instead of
passing.  The kernel must agree with them on every outcome, error type,
message and attribute.
``last_axis_products`` and ``reduction_checks`` are the layout oracle:
the edge products gathered along the last axis, and the kernel's masks
reduced along their last axis with ``any`` and ``np.count_nonzero``, as
the kernel ran before its vertex- and edge-major layout, with the
simplicity test (``simple_by_gaps``: every modulus and every gap's
``abs``) and the verdicts (the bound as two comparisons, ``failed``
through ``inadmissible``) that it ran before its leaner pass.  Its
fields, verdicts and errors must agree with them bit for bit.
``avg_dist_tail`` is the moments oracle: ``cli.cmd_avg_dist``'s
formulas from a histogram to its stderr line and payload, as the
command ran them before it read the counts once as a list.
``dense_by_fancy_index``, ``operator_by_items`` and
``nonforest_by_set_difference`` are the set-up oracles, each the
version the package ran before its one-pass rewrite: the dense stack
filled through two-axis fancy indices, the operator document parsed
one numpy item assignment per entry, and the non-forest positions as
the edges the forest leaves out.  ``dense_matrices``,
``operator_from_json`` (the same bits or the same ``SchemaError``
message) and ``SpanningForest.nonforest`` must agree with them.
``referee_nodal`` is the 50-digit referee: ``mpmath.eigsy`` on the
operator's own float entries, carried at 50 significant digits, gives
the eigenvalues, eigenvectors, edge-product signs and surplus at every
k, independent of LAPACK and of the package's kernel.
"""

import contextlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator
from unittest import mock

import mpmath
import numpy as np
from hypothesis import strategies as st

from magnodal.errors import (AdmissibilityError, CapExceededError,
                             DegenerateEdgeProductError,
                             EdgeProductNotRealError, EmptyConfigurationError,
                             InadmissibleSigningError,
                             InternalCrossCheckError, NonSimpleEigenvalueError,
                             VanishingEigenvectorError)
import magnodal.graphs as graphs
import magnodal.nodal as nodal
from magnodal.errors import SchemaError
from magnodal.families import _locate_cluster, cycle_graph
from magnodal.graphs import (Graph, betti_number, graph_from_json,
                             num_components)
from magnodal.linkage import GENERICITY_TOL, LENGTH_CAP
from magnodal.morse import (RANK_TOL, TWO_PI, CriticalPointReport,
                            TorusPoint, _check_symmetry, _hessian)
from magnodal.nodal import (PRODUCT_DEGENERATE_TOL, PRODUCT_REAL_TOL, _Solves,
                            _StackChecks, edge_products)
from magnodal.operators import (FLUX_TOL, GaugePhase, SupportedMatrix,
                                flux_defects, gauge_transform, phase_form,
                                signs_for_index)
from magnodal.serialize import _escape, format_float
from magnodal.spectral import (DEGENERACY_TOL, VANISH_TOL, EigenSystem,
                               cluster_mask, eigh, multiplicity)
from magnodal.transversality import (TRANSVERSALITY_RANK_TOL,
                                     EigenspaceBasis, TransversalityReport,
                                     codim_stratum, eigenspace_basis)

ACCEPTANCE_RESULTS: list[tuple[int, str, str, str]] = []


def record_criterion(number: int, name: str, verdict: str, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, name, verdict, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number, name, verdict, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {number:02d} {name}: {verdict}"
        if detail:
            line += f"  ({detail})"
        tr.write_line(line)


def small_graphs(max_n: int):
    """Hypothesis strategy: any graph on at most ``max_n`` vertices."""
    def on(n):
        pairs = [(r, s) for r in range(n) for s in range(r + 1, n)]
        return st.lists(st.booleans(), min_size=len(pairs),
                        max_size=len(pairs)).map(
            lambda keep: Graph(n, tuple(e for e, k in zip(pairs, keep) if k)))
    return st.integers(0, max_n).flatmap(on)


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i + 1) for i in range(leaves)))


def zero_bar_operator() -> tuple[SupportedMatrix, int]:
    """A K5 operator and k whose k-th eigenvector vanishes at vertex 0,
    of degree 4, with a zero entry on the edge (0, 4).

    The reduced block on vertices 1..4 is real with unit negative
    couplings, and its bottom eigenvector ``w`` is positive.  The entries
    ``exp(2 pi i u / 3) / w_u`` for u = 1, 2, 3 make three bars that
    close, so ``(0, w)`` is an eigenvector, at position 1.
    """
    g = Graph(5, tuple((r, s) for r in range(5) for s in range(r + 1, 5)))
    d = np.array([0.1, 0.2, 0.3, 0.4])
    w = np.abs(np.linalg.eigh(np.diag(d) + np.eye(4) - 1.0)[1][:, 0])
    off = np.full(g.num_edges, -1.0 + 0j)  # the edges (0, u) come first
    off[:3] = np.exp(2j * np.pi * np.arange(1, 4) / 3) / w[:3]
    off[3] = 0.0
    return SupportedMatrix(g, np.concatenate([[0.5], d]), off), 1


def two_triangle_join() -> tuple[SupportedMatrix, int]:
    """Two triangles sharing a vertex, with a splitting double eigenvalue.

    The negated adjacency matrix has a multiplicity-2 eigenvalue whose
    eigenvectors live one per triangle and vanish at the shared vertex,
    so their supports are edge-separated and the family fails to be
    transverse there.  Returns the operator and the first index of the
    cluster.
    """
    g = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)))
    h = SupportedMatrix(g, np.zeros(5),
                        -np.ones(g.num_edges, dtype=np.complex128))
    return h, _locate_cluster(h, eigh(h), expected=1.0, expected_dim=2)


def degenerate_ring_fixture(n: int = 4) -> tuple[SupportedMatrix, int]:
    """Even ring with a non-splitting double eigenvalue.

    The negated adjacency matrix of an even cycle has doubly degenerate
    interior eigenvalues whose eigenspace is supported everywhere, so
    the support stays connected and transversality holds.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("the construction needs an even ring of length >= 4")
    g = cycle_graph(n)
    h = SupportedMatrix(g, np.zeros(n),
                        -np.ones(n, dtype=np.complex128))
    es = eigh(h)
    interior = [j for j in range(1, n)
                if abs(es.values[j] - es.values[j - 1]) < 1e-9]
    k = interior[0]
    m, k0 = multiplicity(es, k, 1e-8)
    if m != 2 or k0 != k:
        raise InternalCrossCheckError(
            f"ring eigenvalue {k} has multiplicity {m} starting at {k0}, "
            f"expected a double eigenvalue starting at {k}")
    return h, k


def gauged_real(h: SupportedMatrix) -> SupportedMatrix | None:
    """``h`` under a vertex-phase action that makes it real, up to the
    flux residues, or None when some cycle flux of its entry phases is
    off a multiple of pi by more than ``FLUX_TOL``.  The witness undoes
    each phase's offset from the nearest multiple of pi along the
    forest's root paths, so every forest edge cancels."""
    alpha = phase_form(h).values
    if flux_defects(h.graph, alpha[None])[0] > FLUX_TOL:
        return None
    reduced = alpha - np.pi * np.round(alpha / np.pi)
    return gauge_transform(
        GaugePhase(-(h.graph.spanning_forest.up @ reduced)), h)


def cycle_masks(g: Graph) -> list[int]:
    """Edge bitmask of each fundamental cycle of the spanning forest."""
    return [sum(1 << int(i) for i in np.flatnonzero(row))
            for row in g.spanning_forest.coeffs]


def class_id(masks: list[int], index: int) -> int:
    """Class of enumeration index ``index`` (bit i flips edge i).

    Bit j is the parity of the flipped edges on cycle j.
    """
    return sum(((index & mask).bit_count() & 1) << j
               for j, mask in enumerate(masks))


def signs_of(index: int, num_edges: int) -> tuple[int, ...]:
    """Sign tuple of enumeration index ``index``."""
    return tuple(-1 if (index >> i) & 1 else 1 for i in range(num_edges))


def index_of(signs) -> int:
    """Enumeration index of a sign row: the inverse of ``signs_of``."""
    return sum(1 << i for i, s in enumerate(signs) if s < 0)


@dataclass(frozen=True)
class EnumeratedClasses:
    class_of: list[int]
    class_ids: tuple[int, ...]
    class_sizes: tuple[int, ...]
    representatives: tuple[tuple[int, ...], ...]


def forest_mask(g: Graph) -> int:
    """Edge bitmask of the graph's spanning forest."""
    return sum(1 << g.edge_index[e] for e in g.spanning_forest.edges)


def classes_by_enumeration(g: Graph) -> EnumeratedClasses:
    """Switching classes of the signings of ``g`` by visiting all of them.

    Returns the class of every enumeration index, the sorted class ids,
    their sizes, and per class the sign tuple of its one member whose
    forest edges are all +1.
    """
    masks = cycle_masks(g)
    forest = forest_mask(g)
    class_of = []
    reps: dict[int, tuple[int, ...]] = {}
    sizes: dict[int, int] = {}
    for index in range(1 << g.num_edges):
        cid = class_id(masks, index)
        class_of.append(cid)
        sizes[cid] = sizes.get(cid, 0) + 1
        if not index & forest:
            assert cid not in reps, "two forest-gauge members in one class"
            reps[cid] = signs_of(index, g.num_edges)
    ids = tuple(sorted(sizes))
    return EnumeratedClasses(class_of, ids, tuple(sizes[c] for c in ids),
                             tuple(reps[c] for c in ids))


def enumerate_signings(h: SupportedMatrix, cap: int = 20
                       ) -> Iterator[SupportedMatrix]:
    """Stream all sign patterns applied to a real matrix.

    Yields ``2**|E|`` matrices in binary-counter order over the
    canonical edge order (edge 0 is the least significant bit).  Refuses
    graphs with more than ``cap`` edges instead of attempting the
    enumeration.
    """
    if not h.is_real:
        raise ValueError("signing enumeration is defined for real matrices")
    m = h.graph.num_edges
    if m > cap:
        raise CapExceededError(
            f"signing enumeration over {m} edges exceeds the cap of {cap}; "
            f"raise the cap explicitly to proceed")
    for index in range(1 << m):
        yield SupportedMatrix(h.graph, h.diag,
                              h.offdiag * signs_for_index(index, m))


def eigenvalue_at(p: TorusPoint, k: int) -> float:
    return eigh(p.operator()).value(k)


def gradient_fd(p: TorusPoint, k: int, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient over every edge angle, for checking."""
    out = np.empty(p.graph.num_edges)
    for i in range(p.graph.num_edges):
        delta = np.zeros(p.graph.num_edges)
        delta[i] = step
        up = TorusPoint(p.base, p.angles + delta)
        dn = TorusPoint(p.base, p.angles - delta)
        out[i] = (eigenvalue_at(up, k) - eigenvalue_at(dn, k)) / (2.0 * step)
    return out


def hessian_eigenvalue_fd(p: TorusPoint, k: int, *,
                          step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian over the gauge-slice coordinates."""
    idx = p.graph.spanning_forest.nonforest
    dim = len(idx)

    def value(offsets: np.ndarray) -> float:
        delta = np.zeros(p.graph.num_edges)
        delta[idx] = offsets
        return eigenvalue_at(TorusPoint(p.base, p.angles + delta), k)

    H = np.empty((dim, dim))
    f0 = value(np.zeros(dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        H[i, i] = (value(ei) - 2.0 * f0 + value(-ei)) / step ** 2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = step
            H[i, j] = H[j, i] = (
                value(ei + ej) - value(ei - ej) - value(-ei + ej)
                + value(-ei - ej)) / (4.0 * step ** 2)
    return H


def frozen_form_indices(h: SupportedMatrix, k: int) -> tuple[int, int]:
    """Indices of the two Hessian blocks of the frozen-eigenvector form
    of ``h`` at its k-th eigenpair, from ``np.linalg.eigh``: the negative
    entries of the diagonal edge block ``-2 Re(conj(v_r) h_rs v_s)``, and
    the negative eigenvalues, beyond ``RANK_TOL`` times the largest
    modulus, of the vertex-phase block ``2 Re(conj(v) (h - lambda) v)``."""
    dense = h.to_dense()
    values, vectors = np.linalg.eigh(dense)
    v = vectors[:, k - 1]
    shifted = dense - values[k - 1] * np.eye(h.graph.n)
    block = np.conj(v)[:, None] * shifted * v[None, :]
    r, s = h.graph.endpoints.T
    w = np.linalg.eigvalsh(2.0 * block.real)
    return (int(np.count_nonzero(-2.0 * block[r, s].real < 0.0)),
            int(np.count_nonzero(w < -RANK_TOL * np.max(np.abs(w)))))


def cycle_basis_by_lca(g: Graph, forest, parent
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental cycles over a forest, each walked edge by edge.

    The cycle of a non-forest edge ``(r, s)`` steps from ``r`` to ``s``,
    up the tree from ``s`` to the lowest common ancestor of ``r`` and
    ``s``, and down from there to ``r``.
    """
    forest_set = set(forest)
    nonforest = tuple(e for e in g.edges if e not in forest_set)

    def path_up(v: int) -> list[int]:
        path = [v]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path

    cycles = []
    for (r, s) in nonforest:
        up_r = path_up(r)
        up_s = path_up(s)
        in_r = {v: i for i, v in enumerate(up_r)}
        j = 0
        while up_s[j] not in in_r:
            j += 1
        lca = up_s[j]
        coeffs = np.zeros(g.num_edges, dtype=np.int64)

        def add_step(a: int, b: int) -> None:
            coeffs[g.edge_index[min(a, b), max(a, b)]] += 1 if a < b else -1

        add_step(r, s)
        v = s
        while v != lca:
            add_step(v, parent[v])
            v = parent[v]
        down = []
        v = r
        while v != lca:
            down.append(v)
            v = parent[v]
        for v in reversed(down):
            add_step(parent[v], v)
        cycles.append(coeffs)
    return basis_arrays(g, nonforest, cycles)


def cycle_basis_by_loop(g: Graph, forest, up
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental cycles ``e_rs + up[r] - up[s]`` over the root paths
    ``up``, one non-forest edge ``(r, s)`` at a time, each checked by
    ``boundary``."""
    forest_set = set(forest)
    nonforest = tuple(e for e in g.edges if e not in forest_set)
    cycles = []
    for (r, s) in nonforest:
        coeffs = up[r] - up[s]
        coeffs[g.edge_index[r, s]] += 1
        if np.any(boundary(g, coeffs)):
            raise InternalCrossCheckError(
                "fundamental cycle has nonzero boundary")
        cycles.append(coeffs)
    return basis_arrays(g, nonforest, cycles)


def basis_arrays(g: Graph, nonforest, cycles
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The canonical positions of the edges ``nonforest`` and the
    cycles as one int64 array (beta, |E|)."""
    return (np.array([g.edge_index[e] for e in nonforest], dtype=np.int64),
            np.array(cycles, dtype=np.int64).reshape(len(nonforest),
                                                     g.num_edges))


def boundary(g: Graph, coeffs) -> np.ndarray:
    """Vertex boundary of the edge chain ``coeffs``, summed edge by
    edge; zero exactly on cycles."""
    out = np.zeros(g.n, dtype=np.int64)
    for coeff, (r, s) in zip(coeffs, g.edges):
        out[s] += coeff
        out[r] -= coeff
    return out


def lose_a_root_path(monkeypatch) -> None:
    """Make every spanning forest read from now on forget the root path
    of its last vertex, so a cycle through that vertex has a
    boundary."""
    original = graphs.SpanningForest.up.func

    def wrong(forest):
        up = original(forest).copy()
        up[-1] = 0
        return up

    monkeypatch.setattr(graphs.SpanningForest, "up", property(wrong))


def cycle_builds(monkeypatch) -> list:
    """Record every spanning forest whose ``coeffs`` are built from now
    on, once per build."""
    original = graphs.SpanningForest.coeffs.func
    built = []

    def counting(forest):
        built.append(forest)
        return original(forest)

    coeffs = cached_property(counting)
    coeffs.__set_name__(graphs.SpanningForest, "coeffs")
    monkeypatch.setattr(graphs.SpanningForest, "coeffs", coeffs)
    return built


def forests_walked(monkeypatch) -> list:
    """Record every spanning forest that a graph walks from now on."""
    original = graphs._bfs_walk
    walked = []

    def recording(g):
        walked.append(original(g))
        return walked[-1]

    monkeypatch.setattr(graphs, "_bfs_walk", recording)
    return walked


def complex_products(graph: Graph, offdiag: np.ndarray,
                     vectors: np.ndarray) -> np.ndarray:
    """``nodal.edge_products`` with the entries and vectors cast to
    complex first, so the products are formed in complex arithmetic."""
    r, s = graph.endpoints.T
    v = vectors.astype(np.complex128)
    return np.conj(v[..., r]) * offdiag.astype(np.complex128) * v[..., s]


def last_axis_products(graph: Graph, offdiag: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
    """``nodal.edge_products`` as it gathered before it moved the vertex
    axis first: the vertex axis indexed last, in the layout that the
    strides of ``v`` give."""
    rs = graph.endpoints
    head = v[..., rs[:, 0]]
    if np.iscomplexobj(head):
        head = np.conj(head)
    return head * offdiag * v[..., rs[:, 1]]


def simple_by_gaps(values: np.ndarray, tol_rel: float) -> np.ndarray:
    """``spectral.simple_positions`` as it decided before: the cut from
    the largest modulus of the whole row, and each neighbour gap's
    ``abs`` against it, masked into a row of ones on both sides."""
    tol = tol_rel * np.maximum(1.0, np.abs(values).max(axis=-1, initial=0.0))
    apart = ~(np.abs(values[..., 1:] - values[..., :-1]) <= tol[..., None])
    simple = np.ones(values.shape, dtype=bool)
    simple[..., 1:] &= apart
    simple[..., :-1] &= apart
    return simple


@dataclass(eq=False)
class ReducedChecks(_StackChecks):
    """``nodal._StackChecks`` with its verdicts as it formed them before:
    the bound as two comparisons, masked into ``inadmissible`` on every
    graph, and ``failed`` as the inadmissible or out-of-bounds pairs."""

    @cached_property
    def unbounded(self) -> np.ndarray:
        return (self.surplus < 0) | (self.surplus > self.beta)

    @cached_property
    def inadmissible(self) -> np.ndarray:
        return (~self.simple | self.vanishing.any(axis=2) | ~self.flat
                | self.unresolved.any(axis=2)
                | self.unbounded & (num_components(self.graph) > 1))

    @property
    def failed(self) -> np.ndarray:
        return self.inadmissible | self.out_of_bounds


def reduction_checks(values, vectors, products, scale, graph: Graph, *,
                     tol_degeneracy: float = DEGENERACY_TOL,
                     tol_vanish: float = VANISH_TOL,
                     tol_real: float = PRODUCT_REAL_TOL,
                     tol_product: float = PRODUCT_DEGENERATE_TOL
                     ) -> ReducedChecks:
    """``nodal._stack_checks`` on the last-axis layout of
    ``last_axis_products``, where ``any`` and ``np.count_nonzero``
    reduce the masks along short rows; the kernel cuts and counts the
    same way, so what this holds it to is its layout and verdicts."""
    scale = np.asarray(scale, dtype=np.float64)[..., None, None]
    flat = (~(np.abs(products.imag) > tol_real * scale).any(axis=2)
            if np.iscomplexobj(products)
            else np.ones(products.shape[:2], dtype=bool))
    return ReducedChecks(
        values, products, graph, betti_number(graph), tol_degeneracy,
        tol_real, simple_by_gaps(values, tol_degeneracy),
        np.abs(vectors) < tol_vanish,
        flat,
        np.abs(products.real) < tol_product * scale,
        np.count_nonzero(products.real > 0.0, axis=2)
        - np.arange(values.shape[1]))


def avg_dist_tail(dist, n_vertices: int, skip: bool
                  ) -> tuple[str, dict, list[list]]:
    """The stderr line, payload and CSV rows of ``avg-dist`` for the
    histogram ``dist`` of an operator on ``n_vertices`` vertices, by
    the formulas ``cli.cmd_avg_dist`` ran before it read the counts once
    as a list: the moments from the exact ratios through ``np.dot`` and
    the binomial L1 distance through ``np.sum``."""
    beta = dist.betti
    symmetric = bool(np.all(dist.counts == dist.counts[::-1]))
    if dist.n_samples == 0:
        probs = [None] * (beta + 1)
        mean = variance = deviation = None
        reason = ("no eigenvalue positions (the graph has no vertices)"
                  if n_vertices == 0 else
                  f"no admissible signings ({dist.skipped} skipped)")
        line = f"{reason}; moments undefined"
    else:
        binom = np.array([math.comb(beta, s) for s in range(beta + 1)],
                         dtype=np.float64) / float(2 ** beta)
        p = dist.counts / float(dist.n_samples)
        s = np.arange(beta + 1)
        mean = float(np.dot(s, p))
        variance = float(np.dot((s - mean) ** 2, p))
        probs = p.tolist()
        deviation = float(np.sum(np.abs(p - binom)))
        line = (f"mean {mean:.12g}  variance {variance:.12g}  "
                f"symmetric {symmetric}  binomial L1 {deviation:.3e}")
    payload = {
        "betti": beta,
        "counts": dist.counts.tolist(),
        "n_samples": dist.n_samples,
        "skipped_signings": dist.skipped,
        "mean": mean,
        "variance": variance,
        "symmetric_counts": symmetric,
        "binomial_l1_deviation": deviation,
        "averaged_over": ("admissible signings only" if skip
                          else "all signings"),
    }
    return line, payload, [[s, int(dist.counts[s]), probs[s]]
                           for s in range(beta + 1)]


def pseudo_inverse_apply(h: SupportedMatrix, lam: float, x: np.ndarray,
                         es: EigenSystem | None = None) -> np.ndarray:
    """The spectral pseudo-inverse of ``h - lam I`` applied to ``x``:
    the eigenvalues in the cluster at ``lam`` are left out, so the
    result is orthogonal to the eigenspace there."""
    es = eigh(h) if es is None else es
    keep = ~cluster_mask(es.values, lam, DEGENERACY_TOL)
    coeffs = es.vectors.conj().T @ x
    scaled = np.zeros_like(coeffs)
    scaled[keep] = coeffs[keep] / (es.values[keep] - lam)
    return es.vectors @ scaled


def root_paths(g: Graph, parent) -> np.ndarray:
    """Root path of every vertex of the forest ``parent`` (-1 at roots),
    each vertex after its parent in any order of the parent array."""
    up = np.zeros((g.n, g.num_edges), dtype=np.int64)
    done = [p == -1 for p in parent]
    for v in range(g.n):
        path = []
        while not done[v]:
            path.append(v)
            v = parent[v]
        for w in reversed(path):
            u = parent[w]
            up[w] = up[u]
            up[w, g.edge_index[min(u, w), max(u, w)]] += 1 if u < w else -1
            done[w] = True
    return up


def custom_forest(g: Graph, forest, parent) -> graphs.SpanningForest:
    """The spanning forest of ``g`` with the edges ``forest`` and the
    parent array ``parent``, in place of the walk's."""
    return graphs.SpanningForest(g, tuple(forest), tuple(parent),
                                 by_depth(parent),
                                 nonforest_by_set_difference(g, forest))


def cycle_basis_from_forest(g: Graph, forest, parent
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The non-forest positions and the array build of the fundamental
    cycles of ``g`` over the spanning forest ``forest`` with the parent
    array ``parent``."""
    other = custom_forest(g, forest, parent)
    return other.nonforest, other.coeffs


def by_depth(parent) -> tuple[int, ...]:
    """The vertices of the forest ``parent`` (-1 at roots), roots first
    and each after its parent."""
    def depth(v):
        d = 0
        while parent[v] != -1:
            v, d = parent[v], d + 1
        return d

    return tuple(sorted(range(len(parent)), key=depth))


def nonforest_by_set_difference(g: Graph, forest) -> np.ndarray:
    """Canonical positions of the edges that the spanning forest with
    the edges ``forest`` leaves out."""
    forest_set = set(forest)
    return np.flatnonzero([e not in forest_set for e in g.edges])


def dense_by_fancy_index(graph: Graph, diag: np.ndarray,
                         offdiag: np.ndarray) -> np.ndarray:
    """``operators.dense_matrices`` filled through ``(row, col)`` index
    pairs on an ``(S, n, n)`` stack."""
    real = not offdiag.imag.any()
    n = graph.n
    rs = graph.endpoints
    dense = np.zeros((len(offdiag), n, n),
                     dtype=np.float64 if real else np.complex128)
    dense[:, np.arange(n), np.arange(n)] = diag
    upper = offdiag.real if real else offdiag
    dense[:, rs[:, 0], rs[:, 1]] = upper
    dense[:, rs[:, 1], rs[:, 0]] = upper if real else np.conj(offdiag)
    return dense


def is_vertex_pair_by_any(e) -> bool:
    """``graphs._is_vertex_pair`` with one generator over both ends."""
    return (isinstance(e, (list, tuple)) and len(e) == 2
            and not any(isinstance(x, bool) or not isinstance(x, int)
                        for x in e))


def _is_number(x) -> bool:
    """``graphs._are_numbers`` of one value, as the package tested each
    entry before: a finite JSON number that fits a float."""
    return (type(x) is not bool and isinstance(x, (int, float))
            and -sys.float_info.max <= x <= sys.float_info.max)


def operator_by_items(obj) -> SupportedMatrix:
    """``operators.operator_from_json`` with one numpy item assignment
    per entry, a set of canonical pairs for the entries seen, and a
    membership test before each edge lookup."""
    if not isinstance(obj, dict):
        raise SchemaError("operator document must be a JSON object")
    for key in ("graph", "diag", "offdiag"):
        if key not in obj:
            raise SchemaError(f"operator document needs key '{key}'")
    g = graph_from_json(obj["graph"])
    diag = obj["diag"]
    if (not isinstance(diag, list) or len(diag) != g.n
            or not all(_is_number(x) for x in diag)):
        raise SchemaError("'diag' must be a list of n finite numbers")
    entries = obj["offdiag"]
    if not isinstance(entries, list):
        raise SchemaError("'offdiag' must be a list")
    off = np.zeros(g.num_edges, dtype=np.complex128)
    seen = set()
    for item in entries:
        if not isinstance(item, dict) or not {"edge", "re", "im"} <= set(item):
            raise SchemaError("each off-diagonal entry needs 'edge', 're', 'im'")
        e = item["edge"]
        if not is_vertex_pair_by_any(e):
            raise SchemaError(f"bad edge reference {e!r}")
        key = (min(e), max(e))
        if key not in g.edge_index:
            raise SchemaError(f"edge {e!r} is not in the graph")
        if key in seen:
            raise SchemaError(f"edge {e!r} listed twice")
        seen.add(key)
        re, im = item["re"], item["im"]
        if not (_is_number(re) and _is_number(im)):
            raise SchemaError(
                f"entry for edge {e!r} must have finite numeric re/im")
        value = complex(float(re), float(im))
        if tuple(e) != key:
            value = value.conjugate()
        off[g.edge_index[key]] = value
    if len(seen) != g.num_edges:
        missing = [e for e in g.edges if e not in seen]
        raise SchemaError(f"missing off-diagonal entries for edges {missing}")
    return SupportedMatrix(g, np.asarray(diag, dtype=np.float64), off)


def projects_surjectively(basis: EigenspaceBasis, edge: tuple[int, int],
                          tol: float = TRANSVERSALITY_RANK_TOL) -> bool:
    """Whether a multiplicity-2 eigenspace projects onto the two
    coordinates of ``edge`` with rank 2; other dimensions raise."""
    if basis.dim != 2:
        raise ValueError(f"edge projection criterion applies to "
                         f"multiplicity 2, got {basis.dim}")
    sv = np.linalg.svd(basis.vectors[list(edge), :], compute_uv=False)
    return bool(sv[-1] > tol)


def eigenvalue_gap(es, k: int) -> float:
    """Distance from the k-th eigenvalue to the nearest other one."""
    gaps = [abs(es.values[j] - es.values[k - 1])
            for j in range(es.n) if j != k - 1]
    return float(min(gaps)) if gaps else float("inf")


def multiplicity_by_walk(values, k: int, tol_rel: float) -> tuple[int, int]:
    """Cluster size and 1-based start of the k-th eigenvalue's cluster
    in the ascending spectrum ``values``, grown one neighbour at a time
    while the next one lies within the cut of the k-th."""
    tol = tol_rel * max(1.0, float(np.max(np.abs(values))))
    lam = values[k - 1]
    lo = hi = k - 1
    while lo > 0 and abs(values[lo - 1] - lam) <= tol:
        lo -= 1
    while hi + 1 < len(values) and abs(values[hi + 1] - lam) <= tol:
        hi += 1
    return hi - lo + 1, lo + 1


@dataclass(frozen=True, eq=False)
class SimpleEigen:
    """One scalar solve: operator, simple k-th eigenpair and edge products."""

    h: SupportedMatrix
    es: EigenSystem
    k: int
    v: np.ndarray
    lam: float
    products: np.ndarray

    @property
    def gradient(self) -> np.ndarray:
        """Eigenvalue derivative along each edge angle."""
        return -2.0 * self.products.imag

    @property
    def max_imag_product(self) -> float:
        return float(np.max(np.abs(self.products.imag))) \
            if self.products.size else 0.0

    def is_flat(self, tol: float) -> bool:
        """Criticality: every edge product real within ``tol * norm``."""
        return self.max_imag_product <= tol * self.h.norm_fro

    @property
    def stack(self) -> _Solves:
        """The solve as the stack of one that the Hessian assembly takes."""
        return _Solves.at(self.h.graph, self.h.offdiag[None],
                          self.es.values[None], self.es.vectors[None], self.k)


def simple_eigen(h: SupportedMatrix, k: int, es: EigenSystem | None,
                 tol_degeneracy: float) -> SimpleEigen:
    """Solve ``h`` (or take ``es``); the k-th eigenvalue must be simple."""
    if es is None:
        es = eigh(h)
    m, _ = multiplicity(es, k, tol_degeneracy)
    if m != 1:
        raise NonSimpleEigenvalueError(
            f"eigenvalue {k} has multiplicity {m}; it must be simple",
            k=k, multiplicity=m)
    v = es.vector(k)
    return SimpleEigen(h, es, k, v, es.value(k),
                      edge_products(h.graph, h.offdiag, v))


def scalar_count(s: SimpleEigen, tol_vanish: float,
                 tol_real: float = PRODUCT_REAL_TOL,
                 tol_product: float = PRODUCT_DEGENERATE_TOL) -> int:
    """The nodal count at a simple eigenvalue, one check at a time.  A
    count outside the bounds is an internal fault on a connected graph
    and inadmissible on a disconnected one, where the bounds need not
    hold."""
    h, k, products = s.h, s.k, s.products
    vanishing = vanishing_entries(s.v, tol_vanish)
    if vanishing:
        raise VanishingEigenvectorError(
            f"eigenvector {k} vanishes at vertices {vanishing}",
            vertices=vanishing)
    if not s.is_flat(tol_real):
        raise EdgeProductNotRealError(
            f"edge products for eigenvector {k} are not real "
            f"(max imaginary part {s.max_imag_product:.3e}); the matrix is "
            f"not at a critical point")
    small = np.abs(products.real) < tol_product * h.norm_fro
    if np.any(small):
        bad = [h.graph.edges[i] for i in np.nonzero(small)[0]]
        raise DegenerateEdgeProductError(
            f"edge products too close to zero on edges {bad}", edges=bad)
    count = int(np.count_nonzero(products.real > 0.0))
    beta = betti_number(h.graph)
    if not k - 1 <= count <= k - 1 + beta:
        bounds = f"[{k - 1}, {k - 1 + beta}] for k={k}, beta={beta}"
        if num_components(h.graph) == 1:
            raise InternalCrossCheckError(
                f"nodal count {count} violates the bounds {bounds}")
        raise AdmissibilityError(
            f"nodal count {count} lies outside the bounds {bounds}, which "
            f"hold on connected graphs only")
    return count


def scalar_nodal_count(h: SupportedMatrix, k: int, *,
                       es: EigenSystem | None = None,
                       tol_degeneracy: float = DEGENERACY_TOL,
                       tol_vanish: float = VANISH_TOL,
                       tol_real: float = PRODUCT_REAL_TOL,
                       tol_product: float = PRODUCT_DEGENERATE_TOL) -> int:
    """``nodal.nodal_count`` through the scalar checks."""
    return scalar_count(simple_eigen(h, k, es, tol_degeneracy), tol_vanish,
                        tol_real, tol_product)


def scalar_nodal_surplus(h: SupportedMatrix, k: int, **kwargs) -> int:
    return scalar_nodal_count(h, k, **kwargs) - (k - 1)


def signing_histogram(h: SupportedMatrix, signs, kwargs) -> np.ndarray:
    """Surplus histogram of one signing of ``h``, one scalar count per k.

    Raises ``InadmissibleSigningError`` with the signing's signs, the
    first failing k and the reason when some k is not admissible.
    """
    hs = SupportedMatrix(h.graph, h.diag, h.offdiag * np.asarray(signs))
    es = eigh(hs)
    local = np.zeros(betti_number(h.graph) + 1, dtype=np.int64)
    for k in range(1, h.graph.n + 1):
        try:
            local[scalar_nodal_surplus(hs, k, es=es, **kwargs)] += 1
        except AdmissibilityError as exc:
            pattern = tuple(int(s) for s in signs)
            raise InadmissibleSigningError(
                f"signing with pattern {pattern} is inadmissible at k={k}: "
                f"{exc}", signs=pattern, k=k, reason=str(exc)) from exc
    return local


def scalar_classify(s: SimpleEigen, tol: float, tol_vanish: float
                    ) -> tuple[str, float, tuple[int, ...]]:
    """``(kind, max imaginary product, vanishing vertices)`` of a simple
    eigenvalue, one check at a time, as ``morse._kinds`` classifies it."""
    worst = s.max_imag_product
    vanishing = vanishing_entries(s.v, tol_vanish)
    if not s.is_flat(tol):
        return "smooth-regular", worst, tuple(vanishing)
    if not vanishing:
        _check_symmetry(s.h.graph, s.h.offdiag[None], s.products[None],
                        np.array([s.h.norm_fro]), tol)
        return "symmetry", worst, ()
    return "exceptional", worst, tuple(vanishing)


def complex_eigh(h: SupportedMatrix) -> EigenSystem:
    """The eigensystem of ``h`` on the complex path, a real ``h``
    included: each edge entry above the diagonal and its conjugate
    below, one ``np.linalg.eigh``, pivots by ``take_along_axis_phases``."""
    r, s = h.graph.endpoints.T
    dense = np.diag(h.diag).astype(np.complex128)
    dense[r, s], dense[s, r] = h.offdiag, np.conj(h.offdiag)
    values, vectors = np.linalg.eigh(dense)
    return EigenSystem(values, take_along_axis_phases(vectors))


def scalar_polish(base, k: int, start, gtol: float, tol_degeneracy: float):
    """One start of ``morse._polish``, run on its own.

    Damped Newton steps on the gauge-slice gradient with the analytic
    Hessian as Jacobian and backtracking on the squared norm; each trial
    point is one ``complex_eigh`` of its own operator, exactly real or
    not.  Returns ``(status, x, aux, solve)``: the lockstep's outcome
    for this start, named, its coordinates and auxiliary number, and
    for a converged start the solve its row of the lockstep's solve
    stack holds (``None`` otherwise).
    """
    idx = base.graph.spanning_forest.nonforest

    def solve(coords):
        h = torus_point(base, coords).operator()
        es = complex_eigh(h)
        try:
            return simple_eigen(h, k, es, tol_degeneracy)
        except NonSimpleEigenvalueError:
            return eigenvalue_gap(es, k)

    x = np.mod(np.array(start, dtype=np.float64), TWO_PI)
    s = solve(x)
    if isinstance(s, float):
        return "degenerate", x, s, None
    for _ in range(60):
        g = s.gradient[idx]
        J = _hessian(s.stack, base.graph.spanning_forest, tol_degeneracy)[0]
        delta, *_ = np.linalg.lstsq(J, -g, rcond=None)
        if float(np.max(np.abs(g))) <= gtol:
            xn = np.mod(x + delta, TWO_PI)
            sn = solve(xn)
            if not isinstance(sn, float) and float(np.linalg.norm(
                    sn.gradient[idx])) < float(np.linalg.norm(g)):
                x, s = xn, sn
            return "ok", x, float(np.linalg.norm(delta)), s
        f0 = float(g @ g)
        t = 1.0
        improved = False
        while t >= 2.0 ** -12:
            xn = np.mod(x + t * delta, TWO_PI)
            sn = solve(xn)
            if isinstance(sn, float):
                return "degenerate", xn, sn, None
            gn = sn.gradient[idx]
            if float(gn @ gn) < f0 * (1.0 - 0.25 * t) + 1e-300:
                x, s = xn, sn
                improved = True
                break
            t *= 0.5
        if not improved:
            return "stuck", x, 0.0, None
    return "maxiter", x, 0.0, None


def scalar_report(coords, h, es, k: int, origin: str, *,
                  tol_degeneracy: float, tol_vanish: float, rank_tol: float):
    """The report ``morse._reports_at`` gives at gauge-slice ``coords``, from
    the operator ``h`` there and its eigensystem ``es``, built alone."""
    coords = tuple(float(c) for c in coords)
    try:
        s = simple_eigen(h, k, es, tol_degeneracy)
    except NonSimpleEigenvalueError as exc:
        return CriticalPointReport(coords, k, "incorrigible",
                                   exc.multiplicity, (), None, None, None,
                                   None, origin)
    kind, _, vanishing = scalar_classify(s, PRODUCT_REAL_TOL, tol_vanish)
    gnorm = float(np.linalg.norm(
        s.gradient[h.graph.spanning_forest.nonforest]))
    hess = _hessian(s.stack, h.graph.spanning_forest, tol_degeneracy)[0]
    spectrum = tuple(float(x) for x in np.linalg.eigvalsh(hess)) \
        if hess.size else ()
    index, nullity = scalar_morse_index(hess, rank_tol)
    return CriticalPointReport(coords, k, kind, 1, vanishing,
                               gnorm, spectrum, index, nullity, origin)


@contextlib.contextmanager
def kernel_tolerances(tols):
    """The keyword tolerances of ``tols`` (a dict or keyword, value
    pairs) that the library takes; an oracle's ``tol_product`` is set
    as ``nodal.PRODUCT_DEGENERATE_TOL`` until the block exits.  It
    patches with ``mock.patch.object``, so a Hypothesis body can use
    it."""
    kwargs = dict(tols)
    with mock.patch.object(nodal, "PRODUCT_DEGENERATE_TOL", kwargs.pop(
            "tol_product", nodal.PRODUCT_DEGENERATE_TOL)):
        yield kwargs


def vanishing_entries(v: np.ndarray, tol: float) -> list[int]:
    """The entries of the unit vector ``v`` below ``tol``, in order."""
    return [int(i) for i in np.flatnonzero(np.abs(v) < tol)]


def scalar_morse_index(hess: np.ndarray, rank_tol: float
                       ) -> tuple[int, int]:
    """``morse.morse_index`` of a symmetric ``hess`` at the cut
    ``rank_tol``, from ``np.linalg.eigvalsh``."""
    if hess.size == 0:
        return 0, 0
    w = np.linalg.eigvalsh(hess)
    scale = float(np.max(np.abs(w)))
    cut = rank_tol * scale
    nullity = len(w) if scale == 0.0 else int(np.count_nonzero(
        np.abs(w) <= cut))
    return int(np.count_nonzero(w < -cut)), nullity


def torus_point(base: SupportedMatrix, coords) -> TorusPoint:
    """The point over ``base`` at gauge-slice coordinates ``coords``:
    those angles on the non-forest edges, 0 on the forest."""
    idx = base.graph.spanning_forest.nonforest
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != idx.shape:
        raise ValueError("coordinate vector length does not match beta")
    angles = np.zeros(base.graph.num_edges)
    angles[idx] = coords
    return TorusPoint(base, angles)


def conjugate_point(p: TorusPoint) -> TorusPoint:
    """The point with every angle of ``p`` negated: its operator is
    the entrywise conjugate."""
    return TorusPoint(p.base, -p.angles)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def take_along_axis_phases(vectors: np.ndarray) -> np.ndarray:
    """``spectral._normalize_phases`` with its pivots gathered by
    ``np.take_along_axis`` over the leading axes."""
    if vectors.size == 0:
        return vectors.copy()
    i = np.argmax(np.abs(vectors), axis=-2)
    a = np.take_along_axis(vectors, i[..., None, :], axis=-2)
    if np.iscomplexobj(vectors):
        return vectors * (np.conj(a) / np.hypot(a.real, a.imag))
    return np.where(a < 0.0, -vectors, vectors)


def _offgraph_units(g: Graph) -> list[np.ndarray]:
    """Real basis of Hermitian matrices with zero diagonal, zero on edges."""
    units = []
    for r in range(g.n):
        for s in range(r + 1, g.n):
            if (r, s) in g.edge_index:
                continue
            e = np.zeros((g.n, g.n), dtype=np.complex128)
            e[r, s] = 1.0
            e[s, r] = 1.0
            units.append(e)
            f = np.zeros((g.n, g.n), dtype=np.complex128)
            f[r, s] = 1j
            f[s, r] = -1j
            units.append(f)
    return units


def _ongraph_units(g: Graph) -> list[np.ndarray]:
    """Real basis of Hermitian matrices supported on the graph."""
    units = []
    for r in range(g.n):
        e = np.zeros((g.n, g.n), dtype=np.complex128)
        e[r, r] = 1.0
        units.append(e)
    for (r, s) in g.edges:
        e = np.zeros((g.n, g.n), dtype=np.complex128)
        e[r, s] = 1.0
        e[s, r] = 1.0
        units.append(e)
        f = np.zeros((g.n, g.n), dtype=np.complex128)
        f[r, s] = 1j
        f[s, r] = -1j
        units.append(f)
    return units


def _herm_to_real(x: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix."""
    m = x.shape[0]
    if m == 1:
        return np.array([x[0, 0].real])
    iu = np.triu_indices(m, k=1)
    return np.concatenate([np.diag(x).real,
                           x[iu].real * np.sqrt(2.0),
                           x[iu].imag * np.sqrt(2.0)])


def scalar_transverse(h: SupportedMatrix, k: int, *,
                      tol_degeneracy: float = DEGENERACY_TOL,
                      rank_tol: float = TRANSVERSALITY_RANK_TOL
                      ) -> tuple[TransversalityReport, np.ndarray,
                                 np.ndarray]:
    """``is_transverse_at`` one unit at a time, with the singular values
    of its kernel test (empty without off-graph directions) and of its
    compression test."""
    basis = eigenspace_basis(h, k, tol_degeneracy)
    m = basis.dim
    lam = basis.eigenvalue
    g = h.graph
    n = g.n
    scale = max(1.0, h.norm_fro)
    shifted = h.to_dense() - lam * np.eye(n)

    off_units = _offgraph_units(g)
    sv = np.zeros(0)
    if off_units:
        cols = []
        for unit in off_units:
            y = shifted @ unit
            cols.append(np.concatenate([y.real.ravel(), y.imag.ravel()]))
        a = np.stack(cols, axis=1)
        sv = np.linalg.svd(a, compute_uv=False)
        smallest = float(sv[-1])
        cut = rank_tol * scale
        kernel_dim = int(np.sum(sv <= cut))
        a_transverse = smallest > cut
    else:
        smallest = np.inf
        kernel_dim = 0
        a_transverse = True

    witness = None
    if not a_transverse:
        _, _, vh = np.linalg.svd(a)
        coeffs = vh[-1]
        x = np.zeros((n, n), dtype=np.complex128)
        for c, unit in zip(coeffs, off_units):
            x = x + c * unit
        x = x / np.linalg.norm(x)
        witness = x

    on_units = _ongraph_units(g)
    u = basis.vectors
    comp = np.stack([_herm_to_real(u.conj().T @ unit @ u)
                     for unit in on_units])
    csv = np.linalg.svd(comp, compute_uv=False)
    rank = int(np.sum(csv > rank_tol * max(1.0, float(csv[0]))))
    b_transverse = rank == m * m

    if a_transverse != b_transverse:
        raise InternalCrossCheckError(
            f"transversality tests disagree: kernel test says "
            f"{a_transverse} (smallest singular value {smallest:.3e}), "
            f"compression rank {rank} of {m * m}")

    report = TransversalityReport(
        transverse=a_transverse, multiplicity=m, eigenvalue=lam,
        codimension=codim_stratum(m), smallest_singular_value=smallest,
        kernel_dimension=kernel_dim, compression_rank=rank,
        kernel_witness=witness, basis=basis)
    return report, sv, csv


def scalar_is_generic(lengths: np.ndarray, tol: float = GENERICITY_TOL,
                      cap: int = LENGTH_CAP) -> bool:
    """``linkage.is_generic`` one signed sum at a time."""
    m = len(lengths)
    if m > cap:
        raise CapExceededError(
            f"genericity check over {m} lengths exceeds the cap of {cap}")
    cut = tol * float(np.max(lengths))
    rest = lengths[1:]
    for bits in range(1 << (m - 1)):
        signs = np.array([-1.0 if (bits >> i) & 1 else 1.0
                          for i in range(m - 1)])
        if abs(lengths[0] + float(signs @ rest)) <= cut:
            return False
    return True


def scalar_sample_configuration(vals: np.ndarray, seed: int = 0,
                                max_restarts: int = 60) -> np.ndarray:
    """``linkage.sample_configuration`` one Newton step at a time, each
    solved by its own ``np.linalg.lstsq`` call, from the bar lengths
    ``vals``."""
    m = len(vals)
    total = float(np.sum(vals))
    top = float(np.max(vals))
    if m == 1 or top > total - top + GENERICITY_TOL * total:
        raise EmptyConfigurationError(
            "largest length exceeds the sum of the others; no closed "
            "configuration exists")
    rng = np.random.default_rng(seed)
    target = 1e-12 * total

    def residual(phi: np.ndarray) -> np.ndarray:
        theta = np.concatenate([[0.0], phi])
        z = np.sum(vals * np.exp(1j * theta))
        return np.array([z.real, z.imag])

    for attempt in range(max_restarts):
        if attempt == 0 and m == 2:
            phi = np.array([np.pi])
        else:
            phi = rng.uniform(0.0, TWO_PI, size=m - 1)
        for _ in range(200):
            r = residual(phi)
            if float(np.hypot(r[0], r[1])) <= target:
                theta = np.mod(np.concatenate([[0.0], phi]), TWO_PI)
                theta[0] = 0.0
                return theta
            theta = np.concatenate([[0.0], phi])
            J = np.stack([-vals[1:] * np.sin(theta[1:]),
                          vals[1:] * np.cos(theta[1:])])
            delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
            f0 = float(r @ r)
            t = 1.0
            moved = False
            while t >= 2.0 ** -14:
                cand = phi + t * delta
                rc = residual(cand)
                if float(rc @ rc) < f0 * (1.0 - 0.25 * t) + 1e-300:
                    phi = cand
                    moved = True
                    break
                t *= 0.5
            if not moved:
                break
    raise EmptyConfigurationError(
        f"no closed configuration found after {max_restarts} restarts; the "
        f"length set may be on the solvability boundary")


def recursive_dumps(obj, indent: int = 0) -> str:
    """``serialize.dumps_canonical`` with one recursive call per leaf."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [recursive_dumps(x, indent + 1) for x in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("canonical JSON needs string keys")
        items = [f"{_escape(k)}: {recursive_dumps(obj[k], indent + 1)}"
                 for k in keys]
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class Referee:
    """Ascending eigenvalues, eigenvector columns (one list per k), the
    sign of each edge product ``v_r h_rs v_s`` (one list per k, in edge
    order) and the surplus at every k, at the referee's precision."""

    values: list
    vectors: list
    signs: list
    surplus: list[int]


def referee_nodal(h: SupportedMatrix, digits: int = 50) -> Referee:
    """The nodal data of the real operator ``h`` from ``mpmath.eigsy`` at
    ``digits`` significant digits; the matrix entries are the float
    entries of ``h``, exactly."""
    if not h.is_real:
        raise ValueError("the referee solves real symmetric matrices")
    n, edges = h.graph.n, h.graph.edges
    with mpmath.workdps(digits):
        a = mpmath.zeros(n, n)
        for i, x in enumerate(h.diag.tolist()):
            a[i, i] = mpmath.mpf(x)
        entries = [mpmath.mpf(x) for x in h.offdiag.real.tolist()]
        for (r, t), x in zip(edges, entries):
            a[r, t] = a[t, r] = x
        values, q = mpmath.eigsy(a)
        order = sorted(range(n), key=lambda j: values[j])
        vectors = [[q[i, j] for i in range(n)] for j in order]
        signs = [[int(mpmath.sign(v[r] * x * v[t]))
                  for (r, t), x in zip(edges, entries)] for v in vectors]
    return Referee([values[j] for j in order], vectors, signs,
                   [row.count(1) - k for k, row in enumerate(signs)])
