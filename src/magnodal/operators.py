"""Hermitian matrices supported on a graph and their phase actions.

A supported matrix stores a real diagonal and one complex off-diagonal
entry per canonical edge; entries off the edge set are zero by
construction.  A one-form acts by twisting each off-diagonal entry with
a unit phase, and vertex phase vectors act through their coboundary,
which realizes conjugation by a diagonal unitary.

Realness is tracked exactly: matrices built through sign flips or
through phases that are exact multiples of pi keep imaginary parts at
floating zero, so downstream realness checks do not depend on
tolerances for these construction paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapExceededError,
    GraphMismatchError,
    InternalCrossCheckError,
    NotProperlySupportedError,
    SchemaError,
)
from .graphs import (Graph, OneForm, _are_numbers, _are_vertex_pairs,
                     betti_number, coboundary, graph_from_json, graph_to_json)

TWO_PI = 2.0 * np.pi

#: Refusal threshold on the cycles (beta) of a switching-class
#: enumeration, read when ``gauge_classes_of_signings`` runs.
SIGNING_CAP = 20

#: Flux distance to a multiple of pi below which a class is a switching class.
FLUX_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SupportedMatrix:
    """Hermitian matrix with support contained in the edge set."""

    graph: Graph
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.array(self.diag, dtype=np.float64)
        o = np.array(self.offdiag, dtype=np.complex128)
        if d.shape != (self.graph.n,):
            raise ValueError("diagonal length does not match the vertex count")
        if o.shape != (self.graph.num_edges,):
            raise ValueError("off-diagonal length does not match the edge count")
        d.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", o)

    @cached_property
    def is_real(self) -> bool:
        """True when every off-diagonal imaginary part is floating zero."""
        return not np.logical_or.reduce(self.offdiag.imag)

    def to_dense(self) -> np.ndarray:
        """Dense array, real dtype when the matrix is real."""
        return dense_matrices(self.graph, self.diag, self.offdiag[None])[0]

    @cached_property
    def norm_fro(self) -> float:
        """The Frobenius norm, of a real matrix from its real parts."""
        return float(frobenius_norms(
            self.diag, self.offdiag.real if self.is_real else self.offdiag))


def frobenius_norms(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Frobenius norm of the matrix with diagonal ``diag`` and edge
    entries ``offdiag``, or of each one when ``offdiag`` stacks rows
    (S, m); a row gets the bits of its matrix's ``norm_fro``."""
    return np.sqrt(np.add.reduce(diag ** 2)
                   + 2.0 * np.add.reduce(np.abs(offdiag) ** 2, axis=-1))


def dense_matrices(graph: Graph, diag: np.ndarray, offdiag: np.ndarray
                   ) -> np.ndarray:
    """Dense Hermitian arrays (S, n, n) with diagonal ``diag`` and the
    edge entries of row i of ``offdiag`` (S, m).

    The dtype is real when every entry is real (floating-zero imaginary
    parts, as ``SupportedMatrix.is_real`` decides) and complex otherwise.
    Each row is filled flat: the diagonal through a stride of ``n + 1``
    and the edges at ``Graph.dense_positions``.
    """
    real = offdiag.dtype.kind != "c" or not offdiag.imag.any()
    n, pos = graph.n, graph.dense_positions
    dense = np.zeros((len(offdiag), n * n),
                     dtype=np.float64 if real else np.complex128)
    dense[:, ::n + 1] = diag
    if real:
        dense[:, pos] = offdiag.real[:, None]
    else:
        dense[:, pos[0]] = offdiag
        dense[:, pos[1]] = np.conj(offdiag)
    return dense.reshape(len(offdiag), n, n)


@dataclass(frozen=True, eq=False)
class GaugePhase:
    """Vertex phase vector, stored reduced modulo 2 pi."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.mod(np.asarray(self.theta, dtype=np.float64), TWO_PI)
        t.setflags(write=False)
        object.__setattr__(self, "theta", t)


def unit_phases(values: np.ndarray) -> np.ndarray:
    """Entrywise ``exp(i * values)`` with exact results at 0 and pi.

    Values that reduce to exactly 0 or pi modulo 2 pi map to exactly
    +1 or -1, which keeps sign-flip constructions real in floating
    arithmetic.
    """
    values = np.asarray(values, dtype=np.float64)
    w = np.exp(1j * values)
    rem = np.mod(values, TWO_PI)
    w[rem == 0.0] = 1.0
    w[rem == np.pi] = -1.0
    return w


def magnetic_action(alpha: OneForm, h: SupportedMatrix) -> SupportedMatrix:
    """Twist each off-diagonal entry by the phase of the one-form.

    The action composes additively: acting by ``x`` then ``y`` equals
    acting by ``x + y``.
    """
    if alpha.graph != h.graph:
        raise GraphMismatchError("one-form and matrix live on different graphs")
    return SupportedMatrix(h.graph, h.diag, h.offdiag * unit_phases(alpha.values))


def gauge_transform(phase: GaugePhase, h: SupportedMatrix) -> SupportedMatrix:
    """Act by the coboundary of a vertex phase vector.

    Entrywise this multiplies the ``(r, s)`` entry by
    ``exp(i (theta_s - theta_r))``, which is conjugation of the dense
    matrix by ``diag(exp(-i theta))``.  Spectra are preserved and
    eigenvectors transform by the inverse phases.
    """
    if phase.theta.shape != (h.graph.n,):
        raise ValueError("phase vector length does not match the vertex count")
    return magnetic_action(coboundary(h.graph, phase.theta), h)


def abs_part(h: SupportedMatrix) -> SupportedMatrix:
    """Entrywise modulus; the canonical real point of the phase torus."""
    return SupportedMatrix(h.graph, h.diag, np.abs(h.offdiag).astype(np.complex128))


def phase_form(h: SupportedMatrix) -> OneForm:
    """Principal argument of each off-diagonal entry as a one-form.

    Requires proper support; a vanishing entry has no well defined
    phase.
    """
    return OneForm(h.graph, entry_phases(h.offdiag))


def entry_phases(offdiag: np.ndarray) -> np.ndarray:
    """Principal argument of every edge entry, of one matrix or of each
    row of a stack (S, m); a vanishing entry has no phase and raises."""
    if not np.all(np.abs(offdiag) > 0.0):
        raise NotProperlySupportedError(
            "phase recovery needs a nonzero entry on every edge")
    return np.angle(offdiag)


def flux_defects(graph: Graph, phases: np.ndarray) -> np.ndarray:
    """Largest distance from a multiple of pi of the flux of ``phases``
    around a fundamental cycle, per row of the stack ``phases`` (S, m);
    0 on a forest.

    The cycles are the coefficient rows of the graph's spanning forest;
    the batched products run one dot product per row and cycle.
    """
    coeffs = graph.spanning_forest.coeffs.astype(np.float64)
    if not len(coeffs):
        return np.zeros(len(phases))
    flux = np.matmul(phases[:, None, None, :], coeffs[:, :, None])[..., 0, 0]
    rem = np.mod(flux, np.pi)
    return np.max(np.minimum(rem, np.pi - rem), axis=1)


def signs_for_index(index: int, num_edges: int) -> np.ndarray:
    """Sign vector for enumeration position ``index``.

    Bit ``i`` of ``index`` flips edge ``i`` in canonical edge order, so
    index 0 is the identity signing.
    """
    return np.array([-1.0 if (index >> i) & 1 else 1.0 for i in range(num_edges)])


@dataclass(frozen=True, eq=False)
class SigningClasses:
    """Switching classes of the signings of a real matrix, in the forest
    gauge.

    The id of a class packs the sign parity around cycle ``j`` of the
    graph's spanning forest, the fundamental cycle of the non-forest edge
    ``nonforest[j]``, into bit ``j``; the ids are exactly
    ``0 .. 2^beta - 1``.  Class ``c`` is represented by the signing that
    keeps every forest edge unflipped and flips the non-forest edge of
    cycle ``j`` (``nonforest[j]`` in canonical edge order) exactly when
    bit ``j`` of ``c`` is set; that edge is the only non-forest edge on
    its cycle, so the parities come out as the id says.  ``rows`` builds
    the sign rows of any block of ids on demand.  Every class holds
    ``class_size = 2^(n - components)`` signings.
    """

    graph: Graph
    nonforest: np.ndarray
    class_size: int

    @property
    def num_classes(self) -> int:
        return 1 << len(self.nonforest)

    def rows(self, ids) -> np.ndarray:
        """Int8 signs (len(ids), |E|) of the representatives of ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.ones((len(ids), self.graph.num_edges), dtype=np.int8)
        rows[:, self.nonforest] = \
            1 - 2 * ((ids[:, None] >> np.arange(len(self.nonforest))) & 1)
        return rows


def gauge_classes_of_signings(h: SupportedMatrix) -> SigningClasses:
    """The ``2^beta`` switching classes of the signings of a real matrix.

    Two sign patterns are equivalent when they differ by a vertex sign
    flip, equivalently when the sign parity around every fundamental
    cycle agrees.  Vertex flips can set every forest edge to +1, so
    each class has exactly one member that leaves the forest unflipped,
    and that member is its representative.  Nothing is enumerated up
    front; ``SIGNING_CAP``, read when it runs, bounds beta.  The classes
    depend on the graph only, so zero entries are allowed.  They read
    the non-forest positions off the graph's spanning forest; no cycle
    is built.
    """
    if not h.is_real:
        raise ValueError("signing classes are defined for real matrices")
    nonforest = h.graph.spanning_forest.nonforest
    beta = len(nonforest)
    if beta != betti_number(h.graph):
        raise InternalCrossCheckError(
            "non-forest edge count does not match the Betti number")
    if beta > SIGNING_CAP:
        raise CapExceededError(
            f"class enumeration over beta {beta} exceeds the cap of "
            f"{SIGNING_CAP}")
    return SigningClasses(graph=h.graph, nonforest=nonforest,
                          class_size=1 << (h.graph.num_edges - beta))


def operator_to_json(h: SupportedMatrix) -> dict:
    return {
        "graph": graph_to_json(h.graph),
        "diag": [float(x) for x in h.diag],
        "offdiag": [
            {"edge": [r, s], "re": float(v.real), "im": float(v.imag)}
            for (r, s), v in zip(h.graph.edges, h.offdiag)
        ],
    }


def operator_from_json(obj) -> SupportedMatrix:
    """Parse an operator document.

    Expected shape::

        {"graph": {...}, "diag": [...],
         "offdiag": [{"edge": [r, s], "re": x, "im": y}, ...]}

    Every edge of the graph must appear exactly once in ``offdiag``.
    """
    if not isinstance(obj, dict):
        raise SchemaError("operator document must be a JSON object")
    for key in ("graph", "diag", "offdiag"):
        if key not in obj:
            raise SchemaError(f"operator document needs key '{key}'")
    g = graph_from_json(obj["graph"])
    diag = obj["diag"]
    if (not isinstance(diag, list) or len(diag) != g.n
            or not _are_numbers(*diag)):
        raise SchemaError("'diag' must be a list of n finite numbers")
    entries = obj["offdiag"]
    if not isinstance(entries, list):
        raise SchemaError("'offdiag' must be a list")
    index = g.edge_index
    off = [None] * g.num_edges  # None until the edge's entry is read
    for item in entries:
        if not (isinstance(item, dict)
                and "edge" in item and "re" in item and "im" in item):
            raise SchemaError("each off-diagonal entry needs 'edge', 're', 'im'")
        e = item["edge"]
        if not _are_vertex_pairs(e):
            raise SchemaError(f"bad edge reference {e!r}")
        r, s = e
        i = index.get((r, s) if r <= s else (s, r))
        if i is None:
            raise SchemaError(f"edge {e!r} is not in the graph")
        if off[i] is not None:
            raise SchemaError(f"edge {e!r} listed twice")
        re, im = item["re"], item["im"]
        if not _are_numbers(re, im):
            raise SchemaError(
                f"entry for edge {e!r} must have finite numeric re/im")
        value = complex(float(re), float(im))
        off[i] = value.conjugate() if r > s else value
    if None in off:
        missing = [e for e, v in zip(g.edges, off) if v is None]
        raise SchemaError(f"missing off-diagonal entries for edges {missing}")
    return SupportedMatrix(g, diag, off)
