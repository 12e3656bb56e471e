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
from typing import Iterator

import numpy as np

from .errors import (
    CapExceededError,
    GraphMismatchError,
    NotProperlySupportedError,
    SchemaError,
)
from .graphs import (Graph, OneForm, _is_number, coboundary, cycle_basis,
                     graph_from_json, graph_to_json, integrate)

TWO_PI = 2.0 * np.pi

#: Default refusal threshold: the edges of a full signing enumeration,
#: the cycles (beta) of a switching-class enumeration.
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
        d = np.asarray(self.diag, dtype=np.float64).copy()
        o = np.asarray(self.offdiag, dtype=np.complex128).copy()
        if d.shape != (self.graph.n,):
            raise ValueError("diagonal length does not match the vertex count")
        if o.shape != (self.graph.num_edges,):
            raise ValueError("off-diagonal length does not match the edge count")
        d.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", o)

    @property
    def is_real(self) -> bool:
        """True when every off-diagonal imaginary part is floating zero."""
        return bool(np.all(self.offdiag.imag == 0.0))

    def to_dense(self) -> np.ndarray:
        """Dense array, real dtype when the matrix is real."""
        if self.is_real:
            m = np.diag(self.diag)
            for (r, s), v in zip(self.graph.edges, self.offdiag.real):
                m[r, s] = v
                m[s, r] = v
            return m
        m = np.diag(self.diag.astype(np.complex128))
        for (r, s), v in zip(self.graph.edges, self.offdiag):
            m[r, s] = v
            m[s, r] = np.conj(v)
        return m

    @cached_property
    def norm_fro(self) -> float:
        return float(np.sqrt(np.sum(self.diag ** 2)
                             + 2.0 * np.sum(np.abs(self.offdiag) ** 2)))

    @classmethod
    def from_dense(cls, graph: Graph, m, atol: float = 0.0) -> "SupportedMatrix":
        """Read a dense Hermitian array back onto the support.

        Entries off the support and Hermitian defects larger than
        ``atol`` are rejected.
        """
        m = np.asarray(m)
        if m.shape != (graph.n, graph.n):
            raise ValueError("dense array shape does not match the graph")
        if np.max(np.abs(m - m.conj().T)) > atol:
            raise ValueError("dense array is not Hermitian within tolerance")
        support = set(graph.edges)
        for r in range(graph.n):
            for s in range(r + 1, graph.n):
                if (r, s) not in support and abs(m[r, s]) > atol:
                    raise ValueError(f"nonzero entry at non-edge ({r}, {s})")
        diag = np.real(np.diag(m))
        off = np.array([m[r, s] for (r, s) in graph.edges], dtype=np.complex128)
        return cls(graph, diag, off)


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


def is_properly_supported(h: SupportedMatrix) -> bool:
    """True when every edge carries a nonzero off-diagonal entry."""
    return bool(np.all(np.abs(h.offdiag) > 0.0))


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
    if not is_properly_supported(h):
        raise NotProperlySupportedError(
            "phase recovery needs a nonzero entry on every edge")
    return OneForm(h.graph, np.angle(h.offdiag))


def signs_for_index(index: int, num_edges: int) -> np.ndarray:
    """Sign vector for enumeration position ``index``.

    Bit ``i`` of ``index`` flips edge ``i`` in canonical edge order, so
    index 0 is the identity signing.
    """
    return np.array([-1.0 if (index >> i) & 1 else 1.0 for i in range(num_edges)])


def enumerate_signings(h: SupportedMatrix, cap: int = SIGNING_CAP
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


@dataclass(frozen=True, eq=False)
class SigningClasses:
    """Switching classes of the signings of a real matrix.

    The id of a class packs the sign parity around fundamental cycle
    ``j`` of ``cycle_basis`` into bit ``j``; the ids are exactly
    ``0 .. 2^beta - 1``.  Row ``c`` of ``representatives`` (read-only
    int8 signs, one column per canonical edge) is the lexicographically
    least sign vector of class ``c``, comparing entrywise with -1
    before +1.  Every class holds ``class_size = 2^(n - components)``
    signings.
    """

    graph: Graph
    representatives: np.ndarray
    class_size: int

    @property
    def num_classes(self) -> int:
        return len(self.representatives)


def gauge_classes_of_signings(h: SupportedMatrix, cap: int = SIGNING_CAP
                              ) -> SigningClasses:
    """Least representative of each switching class of a real matrix.

    Two sign patterns are equivalent when they differ by a vertex sign
    flip, equivalently when the sign parity around every fundamental
    cycle agrees.  Over GF(2), edge ``i`` has the column ``c_i`` whose
    bit ``j`` says whether cycle ``j`` uses it, and a signing with
    flipped edges ``x`` lies in class ``sum_i x_i c_i``.  The least
    member flips edge ``i`` greedily, in canonical order, whenever the
    later columns can still reach the class.  That always holds when
    ``c_i`` is in the span of the later columns, so such edges are
    flipped in every representative; the other ``beta`` edges are a
    basis, and their flips solve a linear system whose solution is
    affine in the class id.  The representatives are built from it in
    ``O(2^beta |E|)`` without visiting the ``2^|E|`` signings; ``cap``
    bounds beta.  The classes depend on the graph only, so zero entries
    are allowed.
    """
    if not h.is_real:
        raise ValueError("signing classes are defined for real matrices")
    m = h.graph.num_edges
    cycles = cycle_basis(h.graph).cycles
    if len(cycles) > cap:
        raise CapExceededError(
            f"class enumeration over beta {len(cycles)} exceeds the cap "
            f"of {cap}")
    columns = [0] * m
    for j, chain in enumerate(cycles):
        for i in np.flatnonzero(chain.coeffs):
            columns[i] |= 1 << j

    # Echelon basis of the columns, keyed by leading bit; each vector
    # keeps the edges whose columns it sums.
    basis: dict[int, tuple[int, np.ndarray]] = {}

    def reduce(v: int) -> tuple[int, np.ndarray]:
        """``v`` reduced by the basis, and the edges summed into it."""
        edges = np.zeros(m, dtype=bool)
        while v and v.bit_length() - 1 in basis:
            w, w_edges = basis[v.bit_length() - 1]
            v ^= w
            edges ^= w_edges
        return v, edges

    # From the last edge back, an edge whose column is independent of
    # the later ones joins the basis; the others flip in every class.
    always = np.ones(m, dtype=bool)
    for i in reversed(range(m)):
        v, edges = reduce(columns[i])
        if v:
            edges[i] = True
            basis[v.bit_length() - 1] = (v, edges)
            always[i] = False
    rest = 0
    for i in np.flatnonzero(always):
        rest ^= columns[i]
    # Class c flips those edges and the basis edges whose columns sum
    # to c ^ rest.  That is affine in c, so the rows double once per
    # cycle, in class-id order.
    flips = (always ^ reduce(rest)[1])[None]
    for j in range(len(cycles)):
        flips = np.concatenate([flips, flips ^ reduce(1 << j)[1]])
    reps = 1 - 2 * flips.astype(np.int8)
    reps.setflags(write=False)
    return SigningClasses(graph=h.graph, representatives=reps,
                          class_size=1 << (m - len(cycles)))


def is_gauge_equiv_to_symmetry(h: SupportedMatrix, tol: float = FLUX_TOL
                               ) -> tuple[bool, GaugePhase | None]:
    """Decide whether some phase action makes the matrix real.

    The obstruction is the flux of the entry phases around each
    fundamental cycle: the matrix is equivalent to a real one exactly
    when every flux is a multiple of pi within ``tol``.  On success a
    witness phase vector is returned; applying ``gauge_transform`` with
    it yields a matrix whose entries are real up to the flux residues.
    """
    alpha = phase_form(h)
    basis = cycle_basis(h.graph)
    for chain in basis.cycles:
        flux = integrate(alpha, chain)
        rem = np.mod(flux, np.pi)
        if min(rem, np.pi - rem) > tol:
            return False, None

    # Reduce each phase to its offset from the nearest multiple of pi
    # and undo the offsets along each root path: every tree edge then
    # cancels, and non-tree edges are multiples of pi up to the flux
    # residues.
    reduced = alpha.values - np.pi * np.round(alpha.values / np.pi)
    return True, GaugePhase(-(h.graph.spanning_forest.up @ reduced))


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
        if not isinstance(e, (list, tuple)) or len(e) != 2:
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
