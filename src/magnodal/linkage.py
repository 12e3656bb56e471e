"""Exceptional critical points through planar linkage geometry.

At a critical point whose eigenvector vanishes at a single vertex, the
operator splits into the vanishing vertex against the rest.  The
products of the connecting entries with the eigenvector act like rigid
bars in the plane: their lengths are fixed and the eigen-equation at
the vanishing vertex forces them to close up into a polygon.  The
closed configurations sweep out the critical manifold through the
point, so its dimension and connectivity reduce to elementary length
comparisons, and the Morse-Bott index reduces to a nodal surplus on the
complement plus a two-dimensional correction from the sign of a
spectral shift coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    CapExceededError,
    EmptyConfigurationError,
    InternalCrossCheckError,
    LinkageHypothesisError,
    NonGenericLengthsError,
    NonSimpleEigenvalueError,
    NotCriticalError,
    VanishingEigenvectorError,
)
from .families import complete_graph
from .graphs import OneForm, induced_subgraph
from .morse import TorusPoint, _hessian, _kinds, morse_index
from .nodal import _checked, nodal_surplus
from .operators import (
    GaugePhase,
    SupportedMatrix,
    entry_phases,
    gauge_transform,
)
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    _lstsq,
    eigh,
    multiplicity,
    resolvent_coefficient,
)

TWO_PI = 2.0 * np.pi

#: Signed length sums below this times the largest length are degenerate.
GENERICITY_TOL = 1e-9

#: Refusal threshold for the genericity enumeration.
LENGTH_CAP = 20

#: Sign rows per block of the genericity enumeration.
_GENERIC_CHUNK = 1 << 13

#: Seeded random starts ``sample_configuration`` tries before it gives up.
SAMPLE_RESTARTS = 60

#: Spectral shift coefficients below this count as degenerate.
SHIFT_COEFF_TOL = 1e-9

#: Closed configurations the exceptional analysis checks along the
#: critical manifold.
MANIFOLD_SAMPLES = 4

#: Random draws the fixture builder tries before it gives up.
FIXTURE_ATTEMPTS = 60


@dataclass(frozen=True, eq=False)
class LinkageLengths:
    """Positive bar lengths of a planar linkage."""

    lengths: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.lengths, dtype=np.float64).copy()
        if v.ndim != 1 or v.size == 0:
            raise ValueError("lengths must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("lengths must be finite")
        if np.any(v <= 0.0):
            raise ValueError("lengths must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "lengths", v)

    def __len__(self) -> int:
        return int(self.lengths.size)


def _unit_scaled(L: LinkageLengths) -> np.ndarray:
    """The lengths divided by the power of two at their maximum, which
    puts the largest in ``[1/2, 1)``: exact, so every verdict on them is
    scale-free, and no sum of them overflows."""
    return np.ldexp(L.lengths, -np.frexp(L.lengths.max())[1])


def is_generic(L: LinkageLengths) -> bool:
    """No signed sum of the lengths vanishes within tolerance.

    Checks all sign choices up to a global flip, so ``2**(m-1)`` sums,
    against ``GENERICITY_TOL`` times the largest length, one block of
    sign rows at a time (bit i of the row index flips length i + 1), on
    the lengths scaled by a power of two (``_unit_scaled``).  Refuses
    more than ``LENGTH_CAP`` lengths.
    """
    m = len(L)
    if m > LENGTH_CAP:
        raise CapExceededError(
            f"genericity check over {m} lengths exceeds the cap of "
            f"{LENGTH_CAP}")
    v = _unit_scaled(L)
    cut = GENERICITY_TOL * float(np.max(v))
    rest = v[1:]
    for lo in range(0, 1 << (m - 1), _GENERIC_CHUNK):
        bits = np.arange(lo, min(lo + _GENERIC_CHUNK, 1 << (m - 1)))
        signs = 1.0 - 2.0 * ((bits[:, None] >> np.arange(m - 1)) & 1)
        # one dot product per sign row, with the bits of ``signs[i] @ rest``
        sums = v[0] + (signs[:, None, :] @ rest[:, None])[:, 0, 0]
        if np.any(np.abs(sums) <= cut):
            return False
    return True


@dataclass(frozen=True)
class LinkageTopology:
    """Shape of the configuration space modulo rotation.

    ``kind`` is one of ``empty``, ``connected``, ``two-components``;
    ``dimension`` is ``m - 3`` when nonempty, else None.
    """

    kind: str
    dimension: int | None


def solvability_and_connectivity(L: LinkageLengths) -> LinkageTopology:
    """Classify the configuration space of a generic length set.

    Empty exactly when the largest length beats the sum of the others.
    Otherwise the space has dimension ``m - 3`` and, by Kapovich and
    Millson, is connected unless three lengths pairwise sum to more
    than half the total, in which case there are two components
    exchanged by reflection.  Pairwise sums only grow with the lengths,
    so the three largest decide; their smallest pair is the second and
    third largest.  The sums are taken on the lengths scaled by a power
    of two (``_unit_scaled``), so the verdict does not depend on scale.
    """
    if not is_generic(L):
        raise NonGenericLengthsError(
            "length set is not generic; the classification predicates can tie")
    vals = np.sort(_unit_scaled(L))[::-1]
    total = float(np.sum(vals))
    if vals[0] > total - vals[0]:
        return LinkageTopology("empty", None)
    dim = len(L) - 3
    if vals[1] + vals[2] > 0.5 * total:
        return LinkageTopology("two-components", dim)
    return LinkageTopology("connected", dim)


def sample_configuration(L: LinkageLengths, seed: int = 0) -> np.ndarray:
    """One closed configuration, normalized so the first angle is zero.

    Solves ``sum_r M_r exp(i theta_r) = 0`` by damped least squares
    from up to ``SAMPLE_RESTARTS`` seeded random starts, on the lengths
    scaled by a power of two (``_unit_scaled``), which leaves the angles
    unchanged.  Works for any solvable length set, not only generic
    ones; an unsolvable set, or one no start closes, raises.
    """
    m = len(L)
    vals = _unit_scaled(L)
    total = float(np.sum(vals))
    top = float(np.max(vals))
    if m == 1 or top > total - top + GENERICITY_TOL * total:
        raise EmptyConfigurationError(
            "largest length exceeds the sum of the others; no closed "
            "configuration exists")
    rng = np.random.default_rng(seed)
    target = 1e-12 * total
    signed = np.stack([-vals[1:], vals[1:]])  # scales the Jacobian rows
    theta = np.zeros(m)
    for attempt in range(SAMPLE_RESTARTS):
        # two bars first try the flat fold, which draws nothing
        theta[1:] = (np.pi if attempt == 0 and m == 2
                     else rng.uniform(0.0, TWO_PI, size=m - 1))
        r = _closure(vals, theta)
        for _ in range(200):
            if float(np.hypot(r[0], r[1])) <= target:
                return np.mod(theta, TWO_PI)
            J = signed * np.stack([np.sin(theta[1:]), np.cos(theta[1:])])
            delta = np.zeros(m)
            delta[1:] = _lstsq(J[None], -r[None])[0]
            f0 = float(r @ r)
            t = 1.0
            while t >= 2.0 ** -14:
                trial = theta + t * delta
                rc = _closure(vals, trial)
                if float(rc @ rc) < f0 * (1.0 - 0.25 * t) + 1e-300:
                    break
                t *= 0.5
            else:
                break
            theta, r = trial, rc
    raise EmptyConfigurationError(
        f"no closed configuration found after {SAMPLE_RESTARTS} restarts; "
        f"the length set may be on the solvability boundary")


def _closure(vals: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Real and imaginary part of the closure residual of ``theta``."""
    z = np.sum(vals * np.exp(1j * theta))
    return np.array([z.real, z.imag])


@dataclass(frozen=True, eq=False)
class ExceptionalAnalysis:
    """Full analysis of an exceptional critical point: the vanishing
    vertex, the eigenvalue's position in the reduced block (that vertex
    removed), the bar lengths and angles in ascending neighbour order
    and their closure residual, the shift coefficient, the predicted
    manifold dimension, connectivity and Morse-Bott index with the
    reduced surplus behind it, the numerical Hessian's index and
    nullity, and the number of manifold samples checked."""

    vanishing_vertex: int
    k_reduced: int
    lengths: LinkageLengths
    link_angles: np.ndarray
    shift_coefficient: float
    manifold_dimension: int
    surplus_reduced: int
    morse_index_predicted: int
    connectivity: LinkageTopology
    hessian_index: int
    hessian_nullity: int
    closure_residual: float
    manifold_samples_checked: int


def analyze_exceptional(h: SupportedMatrix, k: int, *,
                        tol_degeneracy: float = DEGENERACY_TOL,
                        tol_vanish: float = VANISH_TOL,
                        seed: int = 0) -> ExceptionalAnalysis:
    """Analyze the operator ``h`` at a critical point of its k-th
    eigenvalue whose eigenvector vanishes at exactly one vertex.

    ``h`` is read as given, real or complex; a ``TorusPoint`` passes
    its ``operator()``.  Verifies the three hypotheses (simple
    eigenvalue of the reduced block, generic bar lengths, a shift
    coefficient beyond ``SHIFT_COEFF_TOL``, checked also at
    ``MANIFOLD_SAMPLES`` points of the critical manifold), predicts the
    critical manifold dimension and Morse-Bott index from the linkage
    data, and cross-checks both against the numerical eigenvalue
    Hessian, whose nullity is cut at ``morse.RANK_TOL``, read when it
    runs.  Any mismatch between prediction and numerics raises, as does
    a point outside the analyzer's scope (no vanishing vertex, or more
    than one).  A zero edge entry raises ``NotProperlySupportedError``
    before anything is solved.
    """
    entry_phases(h.offdiag)  # refuses a zero edge entry, as the scan does
    es = eigh(h)
    try:
        s, checks = _checked(h, k, es, tol_degeneracy=tol_degeneracy,
                             tol_vanish=tol_vanish)
    except NonSimpleEigenvalueError as exc:
        raise LinkageHypothesisError(
            f"eigenvalue {k} has multiplicity {exc.multiplicity}; the "
            f"analysis needs a simple eigenvalue", hypothesis=1) from exc
    if _kinds(s, np.array([h.norm_fro]), checks)[0] == "smooth-regular":
        raise NotCriticalError(
            f"gradient is nonzero (max imaginary product "
            f"{np.max(np.abs(s.products.imag), initial=0.0):.3e}); not a "
            f"critical point")
    v, lam = es.vector(k), es.value(k)
    vanishing = np.flatnonzero(checks.vanishing[0, k - 1]).tolist()
    if len(vanishing) == 0:
        raise VanishingEigenvectorError(
            "eigenvector vanishes nowhere; this is a symmetry-type point, "
            "not an exceptional one", vertices=())
    if len(vanishing) > 1:
        raise AdmissibilityError(
            f"eigenvector vanishes at {vanishing}; the analysis covers a "
            f"single vanishing vertex only")
    v0 = vanishing[0]
    scale = h.norm_fro

    # Rotate the eigenvector entrywise real nonnegative; the operator
    # follows by the matching vertex-phase action and its block away
    # from the vanishing vertex becomes real.
    phases = np.angle(v)
    phases[v0] = 0.0
    rotated = gauge_transform(GaugePhase(phases), h)
    w = (v * np.exp(-1j * phases)).real

    g = h.graph
    neighbors = np.array(g.adjacency[v0])
    if len(neighbors) < 3:
        raise AdmissibilityError(
            f"vanishing vertex has degree {len(neighbors)}; the linkage "
            f"analysis needs degree at least 3")
    sub = induced_subgraph(g, np.delete(np.arange(g.n), v0))

    # Row of the vanishing vertex in ascending neighbour order; entries
    # are stored for the canonical orientation, so conjugate where u < v0.
    at_v0 = np.any(g.endpoints == v0, axis=1)
    row = rotated.offdiag[at_v0]
    coupling = np.where(neighbors > v0, row, np.conj(row))

    sub_off = rotated.offdiag[~at_v0]
    imag_worst = float(np.max(np.abs(sub_off.imag))) if sub_off.size else 0.0
    if imag_worst > 1e-8 * scale:
        raise InternalCrossCheckError(
            f"reduced block should be real after rotation; found imaginary "
            f"part {imag_worst:.3e}")
    reduced = SupportedMatrix(sub, np.delete(rotated.diag, v0), sub_off.real)

    es_sub = eigh(reduced)
    k_red = int(np.argmin(np.abs(es_sub.values - lam))) + 1
    if abs(es_sub.value(k_red) - lam) > 1e-7 * max(1.0, scale):
        raise InternalCrossCheckError(
            f"eigenvalue {lam:.6g} not found in the reduced spectrum")
    m_red, _ = multiplicity(es_sub, k_red, tol_degeneracy)
    if m_red != 1:
        raise LinkageHypothesisError(
            f"reduced eigenvalue has multiplicity {m_red}; hypothesis (1) "
            f"fails", hypothesis=1)

    bar = coupling * w[neighbors]
    lengths = LinkageLengths(np.abs(bar))
    angles = np.mod(np.angle(bar), TWO_PI)
    closure = abs(np.sum(bar)) / float(np.sum(np.abs(bar)))
    if closure > 1e-8:
        raise InternalCrossCheckError(
            f"bar vectors fail to close up (residual {closure:.3e}); the "
            f"eigen-equation at the vanishing vertex is not satisfied")
    try:
        topology = solvability_and_connectivity(lengths)
    except NonGenericLengthsError as exc:
        raise LinkageHypothesisError(
            "bar lengths are not generic; hypothesis (2) fails",
            hypothesis=2) from exc

    c = resolvent_coefficient(es, k, v0, tol_degeneracy)
    if abs(c) <= SHIFT_COEFF_TOL:
        raise LinkageHypothesisError(
            f"spectral shift coefficient {c:.3e} is degenerate; "
            f"hypothesis (3) fails", hypothesis=3)

    dim = len(neighbors) - 3
    samples_checked = 0
    if dim > 0:
        samples_checked = _check_manifold_samples(
            rotated, v0, neighbors, lengths, w, k, lam, c, seed,
            tol_degeneracy)

    surplus_red = nodal_surplus(reduced, k_red, es=es_sub,
                                tol_degeneracy=tol_degeneracy,
                                tol_vanish=tol_vanish)
    predicted = surplus_red + (2 if c < 0.0 else 0)

    hess = _hessian(s, g.spanning_forest, tol_degeneracy)[0]
    index, nullity = morse_index(hess)
    if nullity != dim:
        raise InternalCrossCheckError(
            f"numerical Hessian nullity {nullity} differs from the predicted "
            f"manifold dimension {dim}")
    if index != predicted:
        raise InternalCrossCheckError(
            f"numerical Morse index {index} differs from the predicted "
            f"index {predicted}")

    return ExceptionalAnalysis(
        vanishing_vertex=v0,
        k_reduced=k_red,
        lengths=lengths,
        link_angles=angles,
        shift_coefficient=float(c),
        manifold_dimension=dim,
        surplus_reduced=surplus_red,
        morse_index_predicted=predicted,
        connectivity=topology,
        hessian_index=index,
        hessian_nullity=nullity,
        closure_residual=float(closure),
        manifold_samples_checked=samples_checked,
    )


def _check_manifold_samples(rotated: SupportedMatrix, v0: int, neighbors,
                            lengths: LinkageLengths, w, k: int, lam, c_ref,
                            seed: int, tol_degeneracy: float) -> int:
    """Spot-check the hypotheses along the critical manifold.

    Rebuilds the operator at ``MANIFOLD_SAMPLES`` freshly sampled
    closed configurations, working in the frame where the eigenvector
    is real: replacing the phases of the vanishing-vertex row while
    keeping moduli stays on the critical manifold.  Verifies the
    eigenvalue stays simple, stays at position k, and that the shift
    coefficient keeps its sign and stays beyond ``SHIFT_COEFF_TOL``.  A
    finite sample only; this does not prove the hypotheses over the
    whole manifold.
    """
    g = rotated.graph
    at_v0 = np.any(g.endpoints == v0, axis=1)
    checked = 0
    for i in range(MANIFOLD_SAMPLES):
        theta = sample_configuration(lengths, seed=seed + 17 * i + 1)
        # New bar vectors M_j exp(i theta_j); the stored entry is
        # h_{v0,u} when v0 < u and its conjugate otherwise, and the
        # eigenvector is real positive at u.
        value = lengths.lengths * np.exp(1j * theta) / w[neighbors]
        off = rotated.offdiag.copy()
        off[at_v0] = np.where(neighbors > v0, value, np.conj(value))
        esq = eigh(SupportedMatrix(g, rotated.diag, off))
        kq = int(np.argmin(np.abs(esq.values - lam))) + 1
        try:
            cq = resolvent_coefficient(esq, kq, v0, tol_degeneracy)
        except NonSimpleEigenvalueError as exc:
            raise LinkageHypothesisError(
                f"sampled manifold point {i} has a degenerate eigenvalue; "
                f"hypothesis (3) quantifies over the manifold and fails",
                hypothesis=3) from exc
        if kq != k:
            config = ", ".join(f"{a:.6g}" for a in theta)
            raise LinkageHypothesisError(
                f"eigenvalue leaves position k={k} along the manifold "
                f"(sample {i}: position {kq}, configuration [{config}]); "
                f"hypothesis (3) fails", hypothesis=3)
        if abs(cq) <= SHIFT_COEFF_TOL or (cq < 0) != (c_ref < 0):
            raise LinkageHypothesisError(
                f"shift coefficient changes sign or degenerates along the "
                f"manifold (sample {i}: {cq:.3e}); hypothesis (3) fails",
                hypothesis=3)
        checked += 1
    return checked


@dataclass(frozen=True, eq=False)
class ExceptionalFixture:
    """A constructed operator with a known exceptional critical point."""

    h: SupportedMatrix
    k: int
    point: TorusPoint
    eigenvalue: float
    vanishing_vertex: int
    degree: int


def build_exceptional_fixture(degree: int, seed: int = 0
                              ) -> ExceptionalFixture:
    """Construct an exceptional critical point with prescribed degree.

    Joins a fresh vertex 0 to a complete graph by ``degree`` edges,
    chooses a real reduced matrix with negative couplings so its bottom
    eigenvector is positive, scales the joining entries into a solvable
    generic linkage, and twists the joining edges so the bar vectors
    close up.  The resulting torus point has the complete block real,
    eigenvalue equal to the reduced bottom eigenvalue, and eigenvector
    vanishing exactly at vertex 0.  Raises ``RuntimeError`` when none of
    ``FIXTURE_ATTEMPTS`` random draws gives one.
    """
    if degree < 3:
        raise ValueError("the construction needs degree at least 3")
    # Canonical order puts the joining edges (0, u) first.
    g = complete_graph(degree + 1)
    sub = induced_subgraph(g, range(1, degree + 1))

    rng = np.random.default_rng(seed)
    for attempt in range(FIXTURE_ATTEMPTS):
        diag_sub = rng.uniform(0.0, 1.0, size=degree)
        off_sub = -rng.uniform(1.0, 2.0, size=sub.num_edges)
        reduced = SupportedMatrix(sub, diag_sub, off_sub)
        es_sub = eigh(reduced)
        m_sub, _ = multiplicity(es_sub, 1)
        if m_sub != 1:
            continue
        vpos = es_sub.vector(1)
        if np.any(vpos <= 1e-6):
            continue
        lam = es_sub.value(1)

        b = rng.uniform(0.5, 1.5, size=degree) * rng.choice([-1.0, 1.0],
                                                            size=degree)
        lengths = LinkageLengths(np.abs(b) * vpos)
        try:
            if solvability_and_connectivity(lengths).kind == "empty":
                continue
        except NonGenericLengthsError:
            continue
        theta = sample_configuration(lengths, seed=seed + attempt)

        a = float(rng.uniform(0.0, 1.0))
        h = SupportedMatrix(g, np.concatenate([[a], diag_sub]),
                            np.concatenate([b, off_sub]))
        # Twist so each bar vector b_u * v_u lands at theta.
        twist = np.concatenate([theta - np.where(b > 0, 0.0, np.pi),
                                np.zeros(sub.num_edges)])
        point = TorusPoint.from_operator(h, OneForm(g, twist))
        hp = point.operator()
        es = eigh(hp)
        k = int(np.argmin(np.abs(es.values - lam))) + 1
        if abs(es.value(k) - lam) > 1e-9 * max(1.0, h.norm_fro):
            continue
        try:
            c = resolvent_coefficient(es, k, 0)
        except NonSimpleEigenvalueError:
            continue
        if abs(c) <= 10 * SHIFT_COEFF_TOL:
            continue
        full_vec = np.zeros(g.n)
        full_vec[1:] = vpos
        resid = float(np.linalg.norm(hp.to_dense() @ full_vec
                                     - lam * full_vec))
        if resid > 1e-9 * max(1.0, h.norm_fro):
            continue
        return ExceptionalFixture(h, k, point, lam, 0, degree)
    raise RuntimeError(
        f"could not build an admissible fixture of degree {degree} after "
        f"{FIXTURE_ATTEMPTS} attempts")
