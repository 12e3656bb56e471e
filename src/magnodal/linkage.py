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
from .graphs import Graph, OneForm, induced_subgraph
from .morse import (
    CRITICAL_TOL,
    RANK_TOL,
    TorusPoint,
    _classify,
    _hessian_at,
    gauge_chart,
    morse_index,
)
from .nodal import _simple_eigen, nodal_surplus
from .operators import GaugePhase, SupportedMatrix, gauge_transform
from .spectral import (
    DEGENERACY_TOL,
    VANISH_TOL,
    eigh,
    multiplicity,
    resolvent_coefficient,
)

TWO_PI = 2.0 * np.pi

#: Signed length sums below this times the largest length are degenerate.
GENERICITY_TOL = 1e-9

#: Refusal threshold for the genericity enumeration.
LENGTH_CAP = 20

#: Spectral shift coefficients below this count as degenerate.
SHIFT_COEFF_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LinkageLengths:
    """Positive bar lengths of a planar linkage."""

    lengths: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.lengths, dtype=np.float64).copy()
        if v.ndim != 1 or v.size == 0:
            raise ValueError("lengths must be a nonempty vector")
        if np.any(v <= 0.0):
            raise ValueError("lengths must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "lengths", v)

    def __len__(self) -> int:
        return int(self.lengths.size)


def is_generic(L: LinkageLengths, tol: float = GENERICITY_TOL,
               cap: int = LENGTH_CAP) -> bool:
    """No signed sum of the lengths vanishes within tolerance.

    Checks all sign choices up to a global flip, so ``2**(m-1)`` sums,
    against ``tol`` times the largest length.  Refuses length sets
    beyond the cap.
    """
    m = len(L)
    if m > cap:
        raise CapExceededError(
            f"genericity check over {m} lengths exceeds the cap of {cap}")
    cut = tol * float(np.max(L.lengths))
    rest = L.lengths[1:]
    for bits in range(1 << (m - 1)):
        signs = np.array([-1.0 if (bits >> i) & 1 else 1.0
                          for i in range(m - 1)])
        if abs(L.lengths[0] + float(signs @ rest)) <= cut:
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
    third largest.
    """
    if not is_generic(L):
        raise NonGenericLengthsError(
            "length set is not generic; the classification predicates can tie")
    vals = np.sort(L.lengths)[::-1]
    total = float(np.sum(vals))
    if vals[0] > total - vals[0]:
        return LinkageTopology("empty", None)
    dim = len(L) - 3
    if vals[1] + vals[2] > 0.5 * total:
        return LinkageTopology("two-components", dim)
    return LinkageTopology("connected", dim)


def sample_configuration(L: LinkageLengths, seed: int = 0,
                         max_restarts: int = 60) -> np.ndarray:
    """One closed configuration, normalized so the first angle is zero.

    Solves ``sum_r M_r exp(i theta_r) = 0`` by damped least squares
    from seeded random starts.  Works for any solvable length set, not
    only generic ones; an unsolvable set raises.
    """
    m = len(L)
    vals = L.lengths
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


@dataclass(frozen=True, eq=False)
class ExceptionalAnalysis:
    """Full analysis of an exceptional critical point."""

    vanishing_vertex: int
    diag_entry: float
    coupling: np.ndarray
    reduced: SupportedMatrix
    vertex_map: dict[int, int]
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


def analyze_exceptional(p: TorusPoint, k: int, *,
                        tol_degeneracy: float = DEGENERACY_TOL,
                        tol_vanish: float = VANISH_TOL,
                        rank_tol: float = RANK_TOL,
                        shift_tol: float = SHIFT_COEFF_TOL,
                        manifold_samples: int = 4,
                        seed: int = 0) -> ExceptionalAnalysis:
    """Analyze a critical point vanishing at exactly one vertex.

    Verifies the three hypotheses (simple eigenvalue of the reduced
    block, generic bar lengths, nondegenerate shift coefficient),
    predicts the critical manifold dimension and Morse-Bott index from
    the linkage data, and cross-checks both against the numerical
    eigenvalue Hessian.  Any mismatch between prediction and numerics
    raises, as does a point outside the analyzer's scope (no vanishing
    vertex, or more than one).
    """
    try:
        s = _simple_eigen(p.operator(), k, None, tol_degeneracy)
    except NonSimpleEigenvalueError as exc:
        raise LinkageHypothesisError(
            f"eigenvalue {k} has multiplicity {exc.multiplicity}; the "
            f"analysis needs a simple eigenvalue", hypothesis=1) from exc
    crit = _classify(s, CRITICAL_TOL, tol_vanish)
    if not crit.critical:
        raise NotCriticalError(
            f"gradient is nonzero (max imaginary product "
            f"{crit.max_imag_product:.3e}); not a critical point")
    h, es, v, lam = s.h, s.es, s.v, s.lam
    vanishing = list(crit.vanishing)
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

    g = p.graph
    others = [u for u in range(g.n) if u != v0]
    neighbors = sorted(g.adjacency[v0])
    if len(neighbors) < 3:
        raise AdmissibilityError(
            f"vanishing vertex has degree {len(neighbors)}; the linkage "
            f"analysis needs degree at least 3")
    sub, vmap = induced_subgraph(g, others)

    # Row of the vanishing vertex: entries are stored for the canonical
    # orientation, so flip by conjugation where needed.
    coupling = np.empty(len(neighbors), dtype=np.complex128)
    for i, u in enumerate(neighbors):
        val = rotated.offdiag[g.index_of(v0, u)]
        coupling[i] = val if v0 < u else np.conj(val)

    sub_edges = [(r, s) for (r, s) in g.edges if r != v0 and s != v0]
    sub_off = np.array([rotated.offdiag[g.index_of(r, s)]
                        for (r, s) in sub_edges], dtype=np.complex128)
    imag_worst = float(np.max(np.abs(sub_off.imag))) if sub_off.size else 0.0
    if imag_worst > 1e-8 * scale:
        raise InternalCrossCheckError(
            f"reduced block should be real after rotation; found imaginary "
            f"part {imag_worst:.3e}")
    reduced = SupportedMatrix(sub,
                              np.array([rotated.diag[u] for u in others]),
                              sub_off.real.astype(np.complex128))

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

    c = resolvent_coefficient(h, k, v0, tol_rel=tol_degeneracy, es=es)
    if abs(c) <= shift_tol:
        raise LinkageHypothesisError(
            f"spectral shift coefficient {c:.3e} is degenerate; "
            f"hypothesis (3) fails", hypothesis=3)

    dim = len(neighbors) - 3
    samples_checked = 0
    if dim > 0 and manifold_samples > 0:
        samples_checked = _check_manifold_samples(
            rotated, v0, neighbors, lengths, w, k, lam, c, manifold_samples,
            seed, tol_degeneracy, shift_tol)

    surplus_red = nodal_surplus(reduced, k_red, es=es_sub,
                                tol_degeneracy=tol_degeneracy,
                                tol_vanish=tol_vanish)
    predicted = surplus_red + (2 if c < 0.0 else 0)

    hess = _hessian_at(s, gauge_chart(g), tol_degeneracy)
    index, nullity = morse_index(hess, rank_tol)
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
        diag_entry=float(rotated.diag[v0]),
        coupling=coupling,
        reduced=reduced,
        vertex_map=vmap,
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
                            count: int, seed: int, tol_degeneracy: float,
                            shift_tol: float) -> int:
    """Spot-check the hypotheses along the critical manifold.

    Rebuilds the operator at freshly sampled closed configurations,
    working in the frame where the eigenvector is real: replacing the
    phases of the vanishing-vertex row while keeping moduli stays on
    the critical manifold.  Verifies the eigenvalue stays simple, stays
    at position k, and that the shift coefficient keeps its sign.  A
    finite sample only; this does not prove the hypotheses over the
    whole manifold.
    """
    g = rotated.graph
    checked = 0
    for i in range(count):
        theta = sample_configuration(lengths, seed=seed + 17 * i + 1)
        off = rotated.offdiag.copy()
        for j, u in enumerate(neighbors):
            idx = g.index_of(v0, u)
            # New bar vector M_j exp(i theta_j); the stored entry is
            # h_{v0,u} when v0 < u and its conjugate otherwise, and the
            # eigenvector is real positive at u.
            value = lengths.lengths[j] * np.exp(1j * theta[j]) / w[u]
            off[idx] = value if v0 < u else np.conj(value)
        hq = SupportedMatrix(g, rotated.diag, off)
        esq = eigh(hq)
        kq = int(np.argmin(np.abs(esq.values - lam))) + 1
        mq, _ = multiplicity(esq, kq, tol_degeneracy)
        if mq != 1:
            raise LinkageHypothesisError(
                f"sampled manifold point {i} has a degenerate eigenvalue; "
                f"hypothesis (3) quantifies over the manifold and fails",
                hypothesis=3)
        if kq != k:
            config = ", ".join(f"{a:.6g}" for a in theta)
            raise LinkageHypothesisError(
                f"eigenvalue leaves position k={k} along the manifold "
                f"(sample {i}: position {kq}, configuration [{config}]); "
                f"hypothesis (3) fails", hypothesis=3)
        cq = resolvent_coefficient(hq, kq, v0, tol_rel=tol_degeneracy, es=esq)
        if abs(cq) <= shift_tol or (cq < 0) != (c_ref < 0):
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
    alpha: OneForm
    k: int
    point: TorusPoint
    eigenvalue: float
    vanishing_vertex: int
    degree: int


def build_exceptional_fixture(degree: int, seed: int = 0, *,
                              max_attempts: int = 60) -> ExceptionalFixture:
    """Construct an exceptional critical point with prescribed degree.

    Joins a fresh vertex 0 to a complete graph by ``degree`` edges,
    chooses a real reduced matrix with negative couplings so its bottom
    eigenvector is positive, scales the joining entries into a solvable
    generic linkage, and twists the joining edges so the bar vectors
    close up.  The resulting torus point has the complete block real,
    eigenvalue equal to the reduced bottom eigenvalue, and eigenvector
    vanishing exactly at vertex 0.
    """
    if degree < 3:
        raise ValueError("the construction needs degree at least 3")
    size = degree
    g_edges = [(0, u) for u in range(1, degree + 1)]
    g_edges += [(r, s) for r in range(1, size + 1)
                for s in range(r + 1, size + 1)]
    g = Graph(size + 1, tuple(g_edges))
    sub_edges = [(r, s) for (r, s) in g.edges if r != 0]
    sub = Graph(size, tuple((r - 1, s - 1) for (r, s) in sub_edges))

    rng = np.random.default_rng(seed)
    for attempt in range(max_attempts):
        diag_sub = rng.uniform(0.0, 1.0, size=size)
        off_sub = -rng.uniform(1.0, 2.0, size=len(sub_edges))
        reduced = SupportedMatrix(sub, diag_sub, off_sub.astype(np.complex128))
        es_sub = eigh(reduced)
        m_sub, _ = multiplicity(es_sub, 1)
        if m_sub != 1:
            continue
        vpos = es_sub.vector(1).copy()
        if vpos[int(np.argmax(np.abs(vpos)))] < 0:
            vpos = -vpos
        if np.any(vpos <= 1e-6):
            continue
        lam = es_sub.value(1)

        b = rng.uniform(0.5, 1.5, size=degree) * rng.choice([-1.0, 1.0],
                                                            size=degree)
        lengths = LinkageLengths(np.abs(b) * vpos[:degree])
        try:
            if solvability_and_connectivity(lengths).kind == "empty":
                continue
        except NonGenericLengthsError:
            continue
        theta = sample_configuration(lengths, seed=seed + attempt)

        a = float(rng.uniform(0.0, 1.0))
        diag = np.concatenate([[a], diag_sub])
        off = np.empty(g.num_edges, dtype=np.complex128)
        alpha_vals = np.zeros(g.num_edges)
        sub_pos = {e: i for i, e in enumerate(sub_edges)}
        for i, (r, s) in enumerate(g.edges):
            if r == 0:
                u = s
                off[i] = b[u - 1]
                # Twist so the bar vector b_u * v_u lands at theta.
                alpha_vals[i] = theta[u - 1] - (0.0 if b[u - 1] > 0 else np.pi)
            else:
                off[i] = off_sub[sub_pos[(r, s)]]
        h = SupportedMatrix(g, diag, off)
        alpha = OneForm(g, alpha_vals)
        point = TorusPoint.from_operator(h, alpha)
        hp = point.operator()
        es = eigh(hp)
        k = int(np.argmin(np.abs(es.values - lam))) + 1
        m, _ = multiplicity(es, k)
        if m != 1 or abs(es.value(k) - lam) > 1e-9 * max(1.0, h.norm_fro):
            continue
        c = resolvent_coefficient(hp, k, 0, es=es)
        if abs(c) <= 10 * SHIFT_COEFF_TOL:
            continue
        full_vec = np.zeros(g.n)
        full_vec[1:] = vpos
        resid = float(np.linalg.norm(hp.to_dense() @ full_vec
                                     - lam * full_vec))
        if resid > 1e-9 * max(1.0, h.norm_fro):
            continue
        return ExceptionalFixture(h, alpha, k, point, lam, 0, degree)
    raise RuntimeError(
        f"could not build an admissible fixture of degree {degree} after "
        f"{max_attempts} attempts")
