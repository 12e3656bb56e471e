"""Magnetic perturbations of graph operators and their nodal statistics.

The library walks one chain of ideas end to end: real symmetric
matrices supported on a finite graph, their magnetic phase
perturbations modulo gauge, the critical points of eigenvalues on the
resulting torus, the equality of Morse indices with nodal surpluses,
the planar-linkage geometry of the critical points whose eigenvectors
vanish somewhere, and the transversality diagnostics behind the
genericity assumptions.  Everything numerical is deterministic for a
fixed seed and cross-checked against an independent computation where
the mathematics offers one.
"""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    CapExceededError,
    DegenerateDistributionError,
    DegenerateEdgeProductError,
    EdgeProductNotRealError,
    EigenSolverError,
    EmptyConfigurationError,
    GraphMismatchError,
    InadmissibleSigningError,
    InternalCrossCheckError,
    LinkageHypothesisError,
    MagnodalError,
    NonGenericLengthsError,
    NonSimpleEigenvalueError,
    NotCriticalError,
    NotProperlySupportedError,
    SchemaError,
    StratumAmbiguousError,
    VanishingEigenvectorError,
)
from .graphs import (
    Graph,
    OneForm,
    SpanningForest,
    betti_number,
    coboundary,
    connected_components,
    cycle_basis,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    num_components,
)
from .operators import (
    GaugePhase,
    SigningClasses,
    SupportedMatrix,
    abs_part,
    gauge_classes_of_signings,
    gauge_transform,
    magnetic_action,
    operator_from_json,
    operator_to_json,
    phase_form,
    signs_for_index,
)
from .spectral import (
    EigenSystem,
    eigh,
    is_nowhere_vanishing,
    multiplicity,
    resolvent_coefficient,
)
from .nodal import (
    NormalizedSurplus,
    SurplusDistribution,
    average_surplus_distribution,
    edge_products,
    nodal_count,
    nodal_surplus,
    normalized_distribution,
)
from .morse import (
    CriticalPointReport,
    ScanResult,
    TorusPoint,
    critical_scan,
    eigenvalue_gradient,
    hessian_eigenvalue,
    morse_index,
    verify_index_equals_surplus,
)
from .linkage import (
    ExceptionalAnalysis,
    LinkageLengths,
    LinkageTopology,
    analyze_exceptional,
    build_exceptional_fixture,
    is_generic,
    sample_configuration,
    solvability_and_connectivity,
)
from .transversality import (
    EigenspaceBasis,
    TransversalityReport,
    codim_stratum,
    eigenspace_basis,
    find_edge_separated_pair,
    is_transverse_at,
    support_components,
)
