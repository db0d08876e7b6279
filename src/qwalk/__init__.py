"""Continuous quantum walks on graphs and oriented graphs.

Spectral decompositions with projection idempotents, density-matrix block
structure, exact integer ratio certificates, periodicity / perfect-state-
transfer / mixing detectors, and an independent dense-exponential oracle.
"""

from .certificates import (
    RatioCertificate,
    RatioConditionAmbiguous,
    RatioConditionFailure,
    RationalApprox,
    minimum_period,
    pst_time_lower_bound,
    ratio_condition,
    rational_approx,
    squarefree_part,
)
from .detectors import (
    BestTransfer,
    DetectionReport,
    EnumerationCapExceeded,
    PhaseCheck,
    SignPattern,
    VertexBounds,
    controllability_phase_check,
    detect_local_uniform_mixing,
    detect_periodicity,
    detect_pst,
    detect_uniform_mixing,
    periodic_vertex_bounds,
    pgst_candidates,
    pgst_witness_search,
    sign_flipped,
    transfer_sign_pattern,
    verify_transfer,
)
from .graphs import (
    Graph,
    GraphParseError,
    GraphStats,
    OrientedGraph,
    bipartition,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_stats,
    natural_orientation,
    parse_graph,
    parse_oriented_graph,
    path_graph,
    serialize_graph,
    serialize_oriented_graph,
    skew_adjacency,
    star_graph,
)
from .oracle import (
    ScanResult,
    dense_expm,
    evolve_dense,
    scan_flatness,
    scan_return,
    scan_transfer,
    scan_uniform_flatness,
    unitary_grid,
)
from .spectral import (
    SpectralDecomposition,
    VertexRelation,
    decompose_graph,
    decompose_oriented,
    interlacing_check,
    spectral_decompose,
    transition_matrix,
    vertex_spectral_relation,
)
from .states import (
    AlgebraReport,
    BlockDecomposition,
    DensityMatrix,
    StateError,
    algebra_dimension,
    block_decompose,
    density_from_json,
    density_matrix,
    evolve,
    is_flat,
    maximally_mixed,
    pure_state,
    vertex_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
