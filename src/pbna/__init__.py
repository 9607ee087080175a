"""Precoding-based network alignment for multi-groupcast linear network coding.

Pipeline: load a DAG with groupcast demands, validate the unit-mincut regime,
build the bipartite interference graph, sparsify cycles away with the minimal
extra-decode quota d*, construct aligned precoding vectors over L + d* + 1
slots, and simulate exact decoding at per-source rate 1/(L + d* + 1).
"""

from .gf import DEFAULT_Q, InvalidModulus, NoSolution, RankDeficient, check_modulus, rank, solve
from .interference import (
    CyclicGraph,
    EmptyInterference,
    ForestDecomposition,
    InterferenceGraph,
    build_igraph,
    decompose,
    has_cycle,
    shortest_cycle,
    to_dot,
)
from .network import (
    AssumptionViolation,
    CycleError,
    DemandSizeError,
    Network,
    NetworkRealization,
    ParseError,
    ValidationReport,
    load_network,
    load_network_file,
    mincut,
    realize,
    validate_assumptions,
)
from .obstruction import CycleRatio, NotACycle, ObstructionReport, cycle_ratio, infeasibility_report
from .precoding import (
    AlignmentVerdict,
    ConstraintViolation,
    PrecodingPlan,
    ZeroAtAssignment,
    build_precoding,
    plan_with_resampling,
    signed_transfer,
    verify_alignment,
)
from .simulate import DecodeFailure, RateReport, SessionTrace, propagate_symbols, rate_report, run_session
from .sparsify import SparsificationResult, default_labeling, find_dstar

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_Q",
    "check_modulus",
    "rank",
    "solve",
    "InvalidModulus",
    "NoSolution",
    "RankDeficient",
    "Network",
    "NetworkRealization",
    "ValidationReport",
    "load_network",
    "load_network_file",
    "mincut",
    "realize",
    "validate_assumptions",
    "ParseError",
    "CycleError",
    "DemandSizeError",
    "AssumptionViolation",
    "InterferenceGraph",
    "ForestDecomposition",
    "build_igraph",
    "has_cycle",
    "decompose",
    "shortest_cycle",
    "to_dot",
    "EmptyInterference",
    "CyclicGraph",
    "SparsificationResult",
    "default_labeling",
    "find_dstar",
    "PrecodingPlan",
    "AlignmentVerdict",
    "signed_transfer",
    "build_precoding",
    "verify_alignment",
    "plan_with_resampling",
    "ZeroAtAssignment",
    "ConstraintViolation",
    "CycleRatio",
    "ObstructionReport",
    "cycle_ratio",
    "infeasibility_report",
    "NotACycle",
    "SessionTrace",
    "RateReport",
    "propagate_symbols",
    "run_session",
    "rate_report",
    "DecodeFailure",
]
