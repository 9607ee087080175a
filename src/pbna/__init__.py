"""Precoding-based network alignment for multi-groupcast linear network coding.

Pipeline: load a DAG with groupcast demands, validate the unit-mincut regime,
build the bipartite interference graph, sparsify cycles away with the minimal
extra-decode quota d*, construct aligned precoding vectors over L + d* + 1
slots, and simulate exact decoding at per-source rate 1/(L + d* + 1).
"""

from .gf import InvalidModulus
from .interference import build_igraph
from .network import AssumptionViolation, ParseError, load_network_file, realize, validate_assumptions
from .precoding import ConstraintViolation, plan_with_resampling
from .simulate import run_session
from .sparsify import find_dstar

__version__ = "0.1.0"

__all__ = [
    "load_network_file",
    "validate_assumptions",
    "realize",
    "build_igraph",
    "find_dstar",
    "plan_with_resampling",
    "run_session",
    "ParseError",
    "AssumptionViolation",
    "InvalidModulus",
    "ConstraintViolation",
]
