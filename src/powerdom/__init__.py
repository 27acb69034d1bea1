"""Exact power domination toolkit.

Observation process, exact gamma_P / propagation-time solving, bound
reports with exact rationals, the three-level counterexample family,
monotone trail extraction, and tree certificates. Hot propagation kernels
run on a compiled backend when available, with a pure Python fallback
(BACKEND reports which one is active).
"""

from ._kernel import BACKEND
from .bounds import (
    BoundsReport,
    bounds_report,
    correct_lower_bound,
    ppt_lower_bound,
    refuted_diameter_bound,
    tree_lower_bound,
)
from .catalog import (
    canonical_certificate,
    connected_catalog,
    connected_graphs,
    full_catalog,
    nonisomorphic_graphs,
)
from .errors import (
    DisconnectedGraphError,
    GraphParseError,
    InternalConsistencyError,
    NotPowerDominatingError,
    PowerdomError,
    SearchBudgetExceeded,
)
from .families import (
    gen_complete,
    gen_cycle,
    gen_h_delta,
    gen_path,
    gen_random_connected,
    gen_random_tree,
    gen_spider,
    gen_star,
)
from .graph import Graph, parse_graph, write_graph
from .propagation import (
    UNOBSERVED,
    ObservationTrace,
    is_pds,
    ppt_of_set,
    propagate,
)
from .solver import (
    DEFAULT_WORK_LIMIT,
    GammaResult,
    PdsSolution,
    gamma_p,
    l_round_number,
    ppt_graph,
)
from .trails import MonotoneTrail, TrailCheck, extract_monotone_trail, is_monotone_trail
from .tree_analysis import TreeCertificate, repair_leaf_seeds, verify_tree_diameter_bound

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BoundsReport",
    "DEFAULT_WORK_LIMIT",
    "DisconnectedGraphError",
    "GammaResult",
    "Graph",
    "GraphParseError",
    "InternalConsistencyError",
    "MonotoneTrail",
    "NotPowerDominatingError",
    "ObservationTrace",
    "PdsSolution",
    "PowerdomError",
    "SearchBudgetExceeded",
    "TrailCheck",
    "TreeCertificate",
    "UNOBSERVED",
    "bounds_report",
    "canonical_certificate",
    "connected_catalog",
    "connected_graphs",
    "correct_lower_bound",
    "extract_monotone_trail",
    "full_catalog",
    "gamma_p",
    "gen_complete",
    "gen_cycle",
    "gen_h_delta",
    "gen_path",
    "gen_random_connected",
    "gen_random_tree",
    "gen_spider",
    "gen_star",
    "is_monotone_trail",
    "is_pds",
    "l_round_number",
    "nonisomorphic_graphs",
    "parse_graph",
    "ppt_graph",
    "ppt_lower_bound",
    "ppt_of_set",
    "propagate",
    "refuted_diameter_bound",
    "repair_leaf_seeds",
    "tree_lower_bound",
    "verify_tree_diameter_bound",
    "write_graph",
]
