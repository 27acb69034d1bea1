"""Exact power domination toolkit.

Observation process, exact gamma_P / propagation-time solving, bound
reports with exact rationals, the three-level counterexample family,
monotone trail extraction, and tree certificates. Hot propagation kernels
run on a compiled backend when available, with a pure Python fallback
(BACKEND reports which one is active).

The package namespace holds the names the README and the command line
use; everything else is imported from its submodule.
"""

from ._kernel import BACKEND
from .bounds import bounds_report
from .errors import InternalConsistencyError, PowerdomError, SearchBudgetExceeded
from .families import gen_h_delta
from .graph import Graph, parse_graph, write_graph
from .propagation import is_pds, propagate
from .solver import DEFAULT_WORK_LIMIT, gamma_p, l_round_number, ppt_graph
from .trails import extract_monotone_trail
from .tree_analysis import verify_tree_diameter_bound

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DEFAULT_WORK_LIMIT",
    "Graph",
    "InternalConsistencyError",
    "PowerdomError",
    "SearchBudgetExceeded",
    "bounds_report",
    "extract_monotone_trail",
    "gamma_p",
    "gen_h_delta",
    "is_pds",
    "l_round_number",
    "parse_graph",
    "ppt_graph",
    "propagate",
    "verify_tree_diameter_bound",
    "write_graph",
]
