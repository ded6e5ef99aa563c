"""Multi-agent grid route planning against boolean visit/end formulas.

The pipeline: a grid environment becomes a Petri net whose tokens are
agents; the net is shrunk to its labeled places connected by shortest
inter-label move sequences, extended with saturating visit-indicator
places, and unfolded offline into a reachability tree whose nodes carry
exact minimal costs. Online, a formula is compiled to marking constraints,
the cheapest satisfying node is picked, and the witness path is folded
back to per-agent cell routes.
"""

from .basis_graph import BasisGraph, build_graph
from .bench import BenchConfig, run_bench
from .cache import load_offline, net_digest, save_offline
from .errors import (CacheError, SpecError, StateBudgetError, TampError,
                     ValidationError)
from .grid import Plan, cost_text, load_env, parse_env, plan_json_text
from .oracle import joint_search
from .planner import Infeasible, backtrack, build_offline, plan
from .taskspec import parse

__version__ = "0.1.0"

# The documented API (README, "Python API"); everything else is imported
# from its submodule.
__all__ = [
    # maps and formulas
    "load_env", "parse_env", "parse",
    # the offline model
    "build_offline", "save_offline", "load_offline", "net_digest",
    "build_graph", "BasisGraph", "backtrack",
    # queries
    "plan", "Plan", "Infeasible",
    # output
    "plan_json_text", "cost_text",
    # cross-checks and sweeps
    "joint_search", "run_bench", "BenchConfig",
    # errors
    "TampError", "ValidationError", "SpecError", "CacheError",
    "StateBudgetError",
]
