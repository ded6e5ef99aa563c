"""Multi-agent grid route planning against boolean visit/end formulas.

The pipeline: a grid environment becomes a Petri net whose tokens are
agents; the net is shrunk to its labeled places connected by shortest
inter-label move sequences, extended with saturating visit-indicator
places, and unfolded offline into a reachability tree whose nodes carry
exact minimal costs. Online, a formula is compiled to marking constraints,
the cheapest satisfying node is picked, and the witness path is folded
back to per-agent cell routes.
"""

from .abstraction import (MinimalSequence, MonitoredNet, SimplifiedNet,
                          build_monitored, build_simplified, labeled_places,
                          lift, minimal_sequence)
from .basis_graph import (DEFAULT_STATE_CAP, BasisGraph, build_graph,
                          load_cache, net_digest, save_cache)
from .bench import BenchConfig, generate_instance, random_instance, run_bench
from .errors import (CacheDigestError, CacheError, CacheFormatError,
                     CacheVersionError, FiringError, IntegrityError,
                     SpecError, SpecShapeError, SpecSyntaxError,
                     StateBudgetError, TampError, UnknownPropositionError,
                     ValidationError)
from .grid import (Cell, Environment, Plan, Region, cell_labels, cost_json,
                   cost_text, env_to_pn, free_cells, grid_index, load_env,
                   parse_env, plan_json_text, plan_to_json, render)
from .oracle import DEFAULT_ORACLE_BUDGET, OracleResult, joint_search
from .petri import (END, VISIT, Atom, Marking, PetriNet, ReplayResult,
                    enabled, fire, replay, sequence_cost)
from .planner import (Infeasible, OfflineModel, TargetChoice, backtrack,
                      build_offline, decompose_agents, diagnose_infeasibility,
                      escape_steps, load_offline, plan, select_target)
from .taskspec import (BooleanSpec, SpecVectors, compile_vectors, format_spec,
                       holds, parse)

__version__ = "0.1.0"

__all__ = [
    "Atom", "BasisGraph", "BenchConfig", "BooleanSpec", "CacheDigestError",
    "CacheError", "CacheFormatError", "CacheVersionError", "Cell",
    "DEFAULT_ORACLE_BUDGET", "DEFAULT_STATE_CAP", "Environment",
    "FiringError", "Infeasible", "IntegrityError", "Marking",
    "MinimalSequence", "MonitoredNet", "OfflineModel", "OracleResult",
    "PetriNet", "Plan", "Region", "ReplayResult", "SimplifiedNet", "SpecError",
    "SpecShapeError", "SpecSyntaxError", "SpecVectors", "StateBudgetError",
    "TampError", "TargetChoice", "UnknownPropositionError", "VISIT", "END",
    "ValidationError", "backtrack", "build_graph", "build_monitored",
    "build_offline", "build_simplified", "cell_labels", "compile_vectors",
    "cost_json", "cost_text", "decompose_agents", "diagnose_infeasibility",
    "enabled", "env_to_pn", "escape_steps", "fire", "format_spec",
    "free_cells", "generate_instance", "grid_index", "holds", "joint_search",
    "labeled_places", "lift", "load_cache", "load_env", "load_offline",
    "minimal_sequence", "net_digest", "parse", "parse_env", "plan",
    "plan_json_text", "plan_to_json", "random_instance", "render", "replay",
    "run_bench", "save_cache", "select_target", "sequence_cost",
]
