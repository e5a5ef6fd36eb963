"""Alternating paths in oriented graphs under pseudo-semidegree thresholds.

Constructive rotation-based finder, exact brute-force oracles, and
exhaustive/randomized verification sweeps for the 5k/8 threshold.
"""

from .altpath import AlternatingPath, greedy_extend, path_from_verts, trim, validate
from .graph_core import (
    DegreeSummary,
    OrientedGraph,
    blowup_directed_cycle,
    from_edge_list,
    min_pseudo_semidegree,
    min_semidegree,
    random_oriented,
)
from .oracle import OracleBudget, has_alt_path_k, longest_alt_path_exact
from .rotation_engine import (
    EngineBudget,
    FinderOutcome,
    condition_holds,
    find_alternating_path,
)

__all__ = [
    "AlternatingPath",
    "DegreeSummary",
    "EngineBudget",
    "FinderOutcome",
    "OracleBudget",
    "OrientedGraph",
    "blowup_directed_cycle",
    "condition_holds",
    "find_alternating_path",
    "from_edge_list",
    "greedy_extend",
    "has_alt_path_k",
    "longest_alt_path_exact",
    "min_pseudo_semidegree",
    "min_semidegree",
    "path_from_verts",
    "random_oriented",
    "trim",
    "validate",
]
