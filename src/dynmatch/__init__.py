"""Approximate maximum-weight matching in fully-dynamic graphs.

Two maintenance strategies over a common graph/matching core:

* :class:`RandomWalkMwm` - randomized augmenting walks with an exact DP on
  the walked path;
* :class:`LevelMwm` - geometric weight buckets, each running a dynamic
  cardinality matching, greedily merged.

Exact desk-scale references live in :mod:`dynmatch.oracle`; the benchmark
harness (streams, replay, profiles, CLI) in :mod:`dynmatch.harness`.
"""

from .errors import (
    AbsentEdgeError,
    MatchingCorruptionError,
    OracleLimitError,
    ReplayError,
    StreamParseError,
)
from .graph import DynamicGraph, edge_key
from .levels import LevelConfig, LevelMwm, level_index, merge_levels
from .matching import (
    FREE,
    MatchingState,
    assert_matching_consistent,
    matching_weight_recompute,
)
from .mcm import DynamicMcm, McmConfig
from .oracle import (
    OracleLimits,
    exact_mcm,
    exact_mcm_matching,
    exact_mwm,
    exact_mwm_enumerate,
    find_weight_augmenting_kpath,
    verify_proposition1,
)
from .paths import (
    EligibilityArray,
    WalkPath,
    apply_path_matching,
    extend_walk,
    improve_along_path,
    mwm_on_path,
    validate_walk_path,
)
from .random_walk import RandomConfig, RandomWalkMwm

__version__ = "0.1.0"

__all__ = [
    "AbsentEdgeError",
    "DynamicGraph",
    "DynamicMcm",
    "EligibilityArray",
    "FREE",
    "LevelConfig",
    "LevelMwm",
    "MatchingCorruptionError",
    "MatchingState",
    "McmConfig",
    "OracleLimitError",
    "OracleLimits",
    "RandomConfig",
    "RandomWalkMwm",
    "ReplayError",
    "StreamParseError",
    "WalkPath",
    "apply_path_matching",
    "assert_matching_consistent",
    "edge_key",
    "exact_mcm",
    "exact_mcm_matching",
    "exact_mwm",
    "exact_mwm_enumerate",
    "extend_walk",
    "find_weight_augmenting_kpath",
    "improve_along_path",
    "level_index",
    "matching_weight_recompute",
    "merge_levels",
    "mwm_on_path",
    "validate_walk_path",
    "verify_proposition1",
]
