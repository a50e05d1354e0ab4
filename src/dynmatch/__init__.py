"""Approximate maximum-weight matching in fully-dynamic graphs.

Two maintenance strategies over a common graph/matching core:

* :class:`RandomWalkMwm` - randomized augmenting walks with an exact DP on
  the walked path;
* :class:`LevelMwm` - geometric weight buckets, each running a dynamic
  cardinality matching (:class:`DynamicMcm`), greedily merged.

:func:`dynmatch.oracle.exact_mwm` computes the exact desk-scale optimum
that scores them; the benchmark harness (streams, replay, profiles, CLI)
lives in :mod:`dynmatch.harness`.
"""

from .errors import (
    AbsentEdgeError,
    MatchingCorruptionError,
    OracleLimitError,
    ReplayError,
    StreamParseError,
)
from .graph import DynamicGraph
from .levels import LevelConfig, LevelMwm
from .mcm import DynamicMcm
from .random_walk import RandomConfig, RandomWalkMwm

__version__ = "0.1.0"

__all__ = [
    "AbsentEdgeError",
    "DynamicGraph",
    "DynamicMcm",
    "LevelConfig",
    "LevelMwm",
    "MatchingCorruptionError",
    "OracleLimitError",
    "RandomConfig",
    "RandomWalkMwm",
    "ReplayError",
    "StreamParseError",
]
