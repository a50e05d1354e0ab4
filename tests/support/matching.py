"""Weight recomputations the tests cross-check matchings against."""

from __future__ import annotations

from typing import Iterable

from dynmatch.errors import MatchingCorruptionError
from dynmatch.graph import DynamicGraph, Weight
from dynmatch.matching import MatchingState


def matching_weight_recompute(state: MatchingState, graph: DynamicGraph) -> Weight:
    """Sum matched-edge weights read back from the graph.

    Independent of the incrementally maintained total.  Raises
    MatchingCorruptionError when a matched pair is not an edge of the graph.
    """
    total: Weight = 0
    for pair in state.matched_pairs():
        w = graph.weight_or_none(*pair)
        if w is None:
            raise MatchingCorruptionError(
                f"matched pair {pair} is not an edge of the graph"
            )
        total += w
    return total


def matching_weight_of(pairs: Iterable[tuple[int, int]], graph: DynamicGraph) -> Weight:
    """Weight of an explicit pair list under current graph weights."""
    return sum(graph.weight(u, v) for u, v in pairs)
