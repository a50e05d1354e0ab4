"""LevelMwm with exact per-level matchings, for the 2(1+eps) bound gates."""

from __future__ import annotations

from dynmatch.graph import DynamicGraph
from dynmatch.levels import LevelMwm, _Level
from dynmatch.matching import MatchingState, assert_matching_consistent

from support.oracle import exact_mcm_matching


class ExactMcmBackend:
    """Reference per-level worker: recomputes an exact maximum-cardinality
    matching after every level update.  Desk scale only."""

    def __init__(self, graph: DynamicGraph) -> None:
        self.graph = graph
        self.state = MatchingState(graph.n)
        self.attempts = 0
        self.successes = 0

    def _recompute(self) -> None:
        self.attempts += 1
        before = self.state.matched_count()
        self.state.clear()
        for u, v in exact_mcm_matching(self.graph):
            self.state.match_edge(u, v, 1)
        if self.state.matched_count() > before:
            self.successes += 1

    def handle_insert(self, u: int, v: int) -> None:
        self._recompute()

    def handle_delete(self, u: int, v: int) -> None:
        self._recompute()

    def audit(self) -> None:
        assert_matching_consistent(self.state, self.graph)


class ExactLevelMwm(LevelMwm):
    """LevelMwm whose levels each keep a maximum-cardinality matching, so
    the greedy merge is within 2(1+eps) of the optimum after every update.
    The config's mcm_kind is not used."""

    def _make_level(self, i: int) -> _Level:
        lvl_graph = DynamicGraph(self.graph.n)
        return _Level(i, lvl_graph, ExactMcmBackend(lvl_graph))
