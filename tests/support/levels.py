"""LevelMwm with exact per-level matchings, for the 2(1+eps) bound gates,
and readers and writers of level carriers for tests."""

from __future__ import annotations

from dynmatch.graph import DynamicGraph
from dynmatch.levels import LevelGraph, LevelMwm, _Level
from dynmatch.matching import MatchingState

from support.oracle import exact_mcm_matching


def level_edges(carrier: LevelGraph) -> list[tuple[int, int]]:
    """The carrier's edges as sorted (u, v) pairs with u < v."""
    return sorted(
        (u, v) for u, row in enumerate(carrier._adj) for v in row if u < v
    )


def add_level_edge(carrier: LevelGraph, u: int, v: int) -> None:
    """Append edge (u, v) to the carrier behind its level's back, keeping
    positions and adjacency consistent."""
    n = carrier.n
    for a, b in ((u, v), (v, u)):
        if not carrier._adj[a]:
            carrier._adj[a] = []
        carrier._pos[a * n + b] = len(carrier._adj[a])
        carrier._adj[a].append(b)


class ExactMcmBackend:
    """Reference per-level worker: recomputes an exact maximum-cardinality
    matching after every level update.  Desk scale only."""

    def __init__(self, carrier: LevelGraph) -> None:
        self.carrier = carrier
        self.state = MatchingState(carrier.n)
        self.attempts = 0
        self.successes = 0

    def _recompute(self) -> None:
        self.attempts += 1
        before = self.state.matched_count()
        self.state.clear()
        graph = DynamicGraph(self.carrier.n)
        for u, v in level_edges(self.carrier):
            graph.insert_edge(u, v, 1)
        for u, v in exact_mcm_matching(graph):
            self.state.match_edge(u, v, 1)
        if self.state.matched_count() > before:
            self.successes += 1

    def handle_insert(self, u: int, v: int) -> None:
        self._recompute()

    def handle_delete(self, u: int, v: int) -> None:
        self._recompute()


class ExactLevelMwm(LevelMwm):
    """LevelMwm whose levels each keep a maximum-cardinality matching, so
    the greedy merge is within 2(1+eps) of the optimum after every update.
    The config's mcm_kind is not used."""

    def _make_level(self, i: int) -> _Level:
        carrier = LevelGraph(self.graph.n)
        return _Level(i, carrier, ExactMcmBackend(carrier))
