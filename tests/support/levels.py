"""LevelMwm with exact per-level matchings, for the 2(1+eps) bound gates,
and a reader of a level's edges for tests."""

from __future__ import annotations

from dynmatch.graph import DynamicGraph, Weight
from dynmatch.levels import LevelMwm, _Level, level_index
from dynmatch.matching import UnitMatching

from support.mcm import ExactBipartiteMcm
from support.oracle import exact_mcm_matching


def level_edges(level: _Level) -> list[tuple[int, int]]:
    """The level's edges, its prefix of the shared adjacency, as sorted
    (u, v) pairs with u < v."""
    return sorted(
        (u, v)
        for u in range(level.n)
        for v in level._adj[u][: level.degree(u)]
        if u < v
    )


class ExactMcmBackend:
    """Reference per-level worker: recomputes an exact maximum-cardinality
    matching after every level update, kept in a UnitMatching as
    DynamicMcm keeps its own.  Desk scale only."""

    def __init__(self, level: _Level) -> None:
        self.level = level
        self.state = UnitMatching(level.n)
        self.attempts = 0
        self.successes = 0

    def _recompute(self) -> None:
        self.attempts += 1
        before = self.state.matched_count()
        # Unmatch pair by pair, so the level's watch set sees every vertex.
        for u, _ in self.state.matched_pairs():
            self.state.unmatch(u)
        graph = DynamicGraph(self.level.n)
        for u, v in level_edges(self.level):
            graph.insert_edge(u, v, 1)
        for u, v in exact_mcm_matching(graph):
            self.state.match_edge(u, v)
        if self.state.matched_count() > before:
            self.successes += 1

    def handle_insert(self, u: int, v: int) -> None:
        self._recompute()

    def handle_delete(self, u: int, v: int) -> None:
        self._recompute()


class ExactLevelMwm(LevelMwm):
    """LevelMwm whose levels each keep a maximum-cardinality matching, so
    the greedy merge is within 2(1+eps) of the optimum after every update.
    The config's mcm_kind is not used.

    Its handlers call the worker of every level the edge belongs to.
    LevelMwm skips the calls a DynamicMcm ignores, but an insert between
    two vertices matched at a level can open an augmenting path through the
    new edge there, which an exact level must take."""

    def _make_worker(self, level: _Level) -> ExactMcmBackend:
        return ExactMcmBackend(level)

    def handle_insert(self, u: int, v: int, w: Weight) -> None:
        c = level_index(w, self.config.epsilon)
        p = self._ladder(c)
        self.adjacency.insert(u, v, c)
        for level in reversed(self.levels[: p + 1]):
            level.worker.handle_insert(u, v)

    def handle_delete(self, u: int, v: int) -> None:
        c = self.adjacency.delete(u, v)
        for level in self.levels[: self._pos.get(c, -1) + 1]:
            level.worker.handle_delete(u, v)


class BipartiteLevelMwm(ExactLevelMwm):
    """ExactLevelMwm whose levels run ExactBipartiteMcm, for bipartite
    graphs of any size: each level keeps a maximum matching incrementally
    instead of recomputing one, so the 2(1+eps) bound holds at bench
    scale."""

    def _make_worker(self, level: _Level) -> ExactBipartiteMcm:
        return ExactBipartiteMcm(level, self.seed * 1_000_003 + level.index)
