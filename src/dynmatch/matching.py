"""Matching bookkeeping shared by every algorithm in the package.

A UnitMatching is deliberately dumb: it stores who is matched to whom and
refuses anything that would break the matching property.  A MatchingState
also stores the weight each matched edge had at match time, at both
endpoints, so both index the matching by vertex only.  Weights are stored
there (not read back from the graph) because deletion handlers run after
the edge has already left the graph and still need to subtract its weight.
"""

from __future__ import annotations

import math

from .errors import MatchingCorruptionError
from .graph import DynamicGraph, Weight, edge_key

FREE = -1


class UnitMatching:
    """A cardinality matching over vertices {0, ..., n-1}: the mate list only.

    The per-level workers keep this; MatchingState adds weights on top.
    """

    __slots__ = ("n", "_mate", "_watchers")

    def __init__(self, n: int) -> None:
        self.n = n
        self._mate = [FREE] * n
        self._watchers: list[set[int]] = []

    def watch(self) -> set[int]:
        """A set that every later change adds the vertices whose mate changed to.

        The caller owns the set and clears it once it has consumed the
        vertices; this is the change set Δ that incremental readers and
        audits work from.
        """
        changed: set[int] = set()
        self._watchers.append(changed)
        return changed

    def mate_of(self, u: int) -> int:
        """Partner of u, or FREE (-1)."""
        return self._mate[u]

    def match_edge(self, u: int, v: int) -> None:
        """Match (u, v); both endpoints must be free."""
        if u == v:
            raise ValueError(f"cannot match vertex {u} to itself")
        if self._mate[u] != FREE or self._mate[v] != FREE:
            raise ValueError(
                f"cannot match ({u}, {v}): endpoint already matched "
                f"(mate({u})={self._mate[u]}, mate({v})={self._mate[v]})"
            )
        self._mate[u] = v
        self._mate[v] = u
        for changed in self._watchers:
            changed.add(u)
            changed.add(v)

    def unmatch(self, u: int) -> None:
        """Remove the matched edge containing u; u must be matched."""
        v = self._mate[u]
        if v == FREE:
            raise ValueError(f"vertex {u} is not matched")
        self._mate[u] = FREE
        self._mate[v] = FREE
        for changed in self._watchers:
            changed.add(u)
            changed.add(v)

    def matched_pairs(self) -> list[tuple[int, int]]:
        """Matched edges as canonical (u, v) pairs, ascending; O(n)."""
        return [(u, v) for u, v in enumerate(self._mate) if u < v]

    def matched_count(self) -> int:
        return (self.n - self._mate.count(FREE)) // 2


class MatchingState(UnitMatching):
    """A matching with the weight each matched edge had at match time and
    an incremental weight sum.

    ``_mw[x]`` is the weight of x's matched edge, written at both endpoints,
    and 0 while x is free.
    """

    __slots__ = ("_mw", "total_weight")

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._mw: list[Weight] = [0] * n
        self.total_weight: Weight = 0

    def match_edge(self, u: int, v: int, w: Weight) -> None:
        """Match (u, v) with weight w > 0; both endpoints must be free."""
        if not w > 0:
            raise ValueError(f"matched edge weight must be positive, got {w!r}")
        UnitMatching.match_edge(self, u, v)
        self._mw[u] = self._mw[v] = w
        self.total_weight += w

    def unmatch(self, u: int) -> None:
        v = self._mate[u]
        UnitMatching.unmatch(self, u)
        self.total_weight -= self._mw[u]
        self._mw[u] = self._mw[v] = 0

    def stored_weight(self, u: int) -> Weight:
        """Weight recorded for u's matched edge at match time."""
        if self._mate[u] == FREE:
            raise ValueError(f"vertex {u} is not matched")
        return self._mw[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchingState(n={self.n}, matched={self.matched_count()}, "
            f"weight={self.total_weight})"
        )


def _check_total(maintained: Weight, recomputed: Weight) -> None:
    """Exact comparison for int weights, 1e-9 relative/absolute otherwise."""
    if isinstance(maintained, int) and isinstance(recomputed, int):
        drift = maintained != recomputed
    else:
        drift = not math.isclose(maintained, recomputed, rel_tol=1e-9, abs_tol=1e-9)
    if drift:
        raise MatchingCorruptionError(
            f"weight drift: maintained {maintained}, recomputed {recomputed}"
        )


class MatchingAuditor:
    """Audits one MatchingState against its graph in O(Δ) per shallow check.

    Δ is every vertex whose mate changed (per the state) or whose incident
    edges changed (per the graph) since the previous check; both sets are
    collected through ``watch``, so they include edges deleted or inserted
    without the algorithm being told.  A check verifies, at each vertex of
    Δ, that a free vertex stores no weight, and at a matched one mate
    symmetry, that both mates store the same weight, that the pair is a
    graph edge and that the stored weight equals the graph weight.  It then
    compares the state's ``total_weight`` with a sum the auditor maintains
    itself from the pairs it has verified.  Corruption at a vertex outside
    Δ (state or graph internals written directly) is only seen by the deep
    check: it forgets every verified pair and runs the same check with
    every vertex in Δ, in O(n).  The state keeps nothing but per-vertex
    entries and the total, so that check covers all of it.

    Construction runs the deep check, so the first audit is always full.
    """

    __slots__ = ("state", "graph", "_state_changes", "_graph_changes",
                 "_mate", "_weight", "_total")

    def __init__(self, state: MatchingState, graph: DynamicGraph) -> None:
        self.state = state
        self.graph = graph
        self._state_changes = state.watch()
        self._graph_changes = graph.watch()
        self.check(deep=True)

    def check(self, deep: bool = False) -> None:
        """Shallow O(Δ) check, or with ``deep`` the same check at every
        vertex; raises MatchingCorruptionError on any breach."""
        state = self.state
        if deep:
            touched = range(state.n)
            # _mate[x] and _weight[x]: the mate and pair weight at x as last
            # verified (FREE when none).
            self._mate = [FREE] * state.n
            self._weight = [0] * state.n
            self._total = 0
        else:
            touched = self._state_changes | self._graph_changes
        self._state_changes.clear()
        self._graph_changes.clear()
        snap = self._mate
        weight = self._weight
        # Retire the pairs verified earlier at touched vertices ...
        for x in touched:
            y = snap[x]
            if y != FREE:
                snap[x] = snap[y] = FREE
                self._total -= weight[x]
        # ... and verify and count the pairs there now.
        mate = state._mate
        mw = state._mw
        gw = self.graph._weight
        for x in touched:
            y = mate[x]
            if y == FREE:
                if mw[x]:
                    raise MatchingCorruptionError(
                        f"a weight stored at free vertex {x}: {mw[x]!r}"
                    )
                continue
            if snap[x] == y:
                continue
            if not 0 <= y < state.n or mate[y] != x:
                raise MatchingCorruptionError(
                    f"mate array out of sync at vertex {x}: mate[{x}]={y}, "
                    + (f"mate[{y}]={mate[y]}" if 0 <= y < state.n else "not a vertex")
                )
            w = mw[x]
            if mw[y] != w:
                raise MatchingCorruptionError(
                    f"vertices {x} and {y} are mates but store different "
                    f"weights {w!r} and {mw[y]!r}"
                )
            key = edge_key(x, y)
            stored = gw.get(key)
            if stored is None:
                raise MatchingCorruptionError(
                    f"matched pair {key} is not an edge of the graph"
                )
            if stored != w:
                raise MatchingCorruptionError(
                    f"matched pair {key} stored weight {w!r} "
                    f"!= graph weight {stored!r}"
                )
            snap[x] = y
            # mate[y] is x, but as the state's own int: a deep check's
            # range makes new ones, which the snapshot would keep alive.
            snap[y] = mate[y]
            weight[x] = weight[y] = w
            self._total += w
        _check_total(state.total_weight, self._total)
