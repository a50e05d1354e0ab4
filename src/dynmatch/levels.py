"""Weight-bucketed matching: cardinality subroutines per geometric level.

There is one level per weight class that has had an edge.  Level i holds
exactly the current edges of weight >= (1+eps)^i, so levels nest downward
and an edge of weight w lives in every level with index <= level_index(w).
A class no edge has reached would hold exactly the edges of the next level
above it, so it gets no level.  Each level maintains its own cardinality
matching, a UnitMatching that keeps mates only and counts pairs, not
weights; the exposed weighted matching greedily merges the per-level
matchings from the heaviest level down, charging each kept edge its true
weight.  With exact per-level matchings this loses at most a factor
2(1+eps) against the optimum; approximate subroutines degrade that bound
proportionally.

Weights must lie in [1, MAX_WEIGHT] (so level 0 is the bottom bucket);
normalize inputs by dividing by their minimum weight if necessary.

Because levels nest, they share one LevelAdjacency, where each vertex's
neighbors are sorted heaviest class first: its level-i neighbors are the
prefix of class >= i.  A level stores no edges of its own, so a level costs
one mate entry per vertex.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

from .errors import MatchingCorruptionError
from .graph import MAX_WEIGHT, DynamicGraph, Weight, edge_key
from .matching import FREE, MatchingAuditor, MatchingState, UnitMatching
from .mcm import DynamicMcm

# Below this, level counts explode (levels scale with 1/eps).
MIN_SAFE_EPSILON = 0.1


@dataclass(frozen=True)
class LevelConfig:
    """Level granularity plus the per-level subroutine choice.

    mcm_kind selects the per-level worker, 'walk' or 'bfs' (see mcm.py);
    every level runs it at the level epsilon.
    """

    epsilon: float = 1.0
    mcm_kind: str = "walk"

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.epsilon < MIN_SAFE_EPSILON:
            raise ValueError(
                f"epsilon={self.epsilon:g} makes too many levels; "
                f"the minimum is {MIN_SAFE_EPSILON:g}"
            )
        if self.mcm_kind not in ("walk", "bfs"):
            raise ValueError(
                f"mcm_kind must be 'walk' or 'bfs', got {self.mcm_kind!r}"
            )

    @property
    def search_depth(self) -> int:
        """Edge budget per search; at least 1 so a free edge is always seen."""
        return max(1, math.ceil(2.0 / self.epsilon - 1.0))

    def label(self) -> str:
        return f"eps={self.epsilon:g},mcm={self.mcm_kind}"


def level_index(w: Weight, epsilon: float) -> int:
    """Largest i with (1+epsilon)^i <= w; w must be in [1, MAX_WEIGHT].

    The float estimate is corrected against the same power expression the
    membership test uses, so index and membership can never disagree.
    """
    if not 1 <= w <= MAX_WEIGHT:
        raise ValueError(
            f"weights must be finite and in [1, 2**53] for level bucketing, got {w!r}"
        )
    base = 1.0 + epsilon
    i = int(math.log(w) / math.log(base))
    while base ** (i + 1) <= w:
        i += 1
    while i > 0 and base**i > w:
        i -= 1
    return i


# _NEG_CLASS[c] is -c, one int object per class any level can have: ints
# below -5 are not cached, so each adjacency entry would otherwise hold its
# own copy.
_NEG_CLASS = tuple(-c for c in range(level_index(MAX_WEIGHT, MIN_SAFE_EPSILON) + 1))


class LevelAdjacency:
    """Every current edge once, filed under its class, as the levels read it.

    ``_adj[u]`` lists u's neighbors heaviest class first, in arrival order
    within a class; ``_neg[u]`` holds their negated classes, so it ascends
    and u's level-i neighbors are the first ``bisect_right(_neg[u], -i)``
    entries of ``_adj[u]``.  The entries of one class are all the same int
    object, ``_NEG_CLASS[c]``; the vertices are the objects the caller
    passed.  Both lists are the shared empty tuple until u's first edge.
    An update shifts the tail of one list pair per endpoint, so it
    costs O(degree) element moves.
    """

    __slots__ = ("n", "_adj", "_neg")

    def __init__(self, n: int) -> None:
        self.n = n
        self._adj: list[list[int] | tuple[()]] = [()] * n
        self._neg: list[list[int] | tuple[()]] = [()] * n

    def insert(self, u: int, v: int, c: int) -> None:
        """File edge (u, v) of class c after each endpoint's neighbors of
        class >= c."""
        adj = self._adj
        negs = self._neg
        key = _NEG_CLASS[c]
        for a, b in ((u, v), (v, u)):
            neg = negs[a]
            if not neg:
                neg = negs[a] = []
                adj[a] = []
            i = bisect_right(neg, key)
            neg.insert(i, key)
            adj[a].insert(i, b)

    def delete(self, u: int, v: int) -> int:
        """Remove edge (u, v); returns its class, or -1 when it is absent."""
        adj = self._adj
        negs = self._neg
        try:
            i = adj[u].index(v)
        except ValueError:
            return -1
        c = -negs[u][i]
        del adj[u][i], negs[u][i]
        i = adj[v].index(u)
        del adj[v][i], negs[v][i]
        return c


class _Level:
    """One level: its worker, and the graph that worker reads.

    The level is that graph: ``n``, the shared ``_adj`` and ``degree(u)``,
    u's neighbor count at this level, so u's level neighbors are the first
    ``degree(u)`` entries of ``_adj[u]``.
    """

    __slots__ = ("index", "_key", "n", "_adj", "_neg", "worker", "changed")

    def __init__(self, index: int, adjacency: LevelAdjacency, make_worker, above) -> None:
        self.index = index
        self._key = _NEG_CLASS[index]
        self.n = adjacency.n
        self._adj = adjacency._adj
        self._neg = adjacency._neg
        self.worker = make_worker(self)
        # Until now this level's graph was that of ``above``, the next level
        # up, so its matching is a matching here too.
        if above is not None:
            self.worker.state._mate[:] = above.state._mate
        # The merged view's work queue at this level (see LevelMwm._refresh):
        # the worker's matching adds every vertex whose mate it changes, and
        # the refresh adds vertices the view frees or displaces; the
        # refresh drains it.  It starts empty: every copied pair is a pair
        # of the level above too, which the merge decides first.
        self.changed = self.worker.state.watch()

    def degree(self, u: int) -> int:
        return bisect_right(self._neg[u], self._key)

    @property
    def state(self) -> UnitMatching:
        return self.worker.state


class LevelMwm:
    """Fully-dynamic approximate MWM via per-level cardinality matchings.

    ``levels`` lists one level per class that has had an edge, ascending by
    index.  The first edge of class c creates level c (see ``_ladder``)
    with the mates of the next level above it, or none if c is the new top
    class.  Every update writes the edge to the shared adjacency once and
    then calls the worker of every level the edge belongs to, the existing
    levels with index <= its class, bottom up.  A graph that holds edges at
    construction is adopted edge by edge, in canonical order.

    The merged matching is a view kept incrementally and brought up to date
    on read: each level records the vertices whose mate changed, and the
    refresh re-evaluates only the merge candidates at those vertices (see
    ``_refresh``).  Its pairs and their weights always equal
    ``merge_levels`` on the current level matchings (the total too, up to
    float rounding for non-integer weights), so reading lazily is
    observationally equivalent to merging after every update.
    """

    name = "level"

    def __init__(self, graph: DynamicGraph, config: LevelConfig, seed: int) -> None:
        self.graph = graph
        self.config = config
        self.seed = seed
        self.adjacency = LevelAdjacency(graph.n)
        self.levels: list[_Level] = []
        # _pos[c]: position of level c in ``levels``.
        self._pos: dict[int, int] = {}
        self._view = MatchingState(graph.n)
        # _cover[x]: index (class) of the level whose kept pair covers x in
        # the view, or -1 when x is free there.
        self._cover = [-1] * graph.n
        self._auditor: MatchingAuditor | None = None
        for u, v, w in sorted(graph.edges()):
            self.handle_insert(u, v, w)

    def _make_worker(self, level: _Level) -> DynamicMcm:
        # Independent stream per level, derived from (seed, index) so
        # creation order cannot matter.
        return DynamicMcm(level, self.config, self.seed * 1_000_003 + level.index)

    # -- update handlers ------------------------------------------------------

    def _ladder(self, c: int) -> int:
        """Position in ``levels`` of level c, created by the first edge of
        class c before that edge enters the shared adjacency.

        Until then level c's graph was that of the next level above, so the
        new level starts with a copy of its mates: one O(n) list copy, no
        search and no draw.  A new top class starts with no mates."""
        p = self._pos.get(c)
        if p is None:
            levels = self.levels
            p = sum(level.index < c for level in levels)
            above = levels[p] if p < len(levels) else None
            levels.insert(p, _Level(c, self.adjacency, self._make_worker, above))
            self._pos = {level.index: q for q, level in enumerate(levels)}
        return p

    def handle_insert(self, u: int, v: int, w: Weight) -> None:
        """React to edge (u, v, w) having been inserted into the master graph.

        The edge joins every level with index <= level_index(w); their
        workers then see the insert, bottom up."""
        c = level_index(w, self.config.epsilon)
        p = self._ladder(c)
        self.adjacency.insert(u, v, c)
        for level in self.levels[: p + 1]:
            level.worker.handle_insert(u, v)

    def handle_delete(self, u: int, v: int) -> None:
        """React to edge (u, v) having been deleted from the master graph.

        The edge leaves every level at once; the workers of the levels with
        index <= its class then see the delete, bottom up."""
        c = self.adjacency.delete(u, v)
        for level in self.levels[: self._pos.get(c, -1) + 1]:
            level.worker.handle_delete(u, v)

    # -- merged view -------------------------------------------------------------

    def _refresh(self) -> None:
        """Bring the merged view up to date with the level matchings.

        The greedy merge keeps a level-i pair iff no kept pair of a higher
        level covers either endpoint.  Pairs within one level never share a
        vertex, so a level-i decision depends only on the levels above i,
        and the order of decisions within a level does not matter.  Each
        level's ``changed`` set is its work queue: the vertices whose
        level-i candidate must be re-decided.  One sweep drains the sets
        from the top level down, so every level above i is final when
        level i is decided.  Deciding can only displace kept pairs of level
        i or below: a displaced vertex joins the queue of the displaced
        pair's level, found from its class, and a vertex left free joins
        the queue of the next level below, so no work ever goes back up
        and the sweep leaves every set empty.
        """
        view = self._view
        vmate = view._mate
        vmw = view._mw
        cover = self._cover
        weight_of = self.graph.weight_or_none
        levels = self.levels
        pos = self._pos
        queues = [level.changed for level in levels]
        for p in range(len(queues) - 1, -1, -1):
            todo = queues[p]
            if not todo:
                continue
            level = levels[p]
            i = level.index
            mates = level.state._mate
            while todo:
                x = todo.pop()
                c = cover[x]
                if c > i:
                    continue
                y = mates[x]
                if c == i:
                    m = vmate[x]
                    # The weight test catches a delete and re-insert at
                    # another weight between two refreshes.
                    if m == y and vmw[x] == weight_of(x, m):
                        continue
                    # x's kept pair has left level i's matching; its
                    # partner re-decides from level i.
                    view.unmatch(x)
                    cover[x] = cover[m] = -1
                    todo.add(m)
                if y != FREE and cover[y] <= i:
                    for e in (x, y):
                        j = cover[e]
                        if j >= 0:
                            # A pair kept at a lower level is now outranked;
                            # its partner re-decides from that level.
                            m = vmate[e]
                            view.unmatch(e)
                            cover[e] = cover[m] = -1
                            queues[pos[j]].add(m)
                    w = weight_of(x, y)
                    if w is None:
                        raise MatchingCorruptionError(
                            f"level {i} matching pair {edge_key(x, y)} is not "
                            "a master-graph edge"
                        )
                    view.match_edge(x, y, w)
                    cover[x] = cover[y] = i
                elif cover[x] < 0 and p > 0:
                    queues[p - 1].add(x)

    @property
    def weight(self) -> Weight:
        self._refresh()
        return self._view.total_weight

    def matched_pairs(self) -> list[tuple[int, int]]:
        self._refresh()
        return self._view.matched_pairs()

    def stats(self) -> dict[str, int]:
        return {
            "successes": sum(l.worker.successes for l in self.levels),
            "failures": sum(
                l.worker.attempts - l.worker.successes for l in self.levels
            ),
        }

    def audit(self, deep: bool = False) -> None:
        """Verify the merged view that ``weight`` and ``matched_pairs``
        expose, at the vertices touched since the last audit (see
        MatchingAuditor).  With deep, check the whole view, the shared
        adjacency against the master graph and every level's matching
        against its prefix of it, and then, its inputs checked, compare the
        view with a from-scratch ``merge_levels``."""
        self._refresh()
        if self._auditor is None:
            self._auditor = MatchingAuditor(self._view, self.graph)
        else:
            self._auditor.check(deep)
        if not deep:
            return
        self._audit_adjacency()
        for level in self.levels:
            level.worker.audit(f"level {level.index} matching")
        reference = merge_levels(self)
        view = self._view
        if reference._mate != view._mate or reference._mw != view._mw:
            x = next(
                x for x in range(view.n)
                if (view._mate[x], view._mw[x]) != (reference._mate[x], reference._mw[x])
            )
            raise MatchingCorruptionError(
                f"merged view drift at vertex {x}: mate {view._mate[x]}, weight "
                f"{view._mw[x]!r}; a full merge gives mate {reference._mate[x]}, "
                f"weight {reference._mw[x]!r}"
            )

    def _audit_adjacency(self) -> None:
        """Each vertex's entries in the shared adjacency are its master
        neighbors, each once, filed under the class of the edge's weight,
        heaviest class first."""
        eps = self.config.epsilon
        # Each distinct weight's class, worked out once per audit.
        class_of = cache(lambda w: level_index(w, eps))
        master = zip(self.graph._adj, self.graph._wts)
        adjacency = zip(self.adjacency._adj, self.adjacency._neg)
        for u, ((row, neg), (nbrs, wts)) in enumerate(zip(adjacency, master)):
            have = {(v, -c) for v, c in zip(row, neg)}
            want = {(v, class_of(w)) for v, w in zip(nbrs, wts)}
            if not len(row) == len(neg) == len(have) or have != want:
                raise MatchingCorruptionError(
                    f"level adjacency of vertex {u}: membership drift in "
                    f"{len(row)} neighbors and {len(neg)} classes, (neighbor, "
                    f"class) extra {sorted(have - want)}, missing {sorted(want - have)}"
                )
            if list(neg) != sorted(neg):
                raise MatchingCorruptionError(
                    f"level adjacency of vertex {u}: classes "
                    f"{[-c for c in neg]} are not heaviest first"
                )


def merge_levels(structure: LevelMwm) -> MatchingState:
    """Greedy merge of the per-level matchings, heaviest level first.

    Within a level, candidate edges are taken in ascending (min, max) order;
    an edge is kept iff neither endpoint is already covered.  Kept edges are
    charged their true (master graph) weight.  This is the from-scratch
    reference for LevelMwm's incremental view.
    """
    graph = structure.graph
    out = MatchingState(graph.n)
    # Write the output state's internals directly -- a vertex is covered
    # iff its mate is set, so the kept pairs are vertex-disjoint, and
    # candidate pairs are canonical (min, max).
    weight_of = graph.weight_or_none
    mate = out._mate
    mw = out._mw
    total: Weight = 0
    for level in reversed(structure.levels):
        for pair in level.state.matched_pairs():
            u, v = pair
            if mate[u] != FREE or mate[v] != FREE:
                continue
            w = weight_of(u, v)
            if w is None:
                raise MatchingCorruptionError(
                    f"level matching pair {pair} is not a master-graph edge"
                )
            mate[u] = v
            mate[v] = u
            mw[u] = mw[v] = w
            total += w
    out.total_weight = total
    return out
