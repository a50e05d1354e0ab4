"""Weight-bucketed matching: cardinality subroutines per geometric level.

Level i holds exactly the current edges of weight >= (1+eps)^i, so levels
nest downward and an edge of weight w lives in levels 0..level_index(w).
Each level maintains its own cardinality matching (ignoring weights); the
exposed weighted matching greedily merges the per-level matchings from the
heaviest level down, charging each kept edge its true weight.  With exact
per-level matchings this loses at most a factor 2(1+eps) against the
optimum; approximate subroutines degrade that bound proportionally.

Weights must be >= 1 (so level 0 is the bottom bucket); normalize inputs by
dividing by their minimum weight if necessary.

A level's edges live in a LevelGraph, not a DynamicGraph: adjacency lists
and one position dict, no weights, no checks, no watchers.  An empty level
costs one adjacency slot and one mate entry per vertex.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import MatchingCorruptionError
from .graph import DynamicGraph, Weight, edge_key
from .matching import FREE, MatchingAuditor, MatchingState
from .mcm import DynamicMcm, McmConfig

# Below this, level counts explode (levels scale with 1/eps); callers who
# accept the cost say so explicitly.
MIN_SAFE_EPSILON = 0.1


@dataclass(frozen=True)
class LevelConfig:
    """Level granularity plus the per-level subroutine choice.

    mcm_kind selects the per-level worker, 'walk' or 'bfs' (see mcm.py);
    every level runs it at the level epsilon.
    """

    epsilon: float = 1.0
    mcm_kind: str = "walk"
    allow_small_epsilon: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.epsilon < MIN_SAFE_EPSILON and not self.allow_small_epsilon:
            raise ValueError(
                f"epsilon={self.epsilon:g} creates ~{self.level_count_for(10**9)} "
                "levels per billion weight units; pass allow_small_epsilon=True "
                "to accept the cost"
            )
        if self.mcm_kind not in ("walk", "bfs"):
            raise ValueError(
                f"mcm_kind must be 'walk' or 'bfs', got {self.mcm_kind!r}"
            )

    def level_count_for(self, max_weight: float) -> int:
        return int(math.log(max(max_weight, 1.0)) / math.log1p(self.epsilon)) + 1

    def label(self) -> str:
        return f"eps={self.epsilon:g},mcm={self.mcm_kind}"


def level_index(w: Weight, epsilon: float) -> int:
    """Largest i with (1+epsilon)^i <= w; w must be >= 1.

    The float estimate is corrected against the same power expression the
    membership test uses, so index and membership can never disagree.
    """
    if w < 1:
        raise ValueError(f"weights must be >= 1 for level bucketing, got {w!r}")
    base = 1.0 + epsilon
    i = int(math.log(w) / math.log(base))
    while base ** (i + 1) <= w:
        i += 1
    while i > 0 and base**i > w:
        i -= 1
    return i


class LevelGraph:
    """The edges of one level, as its matcher reads them: ``_adj`` only.

    ``_adj[u]`` is u's neighbor list at this level, the shared empty tuple
    until u's first edge here.  ``_pos`` maps the directed pair ``u * n + v``
    to the index of v in ``_adj[u]``.  LevelMwm writes both directly: an
    insert appends, a delete swap-removes and gives the moved entry the freed
    slot, exactly as DynamicGraph does, so a level's neighbor order is the
    one a DynamicGraph fed the same updates would hold.
    """

    __slots__ = ("n", "_adj", "_pos")

    def __init__(self, n: int) -> None:
        self.n = n
        self._adj: list[list[int] | tuple[()]] = [()] * n
        self._pos: dict[int, int] = {}


class _Level:
    __slots__ = ("index", "graph", "worker", "changed")

    def __init__(self, index: int, graph: LevelGraph, worker) -> None:
        self.index = index
        self.graph = graph
        self.worker = worker
        # Vertices whose level-matching mate changed since the merged view
        # last consumed them.
        self.changed = worker.state.watch()

    @property
    def state(self) -> MatchingState:
        return self.worker.state


class LevelMwm:
    """Fully-dynamic approximate MWM via per-level cardinality matchings.

    Levels are created lazily: observing a new maximum weight N extends the
    ladder to floor(log_{1+eps} N), populating each new level from the
    current graph in canonical edge order.  Updates touch every level the
    edge belongs to, heaviest first.

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
        self._mcm_config = McmConfig(epsilon=config.epsilon, kind=config.mcm_kind)
        self.levels: list[_Level] = []
        self._view = MatchingState(graph.n)
        # _cover[x]: index of the level whose kept pair covers x in the view,
        # or -1 when x is free there.
        self._cover = [-1] * graph.n
        self._auditor: MatchingAuditor | None = None

    # -- level plumbing -----------------------------------------------------

    def _threshold(self, i: int) -> float:
        return (1.0 + self.config.epsilon) ** i

    def _make_level(self, i: int) -> _Level:
        carrier = LevelGraph(self.graph.n)
        # Independent stream per level, derived from (seed, index) so
        # creation order cannot matter.
        worker = DynamicMcm(carrier, self._mcm_config, self.seed * 1_000_003 + i)
        return _Level(i, carrier, worker)

    def _ensure_levels(self, top: int) -> int:
        """Create levels len(levels)..top, populating from the current
        graph; returns the previous top index."""
        prev_top = len(self.levels) - 1
        if top <= prev_top:
            return prev_top
        # Level carriers are unweighted; true weights stay in the master
        # graph and are charged at merge.  Every new level takes the edges
        # at or above its threshold in this one canonical order.
        edges = sorted(self.graph.edges())
        for i in range(prev_top + 1, top + 1):
            level = self._make_level(i)
            thr = self._threshold(i)
            for u, v, w in edges:
                if w >= thr:
                    self._add_edge(u, v, (level,))
            self.levels.append(level)
        return prev_top

    # -- update handlers ------------------------------------------------------

    def _add_edge(self, u: int, v: int, levels) -> None:
        """Append edge (u, v) to the carrier of each of ``levels`` in turn,
        each followed by its worker's insert handler."""
        n = self.graph.n
        ku = u * n + v
        kv = v * n + u
        for level in levels:
            carrier = level.graph
            adj = carrier._adj
            pos = carrier._pos
            au = adj[u]
            if not au:
                au = adj[u] = []
            av = adj[v]
            if not av:
                av = adj[v] = []
            pos[ku] = len(au)
            au.append(v)
            pos[kv] = len(av)
            av.append(u)
            level.worker.handle_insert(u, v)

    def handle_insert(self, u: int, v: int, w: Weight) -> None:
        """React to edge (u, v, w) having been inserted into the master graph.

        Levels created here are populated with the edge already; the older
        ones among 0..level_index(w) get it heaviest first."""
        li = level_index(w, self.config.epsilon)
        prev_top = self._ensure_levels(li)
        self._add_edge(u, v, reversed(self.levels[: min(li, prev_top) + 1]))

    def handle_delete(self, u: int, v: int) -> None:
        """React to edge (u, v) having been deleted from the master graph.

        The edge lives in levels 0..level_index(w), a contiguous run from
        the bottom, so the levels are walked upward and the walk stops at
        the first one whose position dict lacks it.
        """
        n = self.graph.n
        ku = u * n + v
        kv = v * n + u
        for level in self.levels:
            carrier = level.graph
            pos = carrier._pos
            i = pos.pop(ku, None)
            if i is None:
                break
            adj = carrier._adj
            au = adj[u]
            last = au.pop()
            if last != v:
                au[i] = last
                pos[u * n + last] = i
            i = pos.pop(kv)
            av = adj[v]
            last = av.pop()
            if last != u:
                av[i] = last
                pos[v * n + last] = i
            level.worker.handle_delete(u, v)

    # -- merged view -------------------------------------------------------------

    def _refresh(self) -> None:
        """Bring the merged view up to date with the level matchings.

        The greedy merge keeps a level-i pair iff no kept pair of a higher
        level covers either endpoint.  Pairs within one level never share a
        vertex, so a level-i decision depends only on the levels above i.
        Work items (i, x) say "re-decide the level-i candidate at x"; a heap
        hands them out heaviest level first, so every level above i is final
        when level i is decided.  Deciding can only displace kept pairs of
        level i or below, and a displaced or freed vertex re-enters at the
        displaced pair's level and scans downward until it is covered, so
        the cascade never reaches back up.
        """
        heap: list[tuple[int, int]] = []
        for level in self.levels:
            if level.changed:
                neg_i = -level.index
                heap.extend((neg_i, x) for x in level.changed)
                level.changed.clear()
        if not heap:
            return
        heapq.heapify(heap)
        view = self._view
        vmate = view._mate
        vpairs = view._pairs
        cover = self._cover
        master_w = self.graph._weight
        level_mates = [level.state._mate for level in self.levels]
        push = heapq.heappush
        pop = heapq.heappop

        def drop(x: int) -> None:
            # Unkeep x's pair; its partner re-decides from that pair's level.
            m = vmate[x]
            j = cover[x]
            view.unmatch(x)
            cover[x] = cover[m] = -1
            push(heap, (-j, m))

        last = None
        while heap:
            item = pop(heap)
            if item == last:
                continue
            last = item
            neg_i, x = item
            i = -neg_i
            c = cover[x]
            if c > i:
                continue
            mates = level_mates[i]
            y = mates[x]
            if c == i:
                m = vmate[x]
                key = edge_key(x, m)
                # The weight test catches a delete and re-insert at another
                # weight between two refreshes.
                if m == y and vpairs[key] == master_w.get(key):
                    continue
                drop(x)
            if y != FREE and cover[y] <= i:
                for e in (x, y):
                    if cover[e] >= 0:
                        # A pair kept at a lower level is now outranked; one
                        # kept at level i has left level i's matching.
                        drop(e)
                key = edge_key(x, y)
                try:
                    view.match_edge(x, y, master_w[key])
                except KeyError:
                    raise MatchingCorruptionError(
                        f"level {i} matching pair {key} is not a master-graph edge"
                    ) from None
                cover[x] = cover[y] = i
            elif cover[x] < 0 and i > 0:
                push(heap, (neg_i + 1, x))

    @property
    def weight(self) -> Weight:
        self._refresh()
        return self._view.total_weight

    def matched_pairs(self) -> list[tuple[int, int]]:
        self._refresh()
        return sorted(self._view.matched_pairs())

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
        MatchingAuditor).  With deep, check the whole view, compare it with
        a from-scratch ``merge_levels``, and check every level's carrier,
        its membership invariant and its matching (see ``_audit_level``)."""
        self._refresh()
        if self._auditor is None:
            self._auditor = MatchingAuditor(self._view, self.graph)
        else:
            self._auditor.check(deep)
        if not deep:
            return
        reference = merge_levels(self)
        if reference._pairs != self._view._pairs:
            raise MatchingCorruptionError(
                f"merged view drift: {len(self._view._pairs)} pairs vs "
                f"{len(reference._pairs)} from a full merge"
            )
        # Levels nest: walked top down, a level expects the edges of the one
        # above plus those of weight in [its threshold, the one above's).
        n = self.graph.n
        master = sorted(
            ((w, u * n + v, v * n + u) for u, v, w in self.graph.edges()),
            reverse=True,
        )
        expect: set[int] = set()
        j = 0
        for level in reversed(self.levels):
            thr = self._threshold(level.index)
            while j < len(master) and master[j][0] >= thr:
                expect.update(master[j][1:])
                j += 1
            _audit_level(level, expect)


def _audit_level(level: _Level, expect: set[int]) -> None:
    """Deep check of one level: its carrier's positions agree with its
    adjacency, one entry per slot; its directed edge keys ``u * n + v`` are
    exactly ``expect``; its matching is a consistent matching on its edges."""
    i = level.index
    carrier = level.graph
    n = carrier.n
    adj = carrier._adj
    pos = carrier._pos

    def fail(what: str) -> None:
        raise MatchingCorruptionError(f"level {i} {what}")

    slots = sum(map(len, adj))
    if len(pos) != slots:
        fail(f"position drift: {len(pos)} entries for {slots} adjacency slots")
    if pos != {u * n + v: k for u, row in enumerate(adj) for k, v in enumerate(row)}:
        for u, row in enumerate(adj):
            for k, v in enumerate(row):
                if pos.get(u * n + v) != k:
                    fail(
                        f"position drift: {v} sits at slot {k} of {u}'s "
                        f"adjacency, its position entry says {pos.get(u * n + v)}"
                    )
    if expect != pos.keys():
        extra = pos.keys() - expect
        u, v = divmod(min(extra or expect - pos.keys()), n)
        fail(
            f"membership drift: {len(pos) // 2} edges vs {len(expect) // 2} "
            f"expected, ({u}, {v}) {'extra' if extra else 'missing'}"
        )
    state = level.state
    mate = state._mate
    for u, v in state._pairs:
        if mate[u] != v or mate[v] != u:
            fail(
                f"mate array out of sync for pair ({u}, {v}): "
                f"mate[{u}]={mate[u]}, mate[{v}]={mate[v]}"
            )
        if u * n + v not in pos:
            fail(f"matching pair ({u}, {v}) is not a level edge")
    if n - mate.count(FREE) != 2 * len(state._pairs):
        fail("mate array marks a vertex matched that no pair covers")
    if state.total_weight != len(state._pairs):
        fail(
            f"weight drift: maintained {state.total_weight}, "
            f"{len(state._pairs)} unit pairs"
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
    used = bytearray(graph.n)
    # Write the output state's internals directly -- the `used` array
    # already guarantees the pairs are vertex-disjoint, and candidate pairs
    # are canonical (min, max).
    master_w = graph._weight
    mate = out._mate
    out_pairs = out._pairs
    total: Weight = 0
    try:
        for level in reversed(structure.levels):
            for pair in sorted(level.state.matched_pairs()):
                u, v = pair
                if used[u] or used[v]:
                    continue
                used[u] = 1
                used[v] = 1
                w = master_w[pair]
                mate[u] = v
                mate[v] = u
                out_pairs[pair] = w
                total += w
    except KeyError as exc:
        raise MatchingCorruptionError(
            f"level matching pair {exc.args[0]} is not a master-graph edge"
        ) from None
    out.total_weight = total
    return out
