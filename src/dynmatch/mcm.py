"""Dynamic maximum-cardinality matching subroutines.

These are the per-level workers of the weight-bucketed matcher, but stand on
their own for unweighted graphs.  Two search strategies, chosen once at
construction, share the same update handlers and the same commit:

* ``walk`` - one random walk per attempt (match the free neighbor, or steal
  a matched one and continue at its displaced mate); the walk fails as soon
  as it draws a vertex it has already touched, so every walk is a simple
  alternating path;
* ``bfs`` - depth-bounded alternating breadth-first search without blossom
  contraction.

Neither writes the matching while it searches.  Both read mates through an
overlay {vertex: mate} that holds only what the search has changed so far,
on top of an optional seed overlay (the edge swap of an insert), and return
the overlay once it holds an augmenting path; ``_commit`` then writes seed
and path together.  A failed attempt, the swap included, leaves no trace.

Each search from a free start is one attempt (``attempts``, and
``successes`` for those that augment).  A free start with no neighbor is a
failed attempt that runs no search and draws nothing.

Two updates leave the matching, the watch() sets and the RNG untouched: an
insert between two matched vertices, and a delete of an unmatched edge
between two matched vertices (no endpoint is free, so no attempt starts).
LevelMwm relies on this to skip those calls.

The searches are approximate by design: the depth bound cuts long
augmenting paths, an insert between two matched vertices is ignored, and
without blossom contraction the BFS can miss augmenting paths through odd
cycles.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING

from .errors import MatchingCorruptionError
from .graph import DynamicGraph
from .matching import FREE, UnitMatching

if TYPE_CHECKING:  # levels imports this module at run time
    from .levels import LevelConfig


class DynamicMcm:
    """Maintains a cardinality matching under edge updates.

    As everywhere in this package, the caller mutates the graph first and
    then invokes the handler.  The matching is a UnitMatching, mates only:
    it counts pairs and ignores the graph's weights.  The searches and
    ``audit`` read only ``graph.n``, ``graph._adj`` and ``graph.degree``,
    and of ``_adj[u]`` only its first ``degree(u)`` entries, so a LevelMwm
    level passes itself: its prefix of the shared level adjacency (see
    levels.py).  ``config`` is the owning structure's LevelConfig: its
    mcm_kind picks the search and its search_depth bounds each one.
    """

    def __init__(self, graph: DynamicGraph, config: LevelConfig, seed: int) -> None:
        self.graph = graph
        self.config = config
        self._depth = config.search_depth
        self.state = UnitMatching(graph.n)
        self.rng = random.Random(seed)
        self.attempts = 0
        self.successes = 0
        self._search = self._walk_once if config.mcm_kind == "walk" else self._bfs

    # -- update handlers -----------------------------------------------------

    def handle_insert(self, u: int, v: int) -> None:
        """React to edge (u, v) having been inserted.

        Both endpoints free: match directly.  Exactly one matched: search
        from the displaced mate with the new edge swapped in only in the
        search's seed overlay, so the swap is written together with an
        augmenting path or not at all.  Both matched: nothing, even where
        the new edge opens an augmenting path.
        """
        st = self.state
        mate = st._mate
        fu = mate[u] == FREE
        fv = mate[v] == FREE
        if fu and fv:
            st.match_edge(u, v)
            return
        if not fu and not fv:
            return
        a, b = (u, v) if fv else (v, u)  # a matched, b free
        displaced = mate[a]
        self.attempts += 1
        overlay = self._search(
            displaced, {a: b, b: a, displaced: FREE}, self.graph.degree(displaced)
        )
        if overlay is not None:
            self._commit(overlay)
            self.successes += 1

    def handle_delete(self, u: int, v: int) -> None:
        """React to edge (u, v) having been deleted.

        A matched edge is unmatched unconditionally; augmentation then
        restarts from each endpoint that is free.  An endpoint left without
        neighbors counts a failed attempt without searching.
        """
        st = self.state
        mate = st._mate
        if mate[u] == v:
            st.unmatch(u)
        degree = self.graph.degree
        for x in (u, v):
            if mate[x] == FREE:
                self.attempts += 1
                k = degree(x)
                if not k:
                    continue
                overlay = self._search(x, {}, k)
                if overlay is not None:
                    self._commit(overlay)
                    self.successes += 1

    # -- augmentation ----------------------------------------------------------

    def _walk_once(
        self, start: int, seed: dict[int, int], k: int
    ) -> dict[int, int] | None:
        """Simulate one random walk of at most search_depth steps from
        ``start``, whose degree the caller has read as ``k``.

        At the current free vertex, pick one uniformly random neighbor:
        match it if free, else steal it from its mate and continue the walk
        at the displaced vertex.  A neighbor the walk has already touched
        (one in the overlay, seed included) ends the walk as a failure, so
        the walk never steals back what it just took and its path is
        simple, like the BFS's.

        The steps go to a copy of ``seed``, an overlay {vertex: mate} over
        the touched vertices (FREE for one a steal displaced); every other
        mate is read from the state, which is not written.  An untouched
        neighbor's mate is untouched too (the overlay always holds both
        ends of a pair it breaks), so its mate comes straight from the
        state.  The copy is made at the first step that does not fail, so
        a walk that fails on its first draw allocates nothing.  Returns the
        overlay when the walk ends in a match, None when it fails.
        """
        adjs = self.graph._adj
        degree = self.graph.degree
        base = self.state._mate
        getrandbits = self.rng.getrandbits
        over = seed  # read only until the copy below
        cur = start
        for _ in range(self._depth):
            if not k:
                return None
            # rng.randrange(k), drawn the way CPython draws it, so the RNG
            # stream is the one rng.randrange would consume.
            bits = k.bit_length()
            r = getrandbits(bits)
            while r >= k:
                r = getrandbits(bits)
            nb = adjs[cur][r]
            if nb in over:
                return None
            if over is seed:
                over = dict(seed)
            displaced = base[nb]
            over[cur] = nb
            over[nb] = cur
            if displaced == FREE:
                return over
            over[displaced] = FREE
            cur = displaced
            k = degree(cur)
        return None

    def _commit(self, overlay: dict[int, int]) -> None:
        """Write a search's overlay {vertex: new mate} (its seed plus the
        augmenting path) to the state: first unmatch every pair it breaks,
        then match the pairs it makes."""
        st = self.state
        mate = st._mate
        moved = [(x, y) for x, y in overlay.items() if mate[x] != y]
        for x, _ in moved:
            if mate[x] != FREE:
                st.unmatch(x)
        for x, y in moved:
            if y != FREE and mate[x] == FREE:
                st.match_edge(x, y)

    def _bfs(self, start: int, seed: dict[int, int], k: int) -> dict[int, int] | None:
        """Alternating BFS from a free vertex of degree ``k``, reading mates
        through ``seed``; returns the seed plus the first augmenting path
        found within the depth budget, flipped, or None.  No blossom
        contraction: odd cycles can hide paths, so even within the budget
        the search is complete only on bipartite inputs."""
        adjs = self.graph._adj
        degree = self.graph.degree
        base = self.state._mate
        depth = self._depth
        # parent_odd[y] = even vertex that reached y; parent_even[z] = odd y
        # with mate z.  Even vertices extend via unmatched edges only.
        parent_odd: dict[int, int] = {}
        parent_even: dict[int, int] = {start: -1}
        queue: deque[tuple[int, int]] = deque([(start, 0)])
        while queue:
            x, d = queue.popleft()
            if d >= depth:
                continue
            mx = seed.get(x, base[x])
            # Only the first pop is the start: no vertex has it as mate.
            for y in adjs[x][: k if x == start else degree(x)]:
                if y == mx or y in parent_odd or y in parent_even:
                    continue
                z = seed.get(y, base[y])
                if z == FREE:
                    overlay = dict(seed)
                    while True:
                        overlay[x] = y
                        overlay[y] = x
                        odd = parent_even[x]  # x's mate, entered via unmatched edge
                        if odd == -1:
                            return overlay
                        x, y = parent_odd[odd], odd
                parent_odd[y] = x
                parent_even[z] = y
                queue.append((z, d + 2))
        return None

    # -- reporting ---------------------------------------------------------------

    def audit(self, name: str = "matching") -> None:
        """Check the cardinality matching against the graph the searches
        read: mates are symmetric, and each pair lies on an edge of the
        graph (the first ``degree(u)`` entries of ``_adj[u]``).  A failure
        raises MatchingCorruptionError naming ``name``."""
        adj = self.graph._adj
        degree = self.graph.degree
        mate = self.state._mate
        for u, v in enumerate(mate):
            if v == FREE:
                continue
            if mate[v] != u:
                raise MatchingCorruptionError(
                    f"{name} mate array out of sync at vertex {u}: "
                    f"mate[{u}]={v}, mate[{v}]={mate[v]}"
                )
            if u < v and v not in adj[u][: degree(u)]:
                raise MatchingCorruptionError(
                    f"{name} pair ({u}, {v}) is not an edge of its graph"
                )
