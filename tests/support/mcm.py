"""One search attempt on demand, and an exact bipartite DynamicMcm.

``ExactBipartiteMcm`` is the BFS worker with its two approximations taken
out: the depth bound never cuts, and an insert between two matched
vertices searches too.  Without blossom contraction it is exact on
bipartite graphs only, where it keeps a maximum-cardinality matching after
every update.
"""

from __future__ import annotations

from collections import deque

from dynmatch.matching import FREE
from dynmatch.mcm import DynamicMcm, McmConfig


def augment_from(mcm: DynamicMcm, start: int, seed: dict[int, int] | None = None) -> bool:
    """Try to grow ``mcm``'s matching from vertex ``start``: one attempt.

    ``seed`` is an overlay {vertex: mate} of changes not yet written to the
    state (handle_insert's swap); the search reads every mate through it,
    and ``start`` must be free there.  The search, a walk or a BFS per
    config.kind, extends a copy of the seed to an augmenting path, which
    ``_commit`` writes together with the seed.  A failed attempt writes
    nothing, so the matching and every watch() set stay as they were.  The
    attempt is counted as the handlers count theirs.
    """
    if seed is None:
        seed = {}
    if seed.get(start, mcm.state._mate[start]) != FREE:
        raise ValueError(f"augment_from requires a free vertex, got {start}")
    mcm.attempts += 1
    overlay = mcm._search(start, seed, mcm.graph.degree(start))
    if overlay is None:
        return False
    mcm._commit(overlay)
    mcm.successes += 1
    return True


def alternating_free_node(mcm: DynamicMcm, u: int) -> int | None:
    """First free vertex reachable from matched u by an alternating path of
    any length that leaves through u's matched edge; traversal only, no
    mutation."""
    adjs = mcm.graph._adj
    degree = mcm.graph.degree
    mate_of = mcm.state.mate_of
    first = mate_of(u)
    if first == FREE:
        return None
    seen = {u, first}
    queue: deque[int] = deque([first])
    while queue:
        x = queue.popleft()
        mx = mate_of(x)
        for y in adjs[x][: degree(x)]:
            if y == mx or y in seen:
                continue
            z = mate_of(y)
            if z == FREE:
                return y
            seen.add(y)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return None


class ExactBipartiteMcm(DynamicMcm):
    """DynamicMcm running the BFS with no depth cut, that also searches on
    an insert between two matched vertices.

    The depth is the graph's n: a BFS tree path is simple, so it has fewer
    than n edges and the bound never cuts.  On a both-matched insert it
    finds a free vertex alternating-reachable from u through u's matched
    edge and augments from there.  Exact on bipartite graphs only.
    """

    def __init__(self, graph, seed: int) -> None:
        super().__init__(graph, McmConfig(kind="bfs"), seed)
        self._depth = graph.n

    def handle_insert(self, u: int, v: int) -> None:
        mate = self.state._mate
        if mate[u] == FREE or mate[v] == FREE:
            super().handle_insert(u, v)
            return
        free_node = alternating_free_node(self, u)
        if free_node is not None:
            augment_from(self, free_node)
