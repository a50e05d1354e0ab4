"""Adjacency structure for fully-dynamic weighted graphs.

Every vertex u keeps its neighbors in a plain list ``_adj[u]``, so a
uniformly random neighbor is one ``randrange`` away, and in a second list
``_wts[u]`` the weight of the edge to ``_adj[u][i]`` at index i: each
weight lives once at each endpoint, and nothing is keyed by edge.  Both
rows are the shared empty tuple until u's first edge, so memory grows with
the edges, plus a pointer per vertex and row list.  Inserts and lookups
scan the shorter endpoint's row, O(min degree); a delete finds the entry
with one ``list.index`` per endpoint, O(deg u + deg v), and moves the last
entry of both rows into the freed slot, which keeps them dense.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import AbsentEdgeError

Weight = int | float

# Largest edge weight accepted anywhere: integers up to it are exact as
# floats, and a matching of 5*10^5 such edges sums far below the float
# maximum, so weights, totals and OPT ratios stay finite.
MAX_WEIGHT = 2**53

# The rows of a vertex that has never had an edge.
_EMPTY: tuple[()] = ()


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


class DynamicGraph:
    """Undirected weighted graph on a fixed vertex set {0, ..., n-1}.

    Parallel edges and self-loops are rejected.  Edge weights must be
    positive and at most MAX_WEIGHT; changing a weight is expressed as
    delete + insert, never as an in-place update (a duplicate insert is
    refused and leaves the stored weight untouched).

    Inserts, membership tests and weight lookups take O(min(deg u, deg v));
    a delete scans both endpoints' rows, O(deg u + deg v).
    """

    __slots__ = ("n", "_adj", "_wts", "_m", "_watchers")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._adj: list[list[int] | tuple[()]] = [_EMPTY] * n
        self._wts: list[list[Weight] | tuple[()]] = [_EMPTY] * n
        self._m = 0
        self._watchers: list[set[int]] = []

    def watch(self) -> set[int]:
        """A set that every later insert and delete adds both endpoints to.

        The caller owns the set and clears it once it has looked at the
        vertices; audits use it to check only what changed since last time.
        """
        touched: set[int] = set()
        self._watchers.append(touched)
        return touched

    # -- mutation ---------------------------------------------------------

    def insert_edge(self, u: int, v: int, w: Weight) -> bool:
        """Insert edge (u, v) with weight w.

        Returns False (and changes nothing, including the weight) when the
        edge is already present.  Raises ValueError on self-loops,
        out-of-range endpoints, or weights outside (0, MAX_WEIGHT].
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) rejected")
        if not 0 < w <= MAX_WEIGHT:
            raise ValueError(
                f"edge weight must be positive, finite and at most 2**53, got {w!r}"
            )
        adjs = self._adj
        adj_u = adjs[u]
        adj_v = adjs[v]
        if len(adj_u) <= len(adj_v):
            if v in adj_u:
                return False
        elif u in adj_v:
            return False
        wts = self._wts
        if adj_u is _EMPTY:
            adj_u = adjs[u] = []
            wts[u] = []
        if adj_v is _EMPTY:
            adj_v = adjs[v] = []
            wts[v] = []
        adj_u.append(v)
        wts[u].append(w)
        adj_v.append(u)
        wts[v].append(w)
        self._m += 1
        for touched in self._watchers:
            touched.add(u)
            touched.add(v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge (u, v); returns False when it was not present."""
        self._check_vertex(u)
        self._check_vertex(v)
        adj_u = self._adj[u]
        adj_v = self._adj[v]
        # Look in the shorter row first: an absent edge costs O(min degree).
        try:
            if len(adj_u) <= len(adj_v):
                i = adj_u.index(v)
                j = adj_v.index(u)
            else:
                j = adj_v.index(u)
                i = adj_u.index(v)
        except ValueError:
            return False
        _swap_remove(adj_u, self._wts[u], i)
        _swap_remove(adj_v, self._wts[v], j)
        self._m -= 1
        for touched in self._watchers:
            touched.add(u)
            touched.add(v)
        return True

    # -- queries ----------------------------------------------------------

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.weight_or_none(u, v) is not None

    def weight(self, u: int, v: int) -> Weight:
        n = self.n
        # A negative index would wrap around to another vertex's row.
        w = self.weight_or_none(u, v) if 0 <= u < n and 0 <= v < n else None
        if w is None:
            self._check_vertex(u)
            self._check_vertex(v)
            raise AbsentEdgeError(f"edge ({u}, {v}) not in graph")
        return w

    def weight_or_none(self, u: int, v: int) -> Weight | None:
        """Weight of edge (u, v), or None when it is absent; u and v must be
        vertices (not checked).  Scans the shorter of the two rows."""
        adj_u = self._adj[u]
        adj_v = self._adj[v]
        try:
            if len(adj_u) <= len(adj_v):
                return self._wts[u][adj_u.index(v)]
            return self._wts[v][adj_v.index(u)]
        except ValueError:
            return None

    def neighbors(self, u: int) -> Sequence[int]:
        """Live view of u's neighbor list; do not mutate."""
        self._check_vertex(u)
        adj = self._adj[u]
        if adj is _EMPTY:
            # Later inserts must append to the list this view returns.
            adj = self._adj[u] = []
            self._wts[u] = []
        return adj

    def edge_count(self) -> int:
        return self._m

    def edges(self) -> Iterator[tuple[int, int, Weight]]:
        """All current edges as (u, v, w) with u < v, in O(n + m)."""
        for u, (adj, wts) in enumerate(zip(self._adj, self._wts)):
            for v, w in zip(adj, wts):
                if u < v:
                    yield u, v, w

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.n}, m={self._m})"


def _swap_remove(adj: list[int], wts: list[Weight], i: int) -> None:
    # The last entry of both rows takes slot i.
    last = adj.pop()
    last_w = wts.pop()
    if i < len(adj):
        adj[i] = last
        wts[i] = last_w
