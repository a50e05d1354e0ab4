"""Adjacency structure for fully-dynamic weighted graphs.

Every vertex u keeps its neighbors in a plain list ``L[u]``, so a uniformly
random neighbor is one ``randrange`` away, and one dict keyed by the
canonical edge answers membership and weight.  Insert is O(1) expected.
Delete finds the removed entry with one ``list.index`` scan per endpoint,
O(degree), then moves the last list element into the freed slot, which
keeps the list dense.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import AbsentEdgeError

Weight = int | float

# Largest edge weight accepted anywhere: integers up to it are exact as
# floats, and a matching of 5*10^5 such edges sums far below the float
# maximum, so weights, totals and OPT ratios stay finite.
MAX_WEIGHT = 2**53


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


class DynamicGraph:
    """Undirected weighted graph on a fixed vertex set {0, ..., n-1}.

    Parallel edges and self-loops are rejected.  Edge weights must be
    positive and at most MAX_WEIGHT; changing a weight is expressed as
    delete + insert, never as an in-place update (a duplicate insert is
    refused and leaves the stored weight untouched).

    Queries and inserts take O(1) expected time; a delete scans both
    endpoints' neighbor lists, O(degree).
    """

    __slots__ = ("n", "_adj", "_weight", "_max_degree_seen", "_watchers")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._weight: dict[tuple[int, int], Weight] = {}
        self._max_degree_seen = 0
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
        key = edge_key(u, v)
        if key in self._weight:
            return False
        self._weight[key] = w
        adj_u = self._adj[u]
        adj_v = self._adj[v]
        adj_u.append(v)
        adj_v.append(u)
        for touched in self._watchers:
            touched.add(u)
            touched.add(v)
        d = max(len(adj_u), len(adj_v))
        if d > self._max_degree_seen:
            self._max_degree_seen = d
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge (u, v); returns False when it was not present."""
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            del self._weight[edge_key(u, v)]
        except KeyError:
            return False
        self._remove_half(u, v)
        self._remove_half(v, u)
        for touched in self._watchers:
            touched.add(u)
            touched.add(v)
        return True

    def _remove_half(self, u: int, v: int) -> None:
        # Swap-remove v from u's list; the last entry takes v's old slot.
        adj = self._adj[u]
        i = adj.index(v)
        last = adj.pop()
        if last != v:
            adj[i] = last

    # -- queries ----------------------------------------------------------

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return edge_key(u, v) in self._weight

    def weight(self, u: int, v: int) -> Weight:
        try:
            return self._weight[edge_key(u, v)]
        except KeyError:
            self._check_vertex(u)
            self._check_vertex(v)
            raise AbsentEdgeError(f"edge ({u}, {v}) not in graph") from None

    def neighbors(self, u: int) -> Sequence[int]:
        """Live view of u's neighbor list; do not mutate."""
        self._check_vertex(u)
        return self._adj[u]

    def edge_count(self) -> int:
        return len(self._weight)

    def max_degree_seen(self) -> int:
        """Largest degree any vertex has ever had (never decreases)."""
        return self._max_degree_seen

    def edges(self) -> Iterator[tuple[int, int, Weight]]:
        """All current edges as (u, v, w) with u < v, unordered."""
        for (u, v), w in self._weight.items():
            yield u, v, w

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.n}, m={len(self._weight)})"
