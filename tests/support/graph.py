"""Graph accessors the tests use as references for inlined kernels."""

from __future__ import annotations

import random

from dynmatch.graph import DynamicGraph


def random_neighbor(graph: DynamicGraph, u: int, rng: random.Random) -> int | None:
    """Uniformly random neighbor of u, or None for isolated u."""
    adj = graph.neighbors(u)
    if not adj:
        return None
    return adj[rng.randrange(len(adj))]


class PositionIndexedGraph:
    """Neighbor lists kept with a per-vertex position dict, swap-remove on
    delete: the list order ``DynamicGraph`` must reproduce draw for draw."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.pos: list[dict[int, int]] = [{} for _ in range(n)]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.pos[u]

    def insert(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            self.pos[a][b] = len(self.adj[a])
            self.adj[a].append(b)

    def delete(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            i = self.pos[a].pop(b)
            last = self.adj[a].pop()
            if last != b:
                self.adj[a][i] = last
                self.pos[a][last] = i
