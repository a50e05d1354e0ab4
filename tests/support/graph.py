"""Graph accessors the tests use as references for inlined kernels, and
the final graph of a stream."""

from __future__ import annotations

import random

from dynmatch.graph import DynamicGraph, Weight
from dynmatch.harness.streams import INSERT, UpdateStream


def random_neighbor(graph: DynamicGraph, u: int, rng: random.Random) -> int | None:
    """Uniformly random neighbor of u, or None for isolated u."""
    adj = graph.neighbors(u)
    if not adj:
        return None
    return adj[rng.randrange(len(adj))]


def final_graph(stream: UpdateStream) -> DynamicGraph:
    """Graph state after every op of ``stream``, with no algorithm on it."""
    graph = DynamicGraph(stream.n)
    for op in stream.ops:
        if op.kind == INSERT:
            graph.insert_edge(op.u, op.v, op.w)
        else:
            graph.delete_edge(op.u, op.v)
    return graph


class PositionIndexedGraph:
    """Neighbor lists and their weight lists kept with a per-vertex position
    dict, swap-remove on delete: the row order ``DynamicGraph`` must
    reproduce draw for draw."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.wts: list[list[Weight]] = [[] for _ in range(n)]
        self.pos: list[dict[int, int]] = [{} for _ in range(n)]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.pos[u]

    def weight(self, u: int, v: int) -> Weight:
        return self.wts[u][self.pos[u][v]]

    def insert(self, u: int, v: int, w: Weight) -> None:
        for a, b in ((u, v), (v, u)):
            self.pos[a][b] = len(self.adj[a])
            self.adj[a].append(b)
            self.wts[a].append(w)

    def delete(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            i = self.pos[a].pop(b)
            last = self.adj[a].pop()
            last_w = self.wts[a].pop()
            if last != b:
                self.adj[a][i] = last
                self.wts[a][i] = last_w
                self.pos[a][last] = i
