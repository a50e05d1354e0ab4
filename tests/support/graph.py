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
