"""Shared builders for randomized test instances."""

from __future__ import annotations

import random

from dynmatch.graph import DynamicGraph


def build_graph(n: int, edges) -> DynamicGraph:
    g = DynamicGraph(n)
    for u, v, w in edges:
        g.insert_edge(u, v, w)
    return g


def random_graph(
    n: int, m: int, seed: int, lo: int = 1, hi: int = 100
) -> DynamicGraph:
    """A simple graph with m distinct edges and integer weights in [lo, hi]."""
    assert m <= n * (n - 1) // 2
    rng = random.Random(seed)
    g = DynamicGraph(n)
    seen = set()
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        g.insert_edge(u, v, rng.randint(lo, hi))
    return g


def random_greedy_matching(graph: DynamicGraph, seed: int):
    """A random maximal matching: shuffled edges, matched when both free."""
    from dynmatch.matching import FREE, MatchingState

    rng = random.Random(seed)
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    st = MatchingState(graph.n)
    for u, v, w in edges:
        if st.mate_of(u) == FREE and st.mate_of(v) == FREE:
            st.match_edge(u, v, w)
    return st


def flip_path(state, graph, path_edges) -> None:
    """Flip matched/unmatched status along an alternating path."""
    matched = [(u, v) for (u, v) in path_edges if state.mate_of(u) == v]
    unmatched = [(u, v) for (u, v) in path_edges if state.mate_of(u) != v]
    for u, _v in matched:
        state.unmatch(u)
    for u, v in unmatched:
        state.match_edge(u, v, graph.weight(u, v))


def eliminate_augmenting_paths(graph, state, k_max: int) -> None:
    """Flip weight-augmenting paths with <= k_max unmatched edges until none
    remain.  Each flip strictly increases the weight, so this terminates."""
    from support.oracle import find_weight_augmenting_kpath

    while True:
        found = find_weight_augmenting_kpath(graph, state, k_max)
        if found is None:
            return
        path_edges, _k = found
        flip_path(state, graph, path_edges)


def random_bipartite_edges(
    n_left: int, n_right: int, m: int, seed: int
) -> tuple[int, list[tuple[int, int]]]:
    """Distinct edges between {0..n_left-1} and {n_left..n_left+n_right-1}."""
    assert m <= n_left * n_right
    rng = random.Random(seed)
    seen = set()
    while len(seen) < m:
        u = rng.randrange(n_left)
        v = n_left + rng.randrange(n_right)
        seen.add((u, v))
    return n_left + n_right, sorted(seen)
