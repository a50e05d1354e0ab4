import math
import random
from collections import Counter

import pytest

from dynmatch.errors import AbsentEdgeError
from dynmatch.graph import MAX_WEIGHT, DynamicGraph, edge_key

from conftest import random_graph
from support.graph import PositionIndexedGraph, random_neighbor


def test_edge_key_canonical():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


def test_insert_and_query():
    g = DynamicGraph(4)
    assert g.insert_edge(0, 1, 5)
    assert g.has_edge(1, 0)
    assert g.weight(0, 1) == 5
    assert g.degree(0) == 1
    assert g.edge_count() == 1
    assert sorted(g.edges()) == [(0, 1, 5)]


def test_duplicate_insert_keeps_old_weight():
    g = DynamicGraph(3)
    assert g.insert_edge(0, 1, 5)
    assert not g.insert_edge(1, 0, 9)
    assert g.weight(0, 1) == 5
    assert g.edge_count() == 1


def test_rejects_self_loop_and_bad_weight_and_range():
    g = DynamicGraph(3)
    with pytest.raises(ValueError):
        g.insert_edge(1, 1, 2)
    with pytest.raises(ValueError):
        g.insert_edge(0, 1, 0)
    with pytest.raises(ValueError):
        g.insert_edge(0, 1, -4)
    for w in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            g.insert_edge(0, 1, w)
    for w in (MAX_WEIGHT + 1, 1.7e308, 10**400):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            g.insert_edge(0, 1, w)
    assert g.edge_count() == 0
    assert g.insert_edge(0, 1, MAX_WEIGHT)
    with pytest.raises(ValueError):
        g.insert_edge(0, 3, 1)
    with pytest.raises(ValueError):
        g.degree(-1)


def test_delete_and_absent_lookups():
    g = DynamicGraph(3)
    g.insert_edge(0, 1, 2)
    assert g.delete_edge(1, 0)
    assert not g.delete_edge(0, 1)
    assert not g.has_edge(0, 1)
    with pytest.raises(AbsentEdgeError):
        g.weight(0, 1)


def test_max_degree_seen_is_monotone():
    g = DynamicGraph(5)
    g.insert_edge(0, 1, 1)
    g.insert_edge(0, 2, 1)
    g.insert_edge(0, 3, 1)
    assert g.max_degree_seen() == 3
    g.delete_edge(0, 1)
    g.delete_edge(0, 2)
    assert g.degree(0) == 1
    assert g.max_degree_seen() == 3


def test_random_neighbor_none_when_isolated():
    g = DynamicGraph(2)
    assert random_neighbor(g, 0, random.Random(1)) is None


def test_random_neighbor_uniform_on_degree_3():
    # 30000 draws over 3 neighbors: each count within 3 sigma of 10000,
    # sigma = sqrt(N * p * (1-p)) ~ 81.6.
    g = DynamicGraph(4)
    for v in (1, 2, 3):
        g.insert_edge(0, v, 1)
    rng = random.Random(12345)
    counts = Counter(random_neighbor(g, 0, rng) for _ in range(30000))
    sigma = (30000 * (1 / 3) * (2 / 3)) ** 0.5
    for v in (1, 2, 3):
        assert abs(counts[v] - 10000) < 3 * sigma, counts


def _snapshot(g: DynamicGraph):
    degrees = tuple(g.degree(u) for u in range(g.n))
    return degrees, sorted(g.edges())


def test_round_trip_rebuild_after_1e5_ops():
    rng = random.Random(99)
    n = 120
    g = DynamicGraph(n)
    present = set()
    for _ in range(100_000):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = edge_key(u, v)
        if key in present:
            assert g.delete_edge(u, v)
            present.discard(key)
        else:
            assert g.insert_edge(u, v, rng.randint(1, 100))
            present.add(key)
    rebuilt = DynamicGraph(n)
    for u, v, w in g.edges():
        rebuilt.insert_edge(u, v, w)
    assert _snapshot(rebuilt) == _snapshot(g)
    assert {edge_key(u, v) for u, v, _ in g.edges()} == present


def test_neighbor_order_matches_position_indexed_model_after_1e4_ops():
    # The random walks draw adj[r], so the list order itself is pinned: it
    # must equal the swap-remove order of position-dict bookkeeping.
    rng = random.Random(7)
    n = 200
    g = DynamicGraph(n)
    model = PositionIndexedGraph(n)
    edges = 0
    for _ in range(10_000):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if model.has_edge(u, v):
            assert g.delete_edge(u, v)
            model.delete(u, v)
            edges -= 1
        else:
            assert g.insert_edge(u, v, 1)
            model.insert(u, v)
            edges += 1
        assert g._adj == model.adj
        assert g.has_edge(u, v) == g.has_edge(v, u) == model.has_edge(u, v)
        assert g.edge_count() == edges
        assert g.degree(u) == len(model.adj[u])
        assert g.degree(v) == len(model.adj[v])


def test_neighbors_view_tracks_mutation():
    g = DynamicGraph(4)
    g.insert_edge(0, 1, 1)
    view = g.neighbors(0)
    g.insert_edge(0, 2, 1)
    assert sorted(view) == [1, 2]


def test_random_graph_helper_respects_bounds():
    g = random_graph(10, 20, seed=3, lo=5, hi=9)
    assert g.edge_count() == 20
    assert all(5 <= w <= 9 for _, _, w in g.edges())
