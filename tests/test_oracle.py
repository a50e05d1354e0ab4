import random

import pytest

from dynmatch.errors import OracleLimitError
from dynmatch.graph import DynamicGraph
from dynmatch.matching import MatchingState
from dynmatch.oracle import exact_mwm

from conftest import (
    build_graph,
    eliminate_augmenting_paths,
    flip_path,
    random_graph,
    random_greedy_matching,
)
from support.matching import matching_weight_of
from support.oracle import (
    ENUMERATE_MAX_EDGES,
    exact_mcm,
    exact_mcm_matching,
    exact_mwm_enumerate,
    find_weight_augmenting_kpath,
    verify_proposition1,
)


def assert_valid_matching(pairs, graph):
    used = set()
    for u, v in pairs:
        assert graph.has_edge(u, v)
        assert u not in used and v not in used
        used.update((u, v))


# -- exact_mwm ----------------------------------------------------------------


def test_mwm_triangle():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    pairs, w = exact_mwm(g)
    assert w == 3
    assert pairs == [(0, 2)]


def test_mwm_empty_graph():
    assert exact_mwm(DynamicGraph(4)) == ([], 0)


def test_mwm_p4():
    g = build_graph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5)])
    pairs, w = exact_mwm(g)
    assert w == 10
    assert pairs == [(0, 1), (2, 3)]


def test_mwm_deterministic_tie_break():
    g = build_graph(4, [(0, 1, 5), (2, 3, 5)])
    first = exact_mwm(g)
    for _ in range(3):
        assert exact_mwm(g) == first


def test_mwm_agrees_with_enumeration_on_random_graphs():
    rng = random.Random(404)
    for trial in range(200):
        n = rng.randint(2, 9)
        m = rng.randint(0, min(10, n * (n - 1) // 2))
        g = random_graph(n, m, seed=trial, lo=1, hi=50)
        pairs, w = exact_mwm(g)
        pairs2, w2 = exact_mwm_enumerate(g)
        assert w == w2, f"trial {trial}"
        assert_valid_matching(pairs, g)
        assert matching_weight_of(pairs, g) == w


def test_mwm_component_decomposition_beats_whole_graph_limits():
    # Two 12-vertex blocks: 24 vertices total but each component within limits.
    edges = []
    for base in (0, 12):
        for i in range(11):
            edges.append((base + i, base + i + 1, i + 1))
    g = build_graph(24, edges)
    _pairs, w = exact_mwm(g)
    assert w > 0


def connected_blob(n_verts: int, n_edges: int) -> DynamicGraph:
    """One connected component: a spanning path plus leading chords."""
    assert n_edges >= n_verts - 1
    g = DynamicGraph(n_verts)
    for i in range(n_verts - 1):
        g.insert_edge(i, i + 1, 1)
    extra = n_edges - (n_verts - 1)
    added = 0
    for gap in range(2, n_verts):
        for i in range(n_verts - gap):
            if added == extra:
                return g
            g.insert_edge(i, i + gap, 1)
            added += 1
    raise AssertionError("not enough room for requested chords")


def test_mwm_many_disjoint_weighted_p3s():
    # 4,000 components: the per-component edge lists must come from the
    # components' own adjacency, not a rescan of every edge per component.
    k = 4000
    g = DynamicGraph(3 * k)
    want_pairs, want_weight = [], 0
    for i in range(k):
        a, b = 1 + i % 7, 1 + (3 * i) % 11
        g.insert_edge(3 * i, 3 * i + 1, a)
        g.insert_edge(3 * i + 1, 3 * i + 2, b)
        # Ties go to the edge with the smaller endpoints.
        want_pairs.append((3 * i, 3 * i + 1) if a >= b else (3 * i + 1, 3 * i + 2))
        want_weight += max(a, b)
    assert exact_mwm(g) == (want_pairs, want_weight)


def test_mwm_limit_errors():
    big = connected_blob(21, 25)
    with pytest.raises(OracleLimitError):
        exact_mwm(big)
    dense = random_graph(10, ENUMERATE_MAX_EDGES + 1, seed=2)
    with pytest.raises(OracleLimitError):
        exact_mwm_enumerate(dense)


# -- exact_mcm ----------------------------------------------------------------


def test_mcm_c4():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert exact_mcm(g) == 2
    assert_valid_matching(exact_mcm_matching(g), g)


def test_mcm_star():
    g = build_graph(6, [(0, i, 1) for i in range(1, 6)])
    assert exact_mcm(g) == 1


def test_mcm_empty():
    assert exact_mcm(DynamicGraph(3)) == 0


def test_mcm_ignores_weights():
    g = build_graph(4, [(0, 1, 100), (1, 2, 1), (2, 3, 100)])
    assert exact_mcm(g) == 2


# -- find_weight_augmenting_kpath ----------------------------------------------


def test_kpath_none_on_optimal_matching():
    g = random_graph(8, 12, seed=9)
    pairs, _w = exact_mwm(g)
    st = MatchingState(8)
    for u, v in pairs:
        st.match_edge(u, v, g.weight(u, v))
    assert find_weight_augmenting_kpath(g, st, 5) is None


def test_kpath_trivial_free_edge():
    g = build_graph(2, [(0, 1, 4)])
    st = MatchingState(2)
    found = find_weight_augmenting_kpath(g, st, 3)
    assert found is not None
    path, k = found
    assert k == 1
    assert path == [(0, 1)]


def test_kpath_p3_replacement():
    g = build_graph(3, [(0, 1, 5), (1, 2, 9)])
    st = MatchingState(3)
    st.match_edge(0, 1, 5)
    found = find_weight_augmenting_kpath(g, st, 3)
    assert found is not None
    path, k = found
    assert k == 1
    flip_path(st, g, path)
    assert st.total_weight == 9
    assert st.mate_of(1) == 2


def test_kpath_finds_augmenting_cycle():
    # No open alternating path improves this matching (every vertex is
    # matched, and m-u-m windows all lose weight); the 4-cycle flip gains 46.
    g = build_graph(
        4, [(0, 1, 72), (0, 2, 41), (0, 3, 24), (1, 2, 11), (1, 3, 39), (2, 3, 54)]
    )
    st = MatchingState(4)
    st.match_edge(0, 2, 41)
    st.match_edge(1, 3, 39)
    assert find_weight_augmenting_kpath(g, st, 1) is None
    found = find_weight_augmenting_kpath(g, st, 2)
    assert found is not None
    path, k = found
    assert k == 2
    assert len(path) == 4
    flip_path(st, g, path)
    assert st.total_weight == 126


def test_kpath_ignores_losing_cycles():
    # Same 4-cycle shape, but flipping it would lose weight: no find.
    g = build_graph(4, [(0, 1, 4), (1, 2, 9), (2, 3, 4), (0, 3, 9)])
    st = MatchingState(4)
    st.match_edge(1, 2, 9)
    st.match_edge(0, 3, 9)
    assert find_weight_augmenting_kpath(g, st, 4) is None


def test_kpath_reports_minimal_k():
    # Two disjoint improvements: a k=1 trivial edge and a k=2 double swap;
    # the finder must report k=1.
    g = build_graph(7, [(0, 1, 4), (2, 3, 5), (3, 4, 9), (4, 5, 5), (5, 6, 9)])
    st = MatchingState(7)
    st.match_edge(3, 4, 9)
    found = find_weight_augmenting_kpath(g, st, 4)
    assert found is not None
    _path, k = found
    assert k == 1


def test_kpath_flip_always_improves():
    rng = random.Random(512)
    for trial in range(150):
        n = rng.randint(3, 9)
        m = rng.randint(2, min(11, n * (n - 1) // 2))
        g = random_graph(n, m, seed=10_000 + trial)
        st = random_greedy_matching(g, seed=trial)
        found = find_weight_augmenting_kpath(g, st, 4)
        if found is None:
            continue
        path, _k = found
        before = st.total_weight
        flip_path(st, g, path)
        assert st.total_weight > before


def test_kpath_limit_error():
    big = connected_blob(21, 22)
    st = MatchingState(21)
    with pytest.raises(OracleLimitError):
        find_weight_augmenting_kpath(big, st, 2)


# -- verify_proposition1 --------------------------------------------------------


def test_prop1_true_on_optimal_matching():
    g = random_graph(9, 14, seed=21)
    pairs, _w = exact_mwm(g)
    st = MatchingState(9)
    for u, v in pairs:
        st.match_edge(u, v, g.weight(u, v))
    for k in (1, 2, 3, 5):
        assert verify_proposition1(g, st, k)


def test_prop1_rejects_bad_precondition():
    g = build_graph(3, [(0, 1, 5), (1, 2, 9)])
    st = MatchingState(3)
    st.match_edge(0, 1, 5)
    with pytest.raises(ValueError):
        verify_proposition1(g, st, 2)
    with pytest.raises(ValueError):
        verify_proposition1(g, st, 0)


def test_prop1_random_campaign_small():
    # Unit-scale version of the acceptance campaign: k in {2, 3}, 120
    # instances each, preconditions established by flipping short paths.
    rng = random.Random(77)
    for k in (2, 3):
        for trial in range(120):
            n = rng.randint(4, 10)
            m = rng.randint(3, min(12, n * (n - 1) // 2))
            g = random_graph(n, m, seed=1000 * k + trial)
            st = random_greedy_matching(g, seed=trial)
            eliminate_augmenting_paths(g, st, k - 1)
            assert verify_proposition1(g, st, k), f"k={k} trial={trial}"
