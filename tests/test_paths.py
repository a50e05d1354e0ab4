import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.graph import DynamicGraph
from dynmatch.matching import FREE, MatchingState
from dynmatch.paths import (
    SAMPLE_ATTEMPTS,
    WalkPath,
    apply_path_matching,
    extend_walk,
    mwm_on_path,
)

from conftest import build_graph
from support.paths import (
    append_step,
    start_path,
    validate_walk_path,
)


def make_path(weights, matched_flags=None, start=0):
    """A chain path start-(start+1)-... with the given edge weights."""
    path = WalkPath()
    start_path(path, start)
    for i, w in enumerate(weights):
        m = bool(matched_flags[i]) if matched_flags else False
        append_step(path, start + i + 1, w, m)
    return path


def brute_force_path_mwm(weights):
    """Best independent (no two adjacent) edge subset by enumeration."""
    k = len(weights)
    best = 0
    for mask in range(1 << k):
        if mask & (mask << 1):
            continue
        best = max(best, sum(w for i, w in enumerate(weights) if mask >> i & 1))
    return best


# -- mwm_on_path --------------------------------------------------------------


def test_dp_empty_path():
    assert mwm_on_path(WalkPath()) == ([], 0)


def test_dp_single_edge():
    assert mwm_on_path(make_path([7])) == ([0], 7)


def test_dp_three_edges_takes_outer():
    assert mwm_on_path(make_path([5, 3, 4])) == ([0, 2], 9)


def test_dp_three_edges_takes_middle():
    assert mwm_on_path(make_path([1, 5, 1])) == ([1], 5)


def test_dp_tie_prefers_not_taking():
    # 2+0 == W[1], strict comparison keeps the prefix solution
    assert mwm_on_path(make_path([2, 2])) == ([0], 2)
    assert mwm_on_path(make_path([2, 2, 2])) == ([0, 2], 4)


def test_dp_prefix_weights_monotone():
    rng = random.Random(31)
    weights = [rng.randint(1, 100) for _ in range(14)]
    prev = 0
    for k in range(len(weights) + 1):
        _, w = mwm_on_path(make_path(weights[:k]))
        assert w >= prev
        prev = w


def test_dp_matches_enumeration_on_random_paths():
    rng = random.Random(2024)
    for _ in range(400):
        k = rng.randint(0, 14)
        weights = [rng.randint(1, 100) for _ in range(k)]
        selected, w = mwm_on_path(make_path(weights))
        assert w == brute_force_path_mwm(weights)
        assert sum(weights[i] for i in selected) == w
        assert all(b - a >= 2 for a, b in zip(selected, selected[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=14))
def test_dp_matches_enumeration_property(weights):
    selected, w = mwm_on_path(make_path(weights))
    assert w == brute_force_path_mwm(weights)
    assert sum(weights[i] for i in selected) == w
    assert all(b - a >= 2 for a, b in zip(selected, selected[1:]))


# -- WalkPath ------------------------------------------------------------------


def test_walkpath_bookkeeping():
    p = WalkPath()
    with pytest.raises(ValueError):
        append_step(p, 1, 2, False)
    start_path(p, 0)
    with pytest.raises(ValueError):
        start_path(p, 1)
    append_step(p, 3, 2, False)
    assert p.nodes == [0, 3]
    assert p.weights == [2]
    assert p.matched == [False]
    assert p.edge_count == 1
    append_step(p, 5, 4, True)
    assert p.nodes == [0, 3, 5]
    assert p.weights == [2, 4]
    assert p.matched == [False, True]


# -- validate_walk_path -------------------------------------------------------


def test_validate_accepts_good_path():
    st_ = MatchingState(4)
    st_.match_edge(1, 2, 3)
    path = make_path([5, 3, 4], [False, True, False])
    validate_walk_path(path, st_)


def test_validate_rejects_repeat_vertex():
    st_ = MatchingState(4)
    p = WalkPath()
    start_path(p, 0)
    append_step(p, 1, 1, False)
    append_step(p, 0, 1, False)
    with pytest.raises(AssertionError):
        validate_walk_path(p, st_)


def test_validate_rejects_stale_matched_flag():
    st_ = MatchingState(3)
    path = make_path([5, 3], [False, True])  # claims (1,2) matched; it is not
    with pytest.raises(AssertionError):
        validate_walk_path(path, st_)


def test_validate_rejects_closure_violation():
    st_ = MatchingState(4)
    st_.match_edge(1, 3, 2)  # vertex 1 on path, its matched edge off path
    path = make_path([5], [False])  # 0-1
    with pytest.raises(AssertionError):
        validate_walk_path(path, st_)


# -- extend_walk automaton ----------------------------------------------------


def seeded_at(u):
    """The one-vertex seed at u, as _seed_anchor lays it."""
    path = WalkPath()
    start_path(path, u)
    return path


def test_walk_from_isolated_vertex_is_empty():
    g = DynamicGraph(3)
    st_ = MatchingState(3)
    path = extend_walk(g, st_, seeded_at(0), 5, random.Random(1))
    assert path.nodes == [0]
    assert path.edge_count == 0


def test_walk_two_path_all_free():
    g = build_graph(3, [(0, 1, 4), (1, 2, 6)])
    st_ = MatchingState(3)
    path = extend_walk(g, st_, seeded_at(0), 5, random.Random(3))
    assert path.nodes == [0, 1, 2]
    assert path.weights == [4, 6]
    assert path.matched == [False, False]


def test_walk_triangle_traverses_matched_edge_then_stops():
    g = build_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 5)])
    st_ = MatchingState(3)
    st_.match_edge(1, 2, 5)
    for seed in range(20):
        path = extend_walk(g, st_, seeded_at(0), 9, random.Random(seed))
        # first step samples 1 or 2; the matched edge follows immediately;
        # then both neighbors of the last vertex are on the path
        assert path.edge_count == 2
        assert path.matched == [False, True]
        assert set(path.nodes[1:]) == {1, 2}
        validate_walk_path(path, st_)


def test_walk_appends_pending_matched_edge_beyond_cap():
    g = build_graph(3, [(0, 1, 2), (1, 2, 5)])
    st_ = MatchingState(3)
    st_.match_edge(1, 2, 5)
    path = extend_walk(g, st_, seeded_at(0), 1, random.Random(0))
    # cap is 1 edge, but stopping at matched vertex 1 would break closure
    assert path.nodes == [0, 1, 2]
    assert path.matched == [False, True]
    validate_walk_path(path, st_)


def reference_extend_walk(graph, state, path, max_len, rng, stops):
    """extend_walk through the public accessors and rng.randrange, with the
    path's own node list as the visited set; counts why it stopped."""
    nodes, weights, matched = path.nodes, path.weights, path.matched
    current = nodes[-1]
    while True:
        m = state.mate_of(current)
        on_path = len(nodes) > 1 and {nodes[-2], nodes[-1]} == {current, m}
        if m != FREE and not on_path:
            nxt, w, flag = m, state.stored_weight(current), True
        else:
            if len(weights) >= max_len:
                stops["length cap"] += 1
                break
            adj = graph.neighbors(current)
            nxt = None
            for _ in range(SAMPLE_ATTEMPTS if adj else 0):
                x = adj[rng.randrange(len(adj))]
                if x not in nodes:
                    nxt = x
                    break
            if nxt is None:
                stops["attempts exhausted" if adj else "isolated"] += 1
                break
            w, flag = graph.weight(current, nxt), False
        nodes.append(nxt)
        weights.append(w)
        matched.append(flag)
        current = nxt
    return path


def test_walk_kernel_draws_like_randrange():
    # extend_walk inlines rng.randrange(k); the golden digests rest on it
    # consuming the RNG exactly as randrange does.  Vertex 0 is a hub whose
    # degree runs over 1 and powers of two, where k.bit_length() makes the
    # rejection loop redraw most often.  Some walks start on a closed path
    # that already holds other vertices, so the sampling attempts run out.
    rng = random.Random(78)
    degrees = set()
    stops = Counter()
    for trial in range(300):
        hub_degree = rng.choice((1, 2, 3, 4, 5, 7, 8, 9, 16, 17))
        n = hub_degree + rng.randint(2, 8)
        g = DynamicGraph(n)
        for x in range(1, hub_degree + 1):
            g.insert_edge(0, x, rng.randint(1, 50))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(1, n), 2)
            if not g.has_edge(u, v):
                g.insert_edge(u, v, rng.randint(1, 50))
        st_ = MatchingState(n)
        for u, v, w in sorted(g.edges()):
            free = st_.mate_of(u) == FREE and st_.mate_of(v) == FREE
            if free and rng.random() < 0.4:
                st_.match_edge(u, v, w)
        walk_rng = random.Random(trial)
        for start in range(n):
            degrees.add(g.degree(start))
            # The prefix before the start is closed, as the seed builders
            # lay it: a matched prefix vertex is followed by its mate as a
            # matched step.  A matched start may come with its matched edge
            # already on the path, as _seed_insert lays it; the walk must
            # not take it again.
            mate = st_.mate_of(start)
            seeded = mate != FREE and rng.random() < 0.5
            picks = [x for x in range(n)
                     if x != start and x != mate and rng.random() < 0.2]
            rng.shuffle(picks)
            steps = []  # (vertex, weight of the edge into it, matched)
            for x in picks:
                if any(x == y for y, _, _ in steps):
                    continue
                steps.append((x, 1, False))
                if st_.mate_of(x) != FREE:
                    steps.append((st_.mate_of(x), st_.stored_weight(x), True))
            if seeded:
                steps.append((mate, 1, False))
            steps.append((start, st_.stored_weight(start) if seeded else 1, seeded))
            max_len = rng.randint(1, 9)
            runs = []
            for walk in (extend_walk, partial(reference_extend_walk, stops=stops)):
                state = walk_rng.getstate()
                path = WalkPath()
                start_path(path, steps[0][0])
                for x, w, flag in steps[1:]:
                    append_step(path, x, w, flag)
                path = walk(g, st_, path, max_len, walk_rng)
                runs.append((path.nodes, path.weights, path.matched,
                             walk_rng.getstate()))
                walk_rng.setstate(state)
            assert runs[0] == runs[1]
            validate_walk_path(path, st_)
            walk_rng.setstate(runs[0][-1])
    assert {1, 2, 3, 4, 5, 7, 8, 9, 16, 17} <= degrees
    assert stops["attempts exhausted"], stops


# -- apply_path_matching ------------------------------------------------------


def test_apply_replaces_matched_edges():
    st_ = MatchingState(4)
    st_.match_edge(1, 2, 3)
    path = make_path([5, 3, 4], [False, True, False])
    apply_path_matching(st_, path, [0, 2])
    assert st_.mate_of(0) == 1
    assert st_.mate_of(2) == 3
    assert st_.total_weight == 9


def test_apply_leaves_off_path_mates_alone():
    st_ = MatchingState(6)
    st_.match_edge(4, 5, 8)
    st_.match_edge(1, 2, 3)
    path = make_path([5, 3, 4], [False, True, False])
    apply_path_matching(st_, path, [0, 2])
    assert st_.mate_of(4) == 5
    assert st_.stored_weight(4) == 8
