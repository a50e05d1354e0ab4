"""Cardinality-matching subroutines: walks, bounded BFS, update handlers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.errors import MatchingCorruptionError
from dynmatch.graph import DynamicGraph
from dynmatch.matching import FREE
from dynmatch.levels import LevelConfig
from dynmatch.mcm import DynamicMcm

from conftest import build_graph, random_bipartite_edges
from support.graph import random_neighbor
from support.mcm import ExactBipartiteMcm, augment_from
from support.oracle import exact_mcm


def make_mcm(graph, *, seed=11, kind="walk", **cfg):
    return DynamicMcm(graph, LevelConfig(mcm_kind=kind, **cfg), seed)


def snapshot(mcm):
    st = mcm.state
    return (
        [st.mate_of(i) for i in range(mcm.graph.n)],
        sorted(st.matched_pairs()),
        st.matched_count(),
    )


# -- config ---------------------------------------------------------------


def test_search_depth_values():
    assert LevelConfig(epsilon=1.0).search_depth == 1
    assert LevelConfig(epsilon=0.5).search_depth == 3
    assert LevelConfig(epsilon=1 / 3).search_depth == 5
    assert LevelConfig(epsilon=0.4).search_depth == 4
    assert LevelConfig(epsilon=2.0).search_depth == 1  # floor of one step


# -- random-walk augmentation ----------------------------------------------


def test_walk_matches_adjacent_free_neighbor():
    g = build_graph(2, [(0, 1, 1)])
    mcm = make_mcm(g)
    assert augment_from(mcm, 0) is True
    assert mcm.state.matched_count() == 1


def test_walk_from_isolated_vertex_fails_without_mutation():
    g = build_graph(3, [(1, 2, 1)])
    mcm = make_mcm(g)
    before = snapshot(mcm)
    assert augment_from(mcm, 0) is False
    assert snapshot(mcm) == before


def test_walk_augments_along_p4():
    # 0-1-2-3 with (1,2) matched: a walk from 0 steals 1 from 2, then at 2
    # either matches free 3 or draws 1, which it has already touched, and
    # fails.  Every success is the augmentation; a failure leaves the
    # matching as it was.
    successes = 0
    for seed in range(20):
        g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        mcm = make_mcm(g, seed=seed, epsilon=0.5)
        mcm.state.match_edge(1, 2)
        if augment_from(mcm, 0):
            successes += 1
            assert sorted(mcm.state.matched_pairs()) == [(0, 1), (2, 3)]
        else:
            assert sorted(mcm.state.matched_pairs()) == [(1, 2)]
    assert successes > 0


def test_walk_augments_along_p4_with_retries():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    mcm = make_mcm(g, seed=3, epsilon=0.5)
    mcm.state.match_edge(1, 2)
    assert any(augment_from(mcm, 0) for _ in range(30))
    assert mcm.state.matched_count() == 2


def test_augment_from_matched_vertex_rejected():
    g = build_graph(2, [(0, 1, 1)])
    mcm = make_mcm(g)
    mcm.state.match_edge(0, 1)
    with pytest.raises(ValueError):
        augment_from(mcm, 0)


def reference_walk(mcm, start, seed):
    """Reference for DynamicMcm._walk_once: neighbors drawn through
    random_neighbor (rng.randrange), mates read through a copy of seed, and
    a failure as soon as a drawn neighbor is already in that overlay."""
    g = mcm.graph
    base = mcm.state._mate
    over = dict(seed)
    cur = start
    for _ in range(mcm.config.search_depth):
        nb = random_neighbor(g, cur, mcm.rng)
        if nb is None or nb in over:
            return None
        displaced = base[nb]
        over[cur] = nb
        over[nb] = cur
        if displaced == FREE:
            return over
        over[displaced] = FREE
        cur = displaced
    return None


def assert_walk_matches_reference(mcm, start, seed):
    # Same overlay and same RNG state afterwards, from the same RNG state.
    state = mcm.rng.getstate()
    got = mcm._walk_once(start, seed, mcm.graph.degree(start))
    after = mcm.rng.getstate()
    mcm.rng.setstate(state)
    assert got == reference_walk(mcm, start, seed)
    assert mcm.rng.getstate() == after


def test_walk_kernel_draws_like_random_neighbor():
    # The walk inlines rng.randrange(k); the golden digests rest on it
    # consuming the RNG exactly as randrange does.  Vertex 0 is a hub whose
    # degree runs over 1 and powers of two, where k.bit_length() makes the
    # rejection loop redraw most often.
    rng = random.Random(77)
    degrees = set()
    for trial in range(300):
        hub_degree = rng.choice((1, 2, 3, 4, 5, 7, 8, 9, 16, 17))
        n = hub_degree + rng.randint(2, 8)
        g = DynamicGraph(n)
        for x in range(1, hub_degree + 1):
            g.insert_edge(0, x, 1)
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(1, n), 2)
            if not g.has_edge(u, v):
                g.insert_edge(u, v, 1)
        mcm = make_mcm(g, seed=trial, epsilon=rng.choice((1.0, 0.5, 0.2)))
        for u, v, _w in sorted(g.edges()):  # the hub stays free
            free = mcm.state.mate_of(u) == FREE and mcm.state.mate_of(v) == FREE
            if free and u != 0 and rng.random() < 0.6:
                mcm.state.match_edge(u, v)
        for start in [x for x in range(n) if mcm.state.mate_of(x) == FREE]:
            degrees.add(g.degree(start))
            assert_walk_matches_reference(mcm, start, {})
    assert {1, 2, 4, 8, 16} <= degrees


def test_walk_kernel_reads_mates_through_its_seed():
    # handle_insert's swap as a seed: (0,1) matched in the state, 2 inserted
    # next to 1, so the walk starts at the displaced 0 with {1: 2, 2: 1}.
    rng = random.Random(5)
    for trial in range(200):
        n = 8
        g = build_graph(n, [(0, 1, 1), (1, 2, 1)])
        for _ in range(10):
            u, v = rng.sample(range(n), 2)
            if not g.has_edge(u, v):
                g.insert_edge(u, v, 1)
        mcm = make_mcm(g, seed=trial, epsilon=0.2)
        mcm.state.match_edge(0, 1)
        for u, v, _w in sorted(g.edges()):
            free = mcm.state.mate_of(u) == FREE and mcm.state.mate_of(v) == FREE
            if free and 2 not in (u, v) and rng.random() < 0.5:
                mcm.state.match_edge(u, v)
        seed = {1: 2, 2: 1, 0: FREE}
        assert_walk_matches_reference(mcm, 0, seed)
        assert seed == {1: 2, 2: 1, 0: FREE}  # the walk copies it


def test_walk_fails_on_drawing_a_touched_vertex():
    # 0-1-2 with (1,2) matched, depth 19: the walk from 0 steals 1 from 2,
    # then at 2 draws 1 again, which it has touched, and gives up after two
    # draws instead of spending its depth stealing 1 back and forth.
    for seed in range(10):
        g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
        mcm = make_mcm(g, seed=seed, epsilon=0.1)
        assert mcm.config.search_depth == 19
        mcm.state.match_edge(1, 2)
        before = snapshot(mcm)
        assert augment_from(mcm, 0) is False
        assert snapshot(mcm) == before
        fresh = random.Random(seed)
        fresh.randrange(1)
        fresh.randrange(1)
        assert mcm.rng.getstate() == fresh.getstate()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    pairs=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30
    ),
    match_bits=st.integers(min_value=0, max_value=2**30),
    seed=st.integers(min_value=0, max_value=2**32),
    epsilon=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
def test_successful_walk_flips_a_simple_alternating_path(
    n, pairs, match_bits, seed, epsilon
):
    g = DynamicGraph(n)
    for u, v in pairs:
        u, v = u % n, v % n
        if u != v and not g.has_edge(u, v):
            g.insert_edge(u, v, 1)
    mcm = make_mcm(g, seed=seed, epsilon=epsilon)
    for i, (u, v, _w) in enumerate(sorted(g.edges())):
        free = mcm.state.mate_of(u) == FREE and mcm.state.mate_of(v) == FREE
        if free and match_bits >> i & 1:
            mcm.state.match_edge(u, v)
    for start in range(n):
        if mcm.state.mate_of(start) != FREE:
            continue
        before = [mcm.state.mate_of(x) for x in range(n)]
        size = mcm.state.matched_count()
        if not augment_from(mcm, start):
            continue
        after = [mcm.state.mate_of(x) for x in range(n)]
        assert mcm.state.matched_count() == size + 1
        # Follow the path: a new matched edge out of each even vertex, the
        # old one out of each odd vertex, until a vertex that was free.
        path = [start]
        while True:
            x = path[-1]
            y = after[x]
            assert y != before[x] and g.has_edge(x, y)
            path.append(y)
            z = before[y]
            if z == FREE:
                break
            path.append(z)
        assert len(path) == len(set(path))
        # One draw per unmatched edge, at most search_depth draws.
        assert len(path) // 2 <= mcm.config.search_depth
        assert set(path) == {x for x in range(n) if after[x] != before[x]}
        mcm.audit()


# -- bounded BFS augmentation ------------------------------------------------


def test_bfs_trivial_free_edge():
    g = build_graph(2, [(0, 1, 1)])
    mcm = make_mcm(g, kind="bfs")
    assert augment_from(mcm, 0) is True
    assert mcm.state.matched_count() == 1


def test_bfs_no_augmenting_path_returns_false():
    # 0-1-2-3-4 with (1,2), (3,4) matched: from 0 every alternating walk
    # dead-ends at 4, whose only neighbor is its mate.
    g = build_graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    mcm = ExactBipartiteMcm(g, 11)
    mcm.state.match_edge(1, 2)
    mcm.state.match_edge(3, 4)
    before = snapshot(mcm)
    assert augment_from(mcm, 0) is False
    assert snapshot(mcm) == before


def test_bfs_depth_budget_five_reaches_length_five_path():
    # P6 with the two middle edges matched: the only augmenting path from 0
    # uses 5 edges, inside an epsilon = 1/3 budget.
    g = build_graph(6, [(i, i + 1, 1) for i in range(5)])
    mcm = make_mcm(g, kind="bfs", epsilon=1 / 3)
    mcm.state.match_edge(1, 2)
    mcm.state.match_edge(3, 4)
    assert mcm.config.search_depth == 5
    assert augment_from(mcm, 0) is True
    assert sorted(mcm.state.matched_pairs()) == [(0, 1), (2, 3), (4, 5)]


def test_bfs_depth_budget_four_misses_length_five_path():
    g = build_graph(6, [(i, i + 1, 1) for i in range(5)])
    mcm = make_mcm(g, kind="bfs", epsilon=0.4)
    mcm.state.match_edge(1, 2)
    mcm.state.match_edge(3, 4)
    assert mcm.config.search_depth == 4
    before = snapshot(mcm)
    assert augment_from(mcm, 0) is False
    assert snapshot(mcm) == before


def test_bfs_safe_mode_lifts_the_depth_budget():
    # The P6 path that an epsilon = 0.4 budget misses (above).
    g = build_graph(6, [(i, i + 1, 1) for i in range(5)])
    mcm = ExactBipartiteMcm(g, 11)
    mcm.state.match_edge(1, 2)
    mcm.state.match_edge(3, 4)
    assert augment_from(mcm, 0) is True
    assert sorted(mcm.state.matched_pairs()) == [(0, 1), (2, 3), (4, 5)]


# -- failed attempts ------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [dict(kind="walk"), dict(kind="bfs")],
    ids=["walk", "bfs"],
)
def test_failed_augment_writes_nothing(cfg):
    # P5 with (1,2) and (3,4) matched has no augmenting path from 0, yet a
    # walk from 0 can steal along it for the whole depth budget.
    for seed in range(20):
        g = build_graph(5, [(i, i + 1, 1) for i in range(4)])
        mcm = make_mcm(g, seed=seed, epsilon=0.2, **cfg)
        mcm.state.match_edge(1, 2)
        mcm.state.match_edge(3, 4)
        watchers = [mcm.state.watch(), mcm.state.watch()]
        before = snapshot(mcm)
        assert augment_from(mcm, 0) is False
        assert watchers == [set(), set()]
        assert snapshot(mcm) == before


@pytest.mark.parametrize("kind", ["walk", "bfs"])
def test_failed_insert_swap_restores_the_original_pair(kind):
    # (0,1) matched and 0 has no other neighbor: inserting (1,2) swaps 2 in,
    # the displaced 0 cannot re-augment, and the swap is taken back.
    for seed in range(10):
        g = build_graph(3, [(0, 1, 1)])
        mcm = make_mcm(g, seed=seed, kind=kind, epsilon=0.2)
        mcm.state.match_edge(0, 1)
        g.insert_edge(1, 2, 1)
        mcm.handle_insert(1, 2)
        assert sorted(mcm.state.matched_pairs()) == [(0, 1)]
        assert mcm.state.mate_of(2) == FREE
        assert mcm.state.matched_count() == 1
        assert (mcm.attempts, mcm.successes) == (1, 0)
        mcm.audit()


@pytest.mark.parametrize(
    "cfg",
    [dict(kind="walk"), dict(kind="bfs")],
    ids=["walk", "bfs"],
)
def test_failed_insert_swap_writes_nothing(cfg):
    # Same setting as above: the swap lives only in the search's seed, so a
    # failure marks no vertex as changed.
    for seed in range(10):
        g = build_graph(3, [(0, 1, 1)])
        mcm = make_mcm(g, seed=seed, epsilon=0.2, **cfg)
        mcm.state.match_edge(0, 1)
        watcher = mcm.state.watch()
        before = snapshot(mcm)
        g.insert_edge(1, 2, 1)
        mcm.handle_insert(1, 2)
        assert watcher == set()
        assert snapshot(mcm) == before
        assert (mcm.attempts, mcm.successes) == (1, 0)


# -- update handlers -----------------------------------------------------------


def test_insert_free_free_matches_directly():
    g = build_graph(2, [])
    mcm = make_mcm(g)
    g.insert_edge(0, 1, 1)
    mcm.handle_insert(0, 1)
    assert sorted(mcm.state.matched_pairs()) == [(0, 1)]


def test_insert_between_matched_vertices_unsafe_is_noop():
    # Both ends matched: the insert must write, count and draw nothing.
    for kind in ("walk", "bfs"):
        g = build_graph(4, [(0, 1, 1), (2, 3, 1)])
        mcm = make_mcm(g, kind=kind)
        mcm.state.match_edge(0, 1)
        mcm.state.match_edge(2, 3)
        changed = mcm.state.watch()
        rng_state = mcm.rng.getstate()
        g.insert_edge(1, 2, 1)
        mcm.handle_insert(1, 2)
        assert sorted(mcm.state.matched_pairs()) == [(0, 1), (2, 3)]
        assert not changed and mcm.rng.getstate() == rng_state
        assert mcm.attempts == 0


def test_insert_swap_keeps_gain_when_displaced_mate_recovers():
    # (0,1) matched, 3 free next to 0.  Inserting (1,2) displaces 0, which
    # re-augments via (0,3): cardinality grows to 2.
    g = build_graph(4, [(0, 1, 1), (0, 3, 1)])
    mcm = make_mcm(g, kind="bfs")
    mcm.state.match_edge(0, 1)
    g.insert_edge(1, 2, 1)
    mcm.handle_insert(1, 2)
    assert sorted(mcm.state.matched_pairs()) == [(0, 3), (1, 2)]


def test_insert_swap_rolls_back_when_displaced_mate_stuck():
    g = build_graph(3, [(0, 1, 1)])
    mcm = make_mcm(g, kind="bfs")
    mcm.state.match_edge(0, 1)
    g.insert_edge(1, 2, 1)
    mcm.handle_insert(1, 2)
    # 0 has no second neighbor, so the swap is undone wholesale.
    assert sorted(mcm.state.matched_pairs()) == [(0, 1)]
    mcm.audit()


def test_safe_mode_recovers_augmenting_path_through_both_matched_insert():
    edges = [(0, 1, 1), (2, 3, 1), (0, 4, 1), (3, 5, 1)]
    for exact, expected in ((False, 2), (True, 3)):
        g = build_graph(6, edges)
        mcm = ExactBipartiteMcm(g, 11) if exact else make_mcm(g, kind="bfs")
        mcm.state.match_edge(0, 1)
        mcm.state.match_edge(2, 3)
        g.insert_edge(1, 2, 1)
        mcm.handle_insert(1, 2)
        assert mcm.state.matched_count() == expected
        mcm.audit()


def test_delete_matched_edge_in_p4_settles_at_cardinality_one():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    mcm = make_mcm(g)
    mcm.state.match_edge(0, 1)
    mcm.state.match_edge(2, 3)
    g.delete_edge(0, 1)
    mcm.handle_delete(0, 1)
    # After the delete only edges (1,2), (2,3) remain; max cardinality is 1.
    assert mcm.state.matched_count() == 1
    assert exact_mcm(g) == 1
    mcm.audit()


def test_delete_unmatched_edge_keeps_matching():
    # Both ends matched and the edge unmatched: the delete must write, count
    # and draw nothing.
    for kind in ("walk", "bfs"):
        g = build_graph(4, [(0, 1, 1), (2, 3, 1), (1, 2, 1)])
        mcm = make_mcm(g, kind=kind)
        mcm.state.match_edge(0, 1)
        mcm.state.match_edge(2, 3)
        changed = mcm.state.watch()
        rng_state = mcm.rng.getstate()
        g.delete_edge(1, 2)
        mcm.handle_delete(1, 2)
        assert sorted(mcm.state.matched_pairs()) == [(0, 1), (2, 3)]
        assert not changed and mcm.rng.getstate() == rng_state
        assert mcm.attempts == 0


@pytest.mark.parametrize("kind", ["walk", "bfs"])
def test_free_start_without_neighbors_fails_without_searching(kind):
    # Deleting the only edge leaves both ends free and isolated: one failed
    # attempt each, no search run and no draw.
    g = build_graph(2, [(0, 1, 1)])
    mcm = make_mcm(g, kind=kind)
    mcm.state.match_edge(0, 1)
    rng_state = mcm.rng.getstate()

    def no_search(start, seed, k):
        raise AssertionError(f"search from isolated vertex {start}")

    mcm._search = no_search
    g.delete_edge(0, 1)
    mcm.handle_delete(0, 1)
    assert mcm.attempts == 2 and mcm.successes == 0
    assert mcm.rng.getstate() == rng_state
    assert mcm.state.matched_count() == 0


def test_insert_displacing_a_degree_one_vertex_fails_after_one_draw():
    # (0, 1) matched and (1, 2) inserted: the walk starts at the displaced
    # 0, whose only neighbor 1 is in the seed, so it fails on its first
    # draw and writes nothing, the seed included.
    for seed in range(10):
        g = build_graph(3, [(0, 1, 1)])
        mcm = make_mcm(g, seed=seed, epsilon=0.1)
        mcm.state.match_edge(0, 1)
        changed = mcm.state.watch()
        before = snapshot(mcm)
        g.insert_edge(1, 2, 1)
        mcm.handle_insert(1, 2)
        assert snapshot(mcm) == before and not changed
        assert mcm.attempts == 1 and mcm.successes == 0
        fresh = random.Random(seed)
        fresh.randrange(1)
        assert mcm.rng.getstate() == fresh.getstate()
        swap = {1: 2, 2: 1, 0: FREE}
        assert mcm._walk_once(0, swap, 1) is None
        assert swap == {1: 2, 2: 1, 0: FREE}


# -- properties ----------------------------------------------------------------


def test_failed_attempts_are_side_effect_free():
    rng = random.Random(909)
    failures = 0
    trials = 0
    while failures < 10_000:
        trials += 1
        n = rng.randint(4, 12)
        g = DynamicGraph(n)
        for _ in range(rng.randint(2, 2 * n)):
            u, v = rng.sample(range(n), 2)
            if not g.has_edge(u, v):
                g.insert_edge(u, v, 1)
        kind = rng.choice(("walk", "bfs"))
        mcm = make_mcm(
            g,
            seed=rng.randrange(1 << 30),
            kind=kind,
            epsilon=rng.choice((2.0, 1.0, 0.5)),
        )
        # Random partial matching over the edges.
        for u, v, _w in sorted(g.edges()):
            free = mcm.state.mate_of(u) == FREE and mcm.state.mate_of(v) == FREE
            if rng.random() < 0.5 and free:
                mcm.state.match_edge(u, v)
        free = [x for x in range(n) if mcm.state.mate_of(x) == FREE]
        rng.shuffle(free)
        for x in free[:4]:
            if mcm.state.mate_of(x) != FREE:  # an earlier success took it
                continue
            before = snapshot(mcm)
            if not augment_from(mcm, x):
                failures += 1
                assert snapshot(mcm) == before
        assert trials < 30_000, "not enough failing attempts generated"


def test_safe_unbounded_bfs_is_exact_on_bipartite_streams():
    for trial in range(20):
        rng = random.Random(4000 + trial)
        n_left, n_right = rng.randint(2, 6), rng.randint(2, 6)
        m = rng.randint(1, min(14, n_left * n_right))
        n, edges = random_bipartite_edges(n_left, n_right, m, 4000 + trial)
        g = DynamicGraph(n)
        mcm = ExactBipartiteMcm(g, trial)
        present = []
        for u, v in edges:
            g.insert_edge(u, v, 1)
            mcm.handle_insert(u, v)
            present.append((u, v))
            assert mcm.state.matched_count() == exact_mcm(g)
        rng.shuffle(present)
        for u, v in present[: len(present) // 2]:
            g.delete_edge(u, v)
            mcm.handle_delete(u, v)
            assert mcm.state.matched_count() == exact_mcm(g)


def test_audit_counts_unit_pairs_whatever_the_edge_weights():
    g = DynamicGraph(4)
    mcm = make_mcm(g)
    g.insert_edge(0, 1, 5)
    mcm.handle_insert(0, 1)
    mcm.audit()
    assert mcm.state.matched_count() == 1
    mcm.state.match_edge(2, 3)  # no such edge in the graph
    with pytest.raises(
        MatchingCorruptionError, match=r"matching pair \(2, 3\) is not an edge"
    ):
        mcm.audit()
