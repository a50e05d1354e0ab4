"""Geometric weight levels: bucketing, one level per class reached, greedy merge."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.errors import MatchingCorruptionError
from dynmatch.graph import MAX_WEIGHT, DynamicGraph
from dynmatch.levels import (
    MIN_SAFE_EPSILON,
    LevelConfig,
    LevelMwm,
    level_index,
    merge_levels,
)
from dynmatch.matching import FREE
from dynmatch.mcm import DynamicMcm
from dynmatch.oracle import exact_mwm
from dynmatch.random_walk import RandomConfig, RandomWalkMwm

from conftest import build_graph, random_graph
from support.levels import ExactLevelMwm, level_edges
from support.oracle import exact_mcm_matching


def make_level_algo(graph, *, seed=13, **cfg):
    return LevelMwm(graph, LevelConfig(**cfg), seed)


def level_edge_sets(algo):
    return [level_edges(lvl) for lvl in algo.levels]


def level_of(algo, index):
    """The level of class ``index``, looked up by its index, not its position."""
    (level,) = [lvl for lvl in algo.levels if lvl.index == index]
    return level


def indices(algo):
    return [lvl.index for lvl in algo.levels]


# -- level_index ----------------------------------------------------------


def test_level_index_examples():
    assert level_index(1, 1.0) == 0
    assert level_index(1, 0.37) == 0
    assert level_index(8, 1.0) == 3
    assert level_index(100, 1.0) == 6


def test_level_index_rejects_subunit_weights():
    with pytest.raises(ValueError):
        level_index(0, 1.0)
    with pytest.raises(ValueError):
        level_index(0.5, 1.0)


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_level_index_rejects_non_finite_weights(w):
    with pytest.raises(ValueError, match="finite"):
        level_index(w, 0.1)


@pytest.mark.parametrize("w", [MAX_WEIGHT + 1, 1.7e308, 10**400])
def test_level_index_rejects_weights_above_ceiling(w):
    # 1.7e308 and 10**400 used to overflow in base ** (i + 1).
    with pytest.raises(ValueError, match="2\\*\\*53"):
        level_index(w, 0.1)
    i = level_index(MAX_WEIGHT, 0.1)
    assert 1.1**i <= MAX_WEIGHT < 1.1 ** (i + 1)


def test_level_index_membership_coherence():
    rng = random.Random(88)
    for _ in range(2000):
        eps = rng.choice((1.0, 0.5, 0.25, 0.1, 0.37))
        w = rng.choice((rng.randint(1, 10**6), 1 + rng.random() * 999))
        i = level_index(w, eps)
        base = 1.0 + eps
        assert base**i <= w, (w, eps, i)
        assert base ** (i + 1) > w, (w, eps, i)


def test_level_index_exact_powers():
    for eps in (1.0, 0.5):
        base = 1.0 + eps
        for i in range(20):
            w = base**i
            assert level_index(w, eps) == i


# -- config -----------------------------------------------------------------


def test_config_validation():
    for eps in (0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            LevelConfig(epsilon=eps)
    with pytest.raises(ValueError):
        LevelConfig(mcm_kind="exactish")
    with pytest.raises(ValueError):
        LevelConfig(mcm_kind="exact")
    assert LevelConfig(epsilon=0.5, mcm_kind="bfs").label() == "eps=0.5,mcm=bfs"


def test_config_small_epsilon_guard():
    with pytest.raises(ValueError, match="minimum is 0.1"):
        LevelConfig(epsilon=MIN_SAFE_EPSILON / 2)
    # Subnormal values: building the message must not overflow.
    for tiny in (5e-324, 1e-320, 1e-310):
        with pytest.raises(ValueError, match="minimum is 0.1"):
            LevelConfig(epsilon=tiny)
    assert LevelConfig(epsilon=MIN_SAFE_EPSILON).epsilon == MIN_SAFE_EPSILON


def test_config_nested_mcm_defaults():
    # Every level runs the subroutine at the level epsilon and kind.
    for cfg in (LevelConfig(epsilon=0.5), LevelConfig(mcm_kind="bfs")):
        g = build_graph(4, [])
        algo = LevelMwm(g, cfg, 13)
        for u, v, w in ((0, 1, 9), (2, 3, 1)):
            g.insert_edge(u, v, w)
            algo.handle_insert(u, v, w)
        assert len(algo.levels) > 1
        for level in algo.levels:
            assert level.worker.config is cfg
    assert LevelConfig().label() == "eps=1,mcm=walk"


# -- lazy level creation ---------------------------------------------------


def test_no_levels_before_first_insert():
    g = build_graph(4, [])
    algo = make_level_algo(g)
    assert algo.levels == []
    assert algo.weight == 0
    assert algo.matched_pairs() == []


def test_unit_weight_insert_touches_only_level_zero():
    g = build_graph(2, [])
    algo = make_level_algo(g, epsilon=1.0)
    g.insert_edge(0, 1, 1)
    algo.handle_insert(0, 1, 1)
    assert len(algo.levels) == 1
    assert level_edge_sets(algo) == [[(0, 1)]]
    assert algo.weight == 1


def test_weight_100_insert_creates_level_six_only():
    # Weight 100 is class 6 (thresholds 1, 2, 4, ..., 64); no edge has
    # reached classes 0..5, so they have no level.
    g = build_graph(2, [])
    algo = make_level_algo(g, epsilon=1.0)
    g.insert_edge(0, 1, 100)
    algo.handle_insert(0, 1, 100)
    assert indices(algo) == [6]
    assert level_edges(level_of(algo, 6)) == [(0, 1)]
    assert algo.weight == 100
    algo.audit(deep=True)


def test_ladder_extension_backfills_existing_edges():
    g = build_graph(4, [])
    algo = make_level_algo(g, epsilon=1.0)
    g.insert_edge(0, 1, 8)
    algo.handle_insert(0, 1, 8)
    assert indices(algo) == [3]
    g.insert_edge(2, 3, 100)
    algo.handle_insert(2, 3, 100)
    assert indices(algo) == [3, 6]
    # Level 6 was created after (0,1,8) existed but excludes it by weight.
    assert level_edges(level_of(algo, 3)) == [(0, 1), (2, 3)]
    assert level_edges(level_of(algo, 6)) == [(2, 3)]
    # A level created below an existing edge holds it from the start.
    g.insert_edge(0, 2, 1)
    algo.handle_insert(0, 2, 1)
    assert indices(algo) == [0, 3, 6]
    assert level_edges(level_of(algo, 0)) == [(0, 1), (0, 2), (2, 3)]
    assert sorted(level_of(algo, 0).state.matched_pairs()) == [(0, 1), (2, 3)]
    algo.audit(deep=True)


def test_middle_class_level_starts_with_the_mates_of_the_level_above():
    # Classes 6 and 0 have levels when the first class-3 edge arrives.
    # Level 3 starts as a copy of level 6's mates, with no search, no draw
    # and an empty change set, and then takes the new edge between two
    # free vertices.
    g = build_graph(8, [])
    algo = make_level_algo(g, epsilon=1.0)
    for u, v, w in ((0, 1, 100), (2, 3, 64), (4, 5, 1), (1, 4, 1)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    assert indices(algo) == [0, 6]
    algo.weight  # drains the change sets
    top = level_of(algo, 6)
    assert sorted(top.state.matched_pairs()) == [(0, 1), (2, 3)]
    g.insert_edge(6, 7, 8)
    algo.handle_insert(6, 7, 8)
    assert indices(algo) == [0, 3, 6]
    middle = level_of(algo, 3)
    assert sorted(middle.state.matched_pairs()) == [(0, 1), (2, 3), (6, 7)]
    assert middle.changed == {6, 7}
    assert middle.worker.attempts == 0
    assert middle.worker.rng.getstate() == random.Random(13 * 1_000_003 + 3).getstate()
    assert algo.weight == 100 + 64 + 1 + 8
    algo.audit(deep=True)
    # The new level then follows its own edges: (0, 6) is class 3, so not
    # an edge of level 6.
    g.insert_edge(0, 6, 8)
    algo.handle_insert(0, 6, 8)
    assert level_edges(middle) == [(0, 1), (0, 6), (2, 3), (6, 7)]
    assert level_edges(top) == [(0, 1), (2, 3)]
    algo.audit(deep=True)


def test_integer_weights_at_eps_tenth_make_one_level_per_class_reached():
    # Weights 1..100 reach 34 of the classes 0..48 at eps=0.1; the 15 they
    # skip are low classes, which get no level.
    weights = list(range(1, 101))
    random.Random(3).shuffle(weights)
    g = build_graph(200, [])
    algo = make_level_algo(g, epsilon=0.1)
    for k, w in enumerate(weights):
        g.insert_edge(2 * k, 2 * k + 1, w)
        algo.handle_insert(2 * k, 2 * k + 1, w)
    reached = sorted({level_index(w, 0.1) for w in weights})
    assert len(reached) == 34 and reached[-1] == 48
    assert indices(algo) == reached
    assert algo.weight == sum(weights)
    algo.audit(deep=True)


def test_delete_leaves_exactly_the_levels_containing_the_edge():
    g = build_graph(4, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (u, v, w) in ((0, 1, 8), (2, 3, 100)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    g.delete_edge(0, 1)
    algo.handle_delete(0, 1)
    sets = level_edge_sets(algo)
    assert all(s == [(2, 3)] for s in sets)
    algo.audit(deep=True)


def level_prefixes(level):
    return [level._adj[u][: level.degree(u)] for u in range(level.n)]


def test_delete_visits_only_levels_holding_the_edge(monkeypatch):
    # The delete takes the edge out of the shared adjacency, so out of the
    # prefix of every level with index <= its class, then calls the workers
    # of those levels, and leaves every level above alone.  Levels 0, 3 and
    # 6 exist.  (1, 2) is unmatched at level 0, where 0-1 and 2-3 match
    # both its ends, and its worker is called there all the same.
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (u, v, w) in ((0, 1, 1), (2, 3, 8), (4, 5, 100), (1, 2, 8)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    assert indices(algo) == [0, 3, 6]
    assert [lvl.state.mate_of(1) for lvl in algo.levels] == [0, FREE, FREE]
    calls = []
    original = DynamicMcm.handle_delete

    def recording_delete(worker, u, v):
        calls.append((worker, (u, v) in level_edges(worker.graph)))
        return original(worker, u, v)

    monkeypatch.setattr(DynamicMcm, "handle_delete", recording_delete)
    for (u, v), top, called in (
        ((1, 2), 3, [0, 3]),
        ((2, 3), 3, [0, 3]),
        ((0, 1), 0, [0]),
        ((4, 5), 6, [0, 3, 6]),
    ):
        calls.clear()
        before = [(level_prefixes(lvl), level_edges(lvl)) for lvl in algo.levels]
        g.delete_edge(u, v)
        algo.handle_delete(u, v)
        assert [worker for worker, _ in calls] == [
            level_of(algo, i).worker for i in called
        ]
        assert not any(held for _, held in calls)
        for i, lvl in enumerate(algo.levels):
            prefixes, edges = before[i]
            if lvl.index <= top:
                assert (u, v) in edges
                assert level_edges(lvl) == [e for e in edges if e != (u, v)]
            else:
                assert level_prefixes(lvl) == prefixes
    assert level_edge_sets(algo) == [[]] * 3
    algo.audit(deep=True)


def test_delete_calls_only_levels_at_or_below_its_class(monkeypatch):
    # Edge (0, 1) of class 3 is matched at every level that holds it: its
    # delete calls every level with index <= 3, bottom up, and no level
    # above.
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (u, v, w) in ((2, 3, 1), (0, 1, 8), (4, 5, 100)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    assert algo.levels[-1].index == 6
    called = []
    original = DynamicMcm.handle_delete

    def recording_delete(worker, u, v):
        called.append(worker.graph.index)
        return original(worker, u, v)

    monkeypatch.setattr(DynamicMcm, "handle_delete", recording_delete)
    g.delete_edge(0, 1)
    algo.handle_delete(0, 1)
    assert called == [lvl.index for lvl in algo.levels if lvl.index <= 3]
    assert 0 in called and 3 in called
    algo.audit(deep=True)


def test_insert_calls_every_level_at_or_below_its_class(monkeypatch):
    # Levels 0, 3 and 6 exist.  (1, 2) of class 3 joins levels 0 and 3, so
    # their workers are called, bottom up, although 0-1 and 2-3 match both
    # its ends at level 0; level 6 is not called.
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (u, v, w) in ((0, 1, 1), (2, 3, 8), (4, 5, 100)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    assert indices(algo) == [0, 3, 6]
    assert [level_of(algo, 0).state.mate_of(x) for x in (1, 2)] == [0, 3]
    called = []
    original = DynamicMcm.handle_insert

    def recording_insert(worker, u, v):
        called.append(worker.graph.index)
        return original(worker, u, v)

    monkeypatch.setattr(DynamicMcm, "handle_insert", recording_insert)
    g.insert_edge(1, 2, 8)
    algo.handle_insert(1, 2, 8)
    assert called == [0, 3]
    algo.audit(deep=True)


@pytest.mark.parametrize("kind", ["walk", "bfs"])
def test_level_keeps_no_trace_of_updates_its_worker_ignores(kind):
    # At level 0, 0-1 and 2-3 are matched.  Inserting (1, 2) there, and
    # deleting it again while it is unmatched, reaches the level-0 worker,
    # which leaves the level's mates, its change set, its RNG and its
    # attempt count as they were.
    g = build_graph(4, [])
    algo = make_level_algo(g, epsilon=1.0, mcm_kind=kind)
    for u, v in ((0, 1), (2, 3)):
        g.insert_edge(u, v, 1)
        algo.handle_insert(u, v, 1)
    algo.weight  # drains the change sets
    level = algo.levels[0]
    before = (list(level.state._mate), level.worker.rng.getstate())
    assert before[0] == [1, 0, 3, 2]
    g.insert_edge(1, 2, 1)
    algo.handle_insert(1, 2, 1)
    assert (list(level.state._mate), level.worker.rng.getstate()) == before
    assert not level.changed
    g.delete_edge(1, 2)
    algo.handle_delete(1, 2)
    assert (list(level.state._mate), level.worker.rng.getstate()) == before
    assert not level.changed
    assert level.worker.attempts == level.worker.successes == 0
    algo.audit(deep=True)


# -- merge ---------------------------------------------------------------------


def set_level_matchings(algo, per_level):
    for lvl in algo.levels:
        for u, _ in lvl.state.matched_pairs():
            lvl.state.unmatch(u)
    for i, pairs in per_level.items():
        for u, v in pairs:
            level_of(algo, i).state.match_edge(u, v)


def test_merge_single_nonempty_level():
    g = build_graph(4, [])
    algo = make_level_algo(g)
    g.insert_edge(0, 1, 4)
    algo.handle_insert(0, 1, 4)
    set_level_matchings(algo, {2: [(0, 1)]})
    out = merge_levels(algo)
    assert sorted(out.matched_pairs()) == [(0, 1)]
    assert out.total_weight == 4


def test_merge_blocks_lower_level_edge_sharing_a_vertex():
    # a=0 b=1 c=2 d=3 e=4: level 2 holds {(a,b)}, level 0 {(b,c), (d,e)};
    # (b,c) loses vertex b to the higher level, (d,e) survives.
    g = build_graph(5, [(0, 1, 4), (1, 2, 1), (3, 4, 1)])
    algo = make_level_algo(g)  # adopts the edges: levels 0 and 2
    set_level_matchings(algo, {2: [(0, 1)], 0: [(1, 2), (3, 4)]})
    out = merge_levels(algo)
    assert sorted(out.matched_pairs()) == [(0, 1), (3, 4)]
    assert out.total_weight == 5  # true weights 4 and 1


def test_merge_identical_matchings_is_idempotent():
    g = build_graph(4, [])
    algo = make_level_algo(g)
    g.insert_edge(0, 1, 4)
    algo.handle_insert(0, 1, 4)
    g.insert_edge(2, 3, 4)
    algo.handle_insert(2, 3, 4)
    set_level_matchings(
        algo, {lvl.index: [(0, 1), (2, 3)] for lvl in algo.levels}
    )
    out = merge_levels(algo)
    assert sorted(out.matched_pairs()) == [(0, 1), (2, 3)]
    assert out.total_weight == 8


# -- end-to-end streams -----------------------------------------------------


def random_stream(n, n_ops, seed, max_w=100, max_live=None):
    rng = random.Random(seed)
    present = {}
    ops = []
    for _ in range(n_ops):
        crowded = max_live is not None and len(present) >= max_live
        if present and (crowded or rng.random() < 0.3):
            u, v = rng.choice(sorted(present))
            del present[(u, v)]
            ops.append(("d", u, v, 0))
        else:
            u, v = rng.sample(range(n), 2)
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            w = rng.randint(1, max_w)
            present[key] = w
            ops.append(("i", key[0], key[1], w))
    return ops


def drive(algo, g, ops, per_update=None):
    for kind, u, v, w in ops:
        if kind == "i":
            g.insert_edge(u, v, w)
            algo.handle_insert(u, v, w)
        else:
            g.delete_edge(u, v)
            algo.handle_delete(u, v)
        if per_update is not None:
            per_update(algo, g)


def test_membership_invariant_holds_throughout_stream():
    g = DynamicGraph(12)
    algo = make_level_algo(g, epsilon=0.5, mcm_kind="bfs")
    drive(algo, g, random_stream(12, 150, seed=21),
          per_update=lambda a, _g: a.audit(deep=True))


def test_merged_weight_never_exceeds_optimum():
    for seed in (1, 2, 3):
        g = DynamicGraph(10)
        algo = make_level_algo(g, epsilon=1.0)

        def check(a, gr):
            _, opt = exact_mwm(gr)
            assert a.weight <= opt

        drive(algo, g, random_stream(10, 60, seed=seed, max_w=50, max_live=18), per_update=check)


def test_exact_backend_meets_half_times_one_plus_eps_bound():
    # With exact per-level matchings the merge is a 2(1+eps) approximation;
    # checked after every update on small random streams.
    for eps, denom_num, denom_den in ((1.0, 1, 4), (0.5, 1, 3)):
        for seed in (11, 12, 13, 14, 15):
            g = DynamicGraph(10)
            algo = ExactLevelMwm(g, LevelConfig(epsilon=eps), seed=13)

            def check(a, gr):
                _, opt = exact_mwm(gr)
                # merged >= opt / (2 (1 + eps)), kept in integers
                assert a.weight * denom_den >= opt * denom_num, (
                    a.weight,
                    opt,
                    eps,
                )

            drive(algo, g, random_stream(10, 50, seed=seed, max_w=100, max_live=18),
                  per_update=check)


def test_exact_levels_stay_maximum_after_every_op():
    # The bound above needs every exact level to hold a maximum matching of
    # its own edges after every op.  An insert between two vertices matched
    # at a level can open an augmenting path through the new edge there,
    # which the exact backend must take, so every level it belongs to must
    # see the call.
    for seed in range(200):
        g = DynamicGraph(8)
        algo = ExactLevelMwm(g, LevelConfig(epsilon=1.0), seed=13)

        def check(a, _g):
            for level in a.levels:
                edges = level_edges(level)
                maximum = exact_mcm_matching(build_graph(8, [(u, v, 1) for u, v in edges]))
                assert level.state.matched_count() == len(maximum), (
                    seed, level.index, edges, sorted(level.state.matched_pairs())
                )

        drive(algo, g, random_stream(8, 30, seed=seed), per_update=check)


def test_walk_backend_stream_stays_consistent():
    g = DynamicGraph(14)
    algo = make_level_algo(g, epsilon=1.0, mcm_kind="walk")
    drive(algo, g, random_stream(14, 300, seed=77))
    algo.audit(deep=True)
    stats = algo.stats()
    assert stats["successes"] >= 1
    assert stats["failures"] >= 0


@pytest.mark.parametrize(
    "epsilon, kind, sevenths",
    [
        pytest.param(1.0, "walk", False, id="1.0-walk"),
        pytest.param(0.1, "walk", False, id="0.1-walk"),
        pytest.param(0.5, "bfs", False, id="0.5-bfs"),
        pytest.param(0.1, "walk", True, id="0.1-walk-sevenths"),
    ],
)
def test_incremental_view_equals_full_merge_after_every_op(epsilon, kind, sevenths):
    g = DynamicGraph(60)
    algo = make_level_algo(g, seed=5, epsilon=epsilon, mcm_kind=kind)
    ops = random_stream(60, 2500, seed=31, max_live=50)
    if sevenths:  # non-integer weights in [1, 106/7]
        ops = [(k, u, v, (w + 6) / 7) for k, u, v, w in ops]

    def check(a, _g):
        ref = merge_levels(a)
        assert a.matched_pairs() == sorted(ref.matched_pairs())
        # Only the summation order of the total may differ.
        assert math.isclose(a.weight, ref.total_weight, rel_tol=1e-9)
        assert sevenths or a.weight == ref.total_weight
        # The refresh drains every level's work queue.
        assert not any(level.changed for level in a.levels)

    drive(algo, g, ops, per_update=check)
    algo.audit(deep=True)


# -- the shared level adjacency ---------------------------------------------


def assert_heaviest_class_first(algo):
    # Each vertex's entries are sorted heaviest class first, with one class
    # per neighbor, so every level's neighbors are one prefix.
    adjacency = algo.adjacency
    for u, (row, neg) in enumerate(zip(adjacency._adj, adjacency._neg)):
        assert len(row) == len(neg), u
        assert list(neg) == sorted(neg), u
        assert len(set(row)) == len(row), u


@settings(max_examples=80, deadline=None)
@given(
    epsilon=st.sampled_from((1.0, 0.5, 0.25)),
    kind=st.sampled_from(("walk", "bfs")),
    ops=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.integers(0, 7),
            # Mostly light weights, with heavy ones that add levels above
            # edges already present, and light ones that add levels below.
            st.one_of(st.integers(1, 12), st.integers(13, 5000)),
        ),
        max_size=60,
    ),
)
def test_carriers_track_master_edges_under_random_updates(epsilon, kind, ops):
    # An op on an absent edge inserts it, on a present one deletes it.
    g = DynamicGraph(8)
    algo = make_level_algo(g, epsilon=epsilon, mcm_kind=kind)
    for u, v, w in ops:
        if u == v:
            continue
        if g.has_edge(u, v):
            g.delete_edge(u, v)
            algo.handle_delete(u, v)
        else:
            g.insert_edge(u, v, w)
            algo.handle_insert(u, v, w)
        assert_heaviest_class_first(algo)
        for lvl in algo.levels:
            thr = (1.0 + epsilon) ** lvl.index
            assert level_edges(lvl) == sorted(
                (a, b) for a, b, x in g.edges() if x >= thr
            )
        algo.audit(deep=True)


def test_built_over_a_populated_graph_adopts_every_edge():
    g = random_graph(12, 30, seed=4)
    algo = make_level_algo(g, epsilon=0.5)
    assert indices(algo) == sorted({level_index(w, 0.5) for *_, w in g.edges()})
    for lvl in algo.levels:
        thr = 1.5**lvl.index
        assert level_edges(lvl) == sorted((u, v) for u, v, w in g.edges() if w >= thr)
    algo.audit(deep=True)


def test_deep_audit_names_the_vertex_of_a_corrupted_adjacency():
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (u, v, w) in ((0, 1, 8), (0, 2, 2), (3, 4, 2)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    algo.audit(deep=True)
    adj, neg = algo.adjacency._adj, algo.adjacency._neg
    assert (adj[0], neg[0]) == ([1, 2], [-3, -1])

    def corrupt(row, entries, match):
        saved = adj[row][:], neg[row][:]
        adj[row][:] = [v for v, _ in entries]
        neg[row][:] = [-c for _, c in entries]
        with pytest.raises(MatchingCorruptionError, match=match):
            algo.audit(deep=True)
        adj[row][:], neg[row][:] = saved
        algo.audit(deep=True)

    corrupt(0, [(2, 1), (1, 3)], r"vertex 0: classes \[1, 3\] are not heaviest first")
    corrupt(3, [], r"vertex 3: .* extra \[\], missing \[\(4, 1\)\]")
    corrupt(3, [(4, 1), (5, 1)], r"vertex 3: .* extra \[\(5, 1\)\], missing \[\]")
    corrupt(3, [(4, 1), (4, 1)], r"vertex 3: membership drift in 2 neighbors")
    corrupt(0, [(1, 3), (2, 2)], r"vertex 0: .* extra \[\(2, 2\)\], missing \[\(2, 1\)\]")
    assert indices(algo) == [1, 3]
    level_of(algo, 3).state.match_edge(3, 4)  # a class-1 edge, off level 3
    with pytest.raises(
        MatchingCorruptionError,
        match=r"level 3 matching pair \(3, 4\) is not an edge of its graph",
    ):
        algo.audit(deep=True)


def test_deep_audit_classes_non_integer_weights_by_value():
    # 1.05 and 1.2 share an integer part but not a class at eps=0.1, and 1
    # and 1.0 are one value: the audit's per-weight class memo must keep
    # the first pair apart and may merge the second.
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=0.1)
    for (u, v, w) in ((0, 1, 1.05), (0, 2, 1.2), (3, 4, 1), (3, 5, 1.0)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
    algo.audit(deep=True)
    adj, neg = algo.adjacency._adj, algo.adjacency._neg
    assert (adj[0], neg[0]) == ([2, 1], [-1, 0])
    adj[0][:], neg[0][:] = [1, 2], [0, 0]  # the 1.2 edge filed under class 0
    with pytest.raises(
        MatchingCorruptionError,
        match=r"vertex 0: .* extra \[\(2, 0\)\], missing \[\(2, 1\)\]",
    ):
        algo.audit(deep=True)


def test_adjacency_files_each_class_under_one_int_object():
    # Classes above 5 negate to ints Python does not cache; every entry of
    # one class, up to the top class of MAX_WEIGHT, is the same object.
    g = random_graph(40, 150, seed=7)
    algo = make_level_algo(g, epsilon=MIN_SAFE_EPSILON)
    u, v = next((u, v) for u in range(40) for v in range(u) if not g.has_edge(u, v))
    g.insert_edge(u, v, MAX_WEIGHT)
    algo.handle_insert(u, v, MAX_WEIGHT)
    objects: dict[int, set[int]] = {}
    for neg in algo.adjacency._neg:
        for c in neg:
            objects.setdefault(c, set()).add(id(c))
    assert -level_index(MAX_WEIGHT, MIN_SAFE_EPSILON) in objects
    assert len([c for c in objects if c < -5]) > 5
    assert all(len(ids) == 1 for ids in objects.values()), objects
    algo.audit(deep=True)


@pytest.mark.parametrize("u, v", [(4, 5), (5, 4)])
def test_deep_audit_names_the_level_of_a_one_sided_mate(u, v):
    # The mate list is a level's only record of its matching, so a write
    # to one side of a pair must not pass the deep audit.
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (a, b, w) in ((0, 1, 8), (2, 3, 4), (4, 5, 1)):
        g.insert_edge(a, b, w)
        algo.handle_insert(a, b, w)
    algo.audit(deep=True)
    assert indices(algo) == [0, 2, 3]
    assert level_of(algo, 2).state.mate_of(v) == FREE
    level_of(algo, 2).state._mate[u] = v  # v is left free
    with pytest.raises(
        MatchingCorruptionError,
        match=rf"level 2 matching mate array out of sync at vertex {u}: "
        rf"mate\[{u}\]={v}, mate\[{v}\]=-1",
    ):
        algo.audit(deep=True)


def test_deep_audit_names_the_vertex_where_the_merged_view_drifts():
    g = build_graph(6, [])
    algo = make_level_algo(g, epsilon=1.0)
    for (a, b, w) in ((0, 1, 8), (2, 3, 4), (4, 5, 1)):
        g.insert_edge(a, b, w)
        algo.handle_insert(a, b, w)
    algo.audit(deep=True)
    algo._view.unmatch(2)  # a self-consistent view no full merge gives
    with pytest.raises(
        MatchingCorruptionError,
        match=r"merged view drift at vertex 2: mate -1, weight 0; "
        r"a full merge gives mate 3, weight 4$",
    ):
        algo.audit(deep=True)


def peak_bytes(n, weights):
    """Peak traced memory of a master graph on n vertices and LevelMwm at
    eps=0.1 over disjoint edges of the given weights, all but
    2 * len(weights) vertices isolated; also returns the level count."""
    tracemalloc.start()
    try:
        g = DynamicGraph(n)
        algo = LevelMwm(g, LevelConfig(epsilon=0.1), seed=1)
        for k, w in enumerate(weights):
            g.insert_edge(2 * k, 2 * k + 1, w)
            algo.handle_insert(2 * k, 2 * k + 1, w)
        assert math.isclose(algo.weight, sum(weights), rel_tol=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, len(algo.levels)


def peak_bytes_of_a_full_ladder(n):
    """49 edges, one per class 0..48 at eps=0.1 (weight 1.1**i is exactly
    class i), so all 49 levels exist."""
    peak, count = peak_bytes(n, [1.1**i for i in range(49)])
    assert count == 49
    return peak


def test_empty_levels_cost_little_on_a_large_vertex_set():
    # Each level costs one mate entry per vertex; the shared adjacency two
    # slots per vertex once.  A DynamicGraph per level took 146 MB here.
    peak = peak_bytes_of_a_full_ladder(20_000)
    assert peak <= 30e6, peak


def test_empty_levels_cost_one_mate_entry_per_vertex():
    # With a carrier per level this took 94 MB.
    peak = peak_bytes_of_a_full_ladder(100_000)
    assert peak <= 65e6, peak


def test_one_weight_class_builds_one_level():
    # 10 edges of weight 100 reach class 48 only.  With a level for every
    # class up to the top this took 49.9 MB.
    peak, count = peak_bytes(100_000, [100] * 10)
    assert count == 1
    assert peak <= 15e6, peak


def peak_bytes_of_ten_edges(n, algorithm=None):
    """Peak traced memory of a master graph on n vertices, and of the
    algorithm built on it if one is given, over 10 disjoint edges."""
    tracemalloc.start()
    try:
        g = DynamicGraph(n)
        algo = algorithm(g) if algorithm else None
        for k in range(10):
            g.insert_edge(2 * k, 2 * k + 1, k + 1)
            if algo:
                algo.handle_insert(2 * k, 2 * k + 1, k + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if algo:
        assert algo.weight == 55
    return peak


def test_master_graph_memory_grows_with_the_edges():
    # An isolated vertex costs a pointer per row list.  With a list per
    # vertex this took 64.4 MB.
    peak = peak_bytes_of_ten_edges(10**6)
    assert peak <= 20e6, peak


def test_random_walk_memory_on_a_large_vertex_set():
    # The graph's two row lists and the matching's mates and weights.  With
    # a list per vertex in the graph this took 80.5 MB.
    peak = peak_bytes_of_ten_edges(
        10**6, lambda g: RandomWalkMwm(g, RandomConfig(epsilon=1, num_walks=5), seed=1)
    )
    assert peak <= 36e6, peak
