"""Behavior of the random-walk matcher: seeds, campaigns, update handlers."""

import importlib.util
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.graph import DynamicGraph
from dynmatch.harness.replay import replay
from dynmatch.harness.streams import gen_insertion_stream, gen_undo_suffix
from dynmatch.matching import FREE, MatchingAuditor
from dynmatch.oracle import exact_mwm
from dynmatch import random_walk
from dynmatch.paths import extend_walk
from dynmatch.random_walk import BETA, RandomConfig, RandomWalkMwm

from conftest import build_graph
from support.matching import matching_weight_recompute
from support.paths import validate_walk_path
from support.random_walk import (
    ReferenceRandomWalkMwm,
    TheoremRandomWalkMwm,
    full_budget,
)

TRACER_PY = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def make_algo(graph, *, seed=7, **cfg):
    return RandomWalkMwm(graph, RandomConfig(**cfg), seed)


# -- config -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        RandomConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RandomConfig(epsilon=-1.0)
    for eps in (math.inf, math.nan, 1e-320):  # 2/1e-320 overflows
        with pytest.raises(ValueError):
            RandomConfig(epsilon=eps)
    with pytest.raises(ValueError):
        RandomConfig(num_walks=0)
    for walks in (2.5, True):
        with pytest.raises(ValueError, match="integer"):
            RandomConfig(num_walks=walks)


def test_walk_length_from_epsilon():
    assert RandomConfig(epsilon=1.0).walk_length == 5
    assert RandomConfig(epsilon=0.5).walk_length == 7
    assert RandomConfig(epsilon=2.0).walk_length == 4
    assert RandomConfig(epsilon=1e-3).walk_length == 2003


def test_config_label():
    assert RandomConfig(epsilon=0.5, num_walks=7).label() == "eps=0.5,walks=7"
    assert RandomConfig().label() == "eps=1,walks=1"


# -- insert handling ----------------------------------------------------


def test_insert_both_free_matches_new_edge():
    g = build_graph(2, [])
    algo = make_algo(g)
    g.insert_edge(0, 1, 10)
    algo.handle_insert(0, 1, 10)
    assert algo.weight == 10
    assert algo.matched_pairs() == [(0, 1)]
    algo.audit(deep=True)


def test_insert_heavier_edge_replaces_matched_neighbor():
    # x=0 matched to u=1 at weight 3; the new (1, 2, 9) should take over.
    g = build_graph(3, [(0, 1, 3)])
    algo = make_algo(g)
    algo.handle_insert(0, 1, 3)
    g.insert_edge(1, 2, 9)
    algo.handle_insert(1, 2, 9)
    assert algo.weight == 9
    assert algo.matched_pairs() == [(1, 2)]
    algo.audit(deep=True)


def test_insert_lighter_edge_changes_nothing_and_all_walks_fail():
    g = build_graph(3, [(0, 1, 9)])
    algo = make_algo(g, num_walks=4)
    algo.handle_insert(0, 1, 9)
    walks_before = algo.walks_run
    improved_before = algo.walks_improved
    g.insert_edge(1, 2, 1)
    algo.handle_insert(1, 2, 1)
    assert algo.matched_pairs() == [(0, 1)]
    assert algo.weight == 9
    # 4 walks, 4 failures: budget runs out before 5 consecutive failures.
    assert algo.walks_run - walks_before == 4
    assert algo.walks_improved == improved_before
    algo.audit(deep=True)


def test_insert_between_two_matched_pairs_rewires_when_heavy():
    g = build_graph(4, [(0, 1, 3), (2, 3, 3)])
    algo = make_algo(g)
    algo.handle_insert(0, 1, 3)
    algo.handle_insert(2, 3, 3)
    assert algo.weight == 6
    g.insert_edge(1, 2, 100)
    algo.handle_insert(1, 2, 100)
    # The seed path 0-1-2-3 carries the improvement; the first walk lands it.
    assert algo.matched_pairs() == [(1, 2)]
    assert algo.weight == 100
    algo.audit(deep=True)


# -- delete handling ----------------------------------------------------


def test_delete_only_matched_edge_empties_matching():
    g = build_graph(2, [(0, 1, 5)])
    algo = make_algo(g)
    algo.handle_insert(0, 1, 5)
    assert algo.weight == 5
    g.delete_edge(0, 1)
    algo.handle_delete(0, 1)
    assert algo.weight == 0
    assert algo.matched_pairs() == []
    algo.audit(deep=True)


def test_delete_matched_middle_edge_rematches_both_sides():
    # Path 0-1-2-3 with weights 5, 1, 5 and the middle edge matched.
    g = build_graph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5)])
    algo = make_algo(g, num_walks=2)
    algo.state.match_edge(1, 2, 1)
    g.delete_edge(1, 2)
    algo.handle_delete(1, 2)
    assert algo.matched_pairs() == [(0, 1), (2, 3)]
    assert algo.weight == 10
    algo.audit(deep=True)


def test_delete_unmatched_edge_between_matched_vertices_is_noop():
    g = build_graph(4, [(0, 1, 10), (2, 3, 10), (1, 2, 1)])
    algo = make_algo(g)
    algo.state.match_edge(0, 1, 10)
    algo.state.match_edge(2, 3, 10)
    g.delete_edge(1, 2)
    algo.handle_delete(1, 2)
    assert algo.matched_pairs() == [(0, 1), (2, 3)]
    assert algo.weight == 20
    algo.audit(deep=True)


# -- seed and walk closure ----------------------------------------------


class _CheckedSeeds(RandomWalkMwm):
    """Checks every seed it lays; counts insert seeds whose new edge an
    earlier walk of the campaign has already matched."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.matched_new_edge_seeds = 0

    def _seed_insert(self, path, u, v, w) -> None:
        super()._seed_insert(path, u, v, w)
        validate_walk_path(path, self.state)
        self.matched_new_edge_seeds += self.state.mate_of(u) == v

    def _seed_anchor(self, path, anchor) -> None:
        super()._seed_anchor(path, anchor)
        validate_walk_path(path, self.state, open_head=True)


def _checked_extend_walk(graph, state, path, max_len, rng):
    extend_walk(graph, state, path, max_len, rng)
    validate_walk_path(path, state)
    return path


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    density=st.sampled_from([0.3, 0.6, 0.9]),
    graph_seed=st.integers(min_value=0, max_value=2**32),
    new=st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=1, max_value=30),
    ),
    rematch=st.booleans(),
    doomed=st.integers(min_value=0),
    seed=st.integers(min_value=0, max_value=2**32),
    num_walks=st.integers(min_value=1, max_value=8),
)
def test_seeds_and_finished_walks_are_closed(
    n, density, graph_seed, new, rematch, doomed, seed, num_walks
):
    # extend_walk trusts its seed to be simple and closed and keeps it so;
    # every seed laid and every walk finished must pass validate_walk_path,
    # a lone anchor's pending matched edge excepted.  The graph and the
    # matching are random; each campaign runs its full walk budget.
    rng = random.Random(graph_seed)
    g = DynamicGraph(n)
    cfg = RandomConfig(num_walks=num_walks)
    algo = _CheckedSeeds(g, cfg, seed)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.insert_edge(u, v, rng.randint(1, 30))
    state = algo.state
    for u, v, w in rng.sample(sorted(g.edges()), g.edge_count()):
        free = state.mate_of(u) == FREE and state.mate_of(v) == FREE
        if free and rng.random() < 0.5:
            state.match_edge(u, v, w)
    u, v, w = new[0] % n, new[1] % n, new[2]
    with full_budget(), mock.patch.object(
        random_walk, "extend_walk", _checked_extend_walk
    ):
        if u != v and not g.has_edge(u, v):
            g.insert_edge(u, v, w)
            if rematch:
                # As if an earlier walk of this campaign had matched the
                # new edge: its seed is then the edge alone, matched.
                for x in (u, v):
                    if state.mate_of(x) != FREE:
                        state.unmatch(x)
                state.match_edge(u, v, w)
            algo.handle_insert(u, v, w)
            assert algo.matched_new_edge_seeds >= rematch
        live = sorted(g.edges())
        if live:
            u, v, _ = live[doomed % len(live)]
            g.delete_edge(u, v)
            algo.handle_delete(u, v)
    algo.audit(deep=True)


# -- campaign accounting -------------------------------------------------


def test_campaign_on_optimal_matching_stops_after_beta_failures():
    g = build_graph(2, [(0, 1, 10)])
    algo = make_algo(g, num_walks=20)
    algo.state.match_edge(0, 1, 10)
    successes = algo.run_walk_campaign(algo._seed_anchor, 0)
    assert successes == 0
    assert algo.walks_run == BETA  # min(num_walks, BETA)


def test_campaign_budget_smaller_than_beta_runs_out_first():
    g = build_graph(2, [(0, 1, 10)])
    algo = make_algo(g, num_walks=BETA - 2)
    algo.state.match_edge(0, 1, 10)
    assert algo.run_walk_campaign(algo._seed_anchor, 0) == 0
    assert algo.walks_run == BETA - 2


def test_campaign_without_stop_early_runs_full_budget():
    g = build_graph(2, [(0, 1, 10)])
    algo = make_algo(g, num_walks=20)
    algo.state.match_edge(0, 1, 10)
    with full_budget():
        assert algo.run_walk_campaign(algo._seed_anchor, 0) == 0
    assert algo.walks_run == 20


def test_failure_counter_restarts_after_a_success():
    # First walk of the insert campaign succeeds, every later walk fails,
    # so the campaign runs 1 + BETA walks in total.
    g = build_graph(3, [(0, 1, 3)])
    algo = make_algo(g, num_walks=20)
    algo.state.match_edge(0, 1, 3)
    g.insert_edge(1, 2, 9)
    algo.handle_insert(1, 2, 9)
    assert algo.weight == 9
    assert algo.walks_run == 1 + BETA
    assert algo.stats() == {"successes": 1, "failures": BETA}


class _RecordCampaigns:
    """Records each campaign's success count."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.campaign_successes = []

    def run_walk_campaign(self, seed_builder, *args) -> int:
        successes = super().run_walk_campaign(seed_builder, *args)
        self.campaign_successes.append(successes)
        return successes


class _Fused(_RecordCampaigns, RandomWalkMwm):
    pass


class _Reference(_RecordCampaigns, ReferenceRandomWalkMwm):
    pass


def _snapshot(algo):
    return (
        algo.matched_pairs(),
        algo.weight,
        algo.walks_run,
        algo.walks_improved,
        algo.campaign_successes,
        algo.rng.getstate(),
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    toggles=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=1, max_value=30),
        ),
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=2**32),
    epsilon=st.sampled_from([0.5, 1.0, 2.0]),
    # Up to 12 walks, so a campaign can still stop early after a success.
    num_walks=st.integers(min_value=1, max_value=12),
    divisor=st.sampled_from([1, 7]),
)
def test_fused_campaign_matches_per_walk_reference(
    n, toggles, seed, epsilon, num_walks, divisor
):
    # Each toggle inserts (u, v) when absent and deletes it when present.
    cfg = RandomConfig(epsilon=epsilon, num_walks=num_walks)
    g_fused, g_ref = DynamicGraph(n), DynamicGraph(n)
    fused = _Fused(g_fused, cfg, seed)
    ref = _Reference(g_ref, cfg, seed)
    for u, v, w in toggles:
        u %= n
        v %= n
        if u == v:
            continue
        if g_fused.has_edge(u, v):
            for g, algo in ((g_fused, fused), (g_ref, ref)):
                g.delete_edge(u, v)
                algo.handle_delete(u, v)
        else:
            w = w if divisor == 1 else w / divisor
            for g, algo in ((g_fused, fused), (g_ref, ref)):
                g.insert_edge(u, v, w)
                algo.handle_insert(u, v, w)
        assert _snapshot(fused) == _snapshot(ref)
    fused.audit()
    fused.audit(deep=True)


def test_tracer_sees_every_walk_and_one_dp_per_improvement():
    # The benchmark's per-layer split rests on these seams: one extend_walk
    # call per walk, and the DP and rewrite only on walks that improve.
    spec = importlib.util.spec_from_file_location("tracer", TRACER_PY)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    rng = random.Random(5)
    edges = set()
    while len(edges) < 600:
        u, v = rng.sample(range(150), 2)
        edges.add((min(u, v), max(u, v)))
    stream = gen_undo_suffix(
        gen_insertion_stream(150, [(u, v, None) for u, v in sorted(edges)], 5), 25, 5
    )
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        algo = RandomWalkMwm(DynamicGraph(stream.n), RandomConfig(num_walks=5), 11)
        replay(stream, algo)
    assert 0 < algo.walks_improved < algo.walks_run
    assert tracer.calls["paths.walk"] == algo.walks_run
    assert tracer.calls["paths.dp"] == algo.walks_improved
    assert tracer.calls["paths.rewrite"] == algo.walks_improved


def test_theorem_mode_budget_value():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    algo = TheoremRandomWalkMwm(g, RandomConfig(epsilon=1.0), 7)
    # max degree seen is 2, so the budget is ceil(2^5 * ln 4).
    assert algo.walk_budget() == math.ceil(32 * math.log(4))


def test_single_improving_edge_found_on_first_walk():
    g = build_graph(2, [])
    for seed in range(10):
        algo = make_algo(g, seed=seed)
        g_local = build_graph(2, [])
        algo = RandomWalkMwm(g_local, RandomConfig(num_walks=1), seed)
        g_local.insert_edge(0, 1, 4)
        algo.handle_insert(0, 1, 4)
        assert algo.stats()["successes"] == 1
        assert algo.weight == 4


# -- longer-horizon behavior ----------------------------------------------


def test_weight_never_drops_on_insert_and_drops_boundedly_on_delete():
    rng = random.Random(421)
    g = DynamicGraph(12)
    algo = make_algo(g, num_walks=3, seed=99)
    present = {}
    for _ in range(400):
        before = algo.weight
        if present and rng.random() < 0.4:
            u, v = rng.choice(sorted(present))
            was_matched = algo.state.mate_of(u) == v
            lost = algo.state.stored_weight(u) if was_matched else 0
            del present[(u, v)]
            g.delete_edge(u, v)
            algo.handle_delete(u, v)
            assert algo.weight >= before - lost
        else:
            u, v = rng.sample(range(12), 2)
            if (min(u, v), max(u, v)) in present:
                continue
            w = rng.randint(1, 50)
            present[(min(u, v), max(u, v))] = w
            g.insert_edge(u, v, w)
            algo.handle_insert(u, v, w)
            assert algo.weight >= before
    algo.audit(deep=True)
    assert algo.weight == matching_weight_recompute(algo.state, g)


def test_churn_stays_consistent_and_below_optimum():
    rng = random.Random(2024)
    g = DynamicGraph(10)
    algo = make_algo(g, num_walks=2, seed=5)
    present = set()
    for step in range(300):
        if present and (rng.random() < 0.45 or len(present) >= 18):
            u, v = rng.choice(sorted(present))
            present.remove((u, v))
            g.delete_edge(u, v)
            algo.handle_delete(u, v)
        else:
            u, v = rng.sample(range(10), 2)
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            present.add(key)
            w = rng.randint(1, 100)
            g.insert_edge(u, v, w)
            algo.handle_insert(u, v, w)
        if step % 40 == 0:
            algo.audit(deep=True)
    MatchingAuditor(algo.state, g)
    _, opt = exact_mwm(g)
    assert 0 <= algo.weight <= opt


def test_same_seed_reproduces_run_exactly():
    ops = []
    rng = random.Random(77)
    present = set()
    for _ in range(150):
        if present and rng.random() < 0.4:
            e = rng.choice(sorted(present))
            present.remove(e)
            ops.append(("d", e[0], e[1], 0))
        else:
            u, v = rng.sample(range(9), 2)
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            present.add(key)
            ops.append(("i", key[0], key[1], rng.randint(1, 60)))

    def run(seed):
        g = DynamicGraph(9)
        algo = make_algo(g, num_walks=3, seed=seed)
        for kind, u, v, w in ops:
            if kind == "i":
                g.insert_edge(u, v, w)
                algo.handle_insert(u, v, w)
            else:
                g.delete_edge(u, v)
                algo.handle_delete(u, v)
        return algo.matched_pairs(), algo.weight, algo.walks_run

    assert run(31) == run(31)
