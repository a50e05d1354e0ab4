"""Golden digests of the matchings each algorithm maintains.

Each digest hashes ``weight`` and ``matched_pairs()`` every 1000 ops along
the first 20,000 ops of the acceptance churn stream (test_02's stream, same
generator and seed).  Reading only every 1000 ops also makes LevelMwm bring
its merged view up to date across long batches of level changes.  A change
that alters any maintained matching for these seeds changes a digest; one
that only reorganizes the code must leave all of them as they are.

The standalone DynamicMcm digest replays the same prefix with every edge
inserted at weight 1 and hashes the matched pairs alone.

The walk-campaign digests also hash the walk counters and the RNG state, so
a campaign that draws, walks or scores differently changes them even where
the matching happens to come out the same.
"""

import hashlib

import pytest

from dynmatch.graph import DynamicGraph
from dynmatch.harness.streams import INSERT
from dynmatch.levels import LevelConfig, LevelMwm
from dynmatch.random_walk import RandomConfig, RandomWalkMwm

from support.mcm import ExactBipartiteMcm
from test_acceptance import churn_stream

GOLDEN = {
    "random": (
        lambda g: RandomWalkMwm(g, RandomConfig(), 2026),
        21437,
        "7460e9aa308bc46c84d278129b163330fd82a8e64d7bff7ef4fa8c898562a3b4",
    ),
    # The undo-rw benchmark config: five walks per campaign.
    "random-5walks": (
        lambda g: RandomWalkMwm(g, RandomConfig(epsilon=1.0, num_walks=5), 2026),
        21758,
        "583bf7d742a3388cfbd1c3e144934f9f7de5d6099daea055b0254cf7b06c27e5",
    ),
    # Longer walks (7 edges); 3 walks stay below BETA, so every campaign
    # runs its full budget.
    "random-0.5-3walks": (
        lambda g: RandomWalkMwm(g, RandomConfig(epsilon=0.5, num_walks=3), 2026),
        21645,
        "76cdeb057506fe737cdcc1a8813946547cae2b89739780d3e612014082874488",
    ),
    # The three level digests were re-recorded when the levels began to share
    # one class-sorted adjacency, which changed the neighbor order a level
    # search reads.  The two walk digests were re-recorded again when a
    # level came to exist only for a class that has had an edge: a level
    # made by a later first edge of its class starts with the mates of the
    # level above instead of running its own walks from the top class's
    # first edge, so level creation order changed them.  The BFS is
    # deterministic, so there the copy equals what the level would have
    # found itself, and its digest stands.
    "level-walk": (
        lambda g: LevelMwm(g, LevelConfig(), 2026),
        20614,
        "c67128d56c3bc7f5974009b9b49f52f97a508733f50d56b535fd3e44f68fff51",
    ),
    # The churn-level-walk benchmark config: 34 levels, walks 19 steps deep.
    "level-walk-0.1": (
        lambda g: LevelMwm(g, LevelConfig(epsilon=0.1), 2026),
        21268,
        "d898ca09099fc4ffb682131f7f28dba3bac5cc2af370ed2a02b2422d8ba625c3",
    ),
    "level-bfs-0.5": (
        lambda g: LevelMwm(g, LevelConfig(epsilon=0.5, mcm_kind="bfs"), 2026),
        21033,
        "18991d018b2032fb1005c502cc5a653c5ce0eb4987f0dfb1d0f72085f705553d",
    ),
}


@pytest.fixture(scope="module")
def churn_prefix():
    return churn_stream(1000, 20_000, seed=7, target_live=800)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matching_digest_unchanged(name, churn_prefix):
    make, final_weight, digest = GOLDEN[name]
    g = DynamicGraph(churn_prefix.n)
    algo = make(g)
    h = hashlib.sha256()
    for k, op in enumerate(churn_prefix.ops, 1):
        if op.kind == INSERT:
            g.insert_edge(op.u, op.v, op.w)
            algo.handle_insert(op.u, op.v, op.w)
        else:
            g.delete_edge(op.u, op.v)
            algo.handle_delete(op.u, op.v)
        if k % 1000 == 0:
            h.update(f"{k} {algo.weight} {algo.matched_pairs()}\n".encode())
    assert algo.weight == final_weight
    assert h.hexdigest() == digest


# The undo-rw benchmark config with integer weights, and with every weight
# divided by 7, so the float sums of the path DP and its strict ``>`` tie rule
# are pinned too.  Recorded at commit 9d28db9.
CAMPAIGN_GOLDEN = {
    "integer": (
        lambda w: w,
        21758,
        "843285ebb61eb7151fe9cc0d841bdcc06ea43ff083c82357ae46cb796d4ddcb5",
    ),
    "sevenths": (
        lambda w: w / 7,
        3126.1428571428596,
        "258ef3fcdfd8ce07c2bf90c3d1a2af14484354b6b89a7e90e41a2cd466cb2152",
    ),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGN_GOLDEN))
def test_walk_campaign_digest_unchanged(name, churn_prefix):
    scale, final_weight, digest = CAMPAIGN_GOLDEN[name]
    g = DynamicGraph(churn_prefix.n)
    algo = RandomWalkMwm(g, RandomConfig(epsilon=1.0, num_walks=5), 2026)
    h = hashlib.sha256()
    for k, op in enumerate(churn_prefix.ops, 1):
        if op.kind == INSERT:
            w = scale(op.w)
            g.insert_edge(op.u, op.v, w)
            algo.handle_insert(op.u, op.v, w)
        else:
            g.delete_edge(op.u, op.v)
            algo.handle_delete(op.u, op.v)
        if k % 1000 == 0:
            h.update(
                f"{k} {algo.weight} {algo.matched_pairs()} {algo.walks_run} "
                f"{algo.walks_improved} {algo.rng.getstate()}\n".encode()
            )
    assert algo.weight == final_weight
    assert h.hexdigest() == digest


def test_standalone_safe_mode_mcm_digest_unchanged(churn_prefix):
    # Pins the both-matched insert handler (support.mcm's
    # alternating_free_node) bit for bit; test_11 checks only cardinality.
    # Recorded at commit ffcdc11.
    g = DynamicGraph(churn_prefix.n)
    mcm = ExactBipartiteMcm(g, 2026)
    h = hashlib.sha256()
    for k, op in enumerate(churn_prefix.ops, 1):
        if op.kind == INSERT:
            g.insert_edge(op.u, op.v, 1)
            mcm.handle_insert(op.u, op.v)
        else:
            g.delete_edge(op.u, op.v)
            mcm.handle_delete(op.u, op.v)
        if k % 1000 == 0:
            h.update(f"{k} {sorted(mcm.state.matched_pairs())}\n".encode())
    assert mcm.state.matched_count() == 360
    assert h.hexdigest() == (
        "ac56f3e5b45463222611ed6a0130091ae21098013ecab700dad672d34a6e1046"
    )


# The level workers' counters and RNG streams on the same prefix: stats()
# and every level's RNG state every 1000 ops.  A fan-out that misses a level
# the edge belongs to, or an attempt that draws differently, changes these
# even where the merged matching comes out the same.  Recorded at commit
# 893a2cf, and both re-recorded when a level came to exist only for a class
# that has had an edge: level creation order changed them, since a level
# made later starts with a copy of the mates of the level above and counts
# no attempts for the updates before its class's first edge.
LEVEL_STREAM_GOLDEN = {
    "level-walk-0.1": (
        GOLDEN["level-walk-0.1"][0],
        "495cb47859881905d24f3abcffb840aaf28f76ed2472c79ef256e74e38601951",
    ),
    "level-bfs-0.5": (
        GOLDEN["level-bfs-0.5"][0],
        "6bc1337fb77f36026dc104fd201415ba1a7e58c0703a0ed6333e0c8cdca9cdac",
    ),
}


@pytest.mark.parametrize("name", sorted(LEVEL_STREAM_GOLDEN))
def test_level_counters_and_rng_streams_unchanged(name, churn_prefix):
    make, digest = LEVEL_STREAM_GOLDEN[name]
    g = DynamicGraph(churn_prefix.n)
    algo = make(g)
    h = hashlib.sha256()
    for k, op in enumerate(churn_prefix.ops, 1):
        if op.kind == INSERT:
            g.insert_edge(op.u, op.v, op.w)
            algo.handle_insert(op.u, op.v, op.w)
        else:
            g.delete_edge(op.u, op.v)
            algo.handle_delete(op.u, op.v)
        if k % 1000 == 0:
            h.update(f"{k} {algo.stats()}\n".encode())
            for level in algo.levels:
                h.update(f"{level.index} {level.worker.rng.getstate()}\n".encode())
    assert h.hexdigest() == digest
