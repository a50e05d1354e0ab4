"""The per-walk campaign loop that ``RandomWalkMwm.run_walk_campaign`` fuses.

Each walk gets a fresh ``WalkPath``, the full path DP with its backtrack
runs on every walk, and the walk rewrites the matching when the DP's weight
strictly beats the path's matched weight.  The shipped campaign must match
it in matchings, walk counters and RNG draws.
"""

from __future__ import annotations

from itertools import compress

from dynmatch.paths import WalkPath, apply_path_matching, extend_walk, mwm_on_path
from dynmatch.random_walk import BETA, RandomWalkMwm


def reference_walk_campaign(algo: RandomWalkMwm, seed_builder, *args) -> int:
    """Run ``algo``'s campaign one walk at a time; returns success count."""
    budget = algo._walk_budget()
    cfg = algo.config
    successes = 0
    consecutive_failures = 0
    for _ in range(budget):
        path = WalkPath()
        seed_builder(path, *args)
        extend_walk(algo.graph, algo.state, path, cfg.walk_length, algo.rng)
        selected, dp_weight = mwm_on_path(path)
        algo.walks_run += 1
        if dp_weight > sum(compress(path.weights, path.matched)):
            apply_path_matching(algo.state, path, selected)
            algo.walks_improved += 1
            successes += 1
            consecutive_failures = 0
        else:
            consecutive_failures += 1
            if cfg.stop_early and consecutive_failures >= BETA:
                break
    return successes


class ReferenceRandomWalkMwm(RandomWalkMwm):
    """``RandomWalkMwm`` with its campaigns run by the per-walk reference."""

    def run_walk_campaign(self, seed_builder, *args) -> int:
        return reference_walk_campaign(self, seed_builder, *args)
