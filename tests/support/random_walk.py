"""Test-side variants of ``RandomWalkMwm``'s campaign.

``reference_walk_campaign`` is the per-walk loop that
``RandomWalkMwm.run_walk_campaign`` fuses: each walk gets a fresh
``WalkPath``, the full path DP with its backtrack runs on every walk, and the
walk rewrites the matching when the DP's weight strictly beats the path's
matched weight.  The shipped campaign must match it in matchings, walk
counters and RNG draws.

``TheoremRandomWalkMwm`` runs the shipped campaign with the walk count of
the paper's analysis, for the acceptance test that checks it.

``full_budget()`` lifts the early stop, so that every campaign started
inside it runs all its walks.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import compress
from unittest import mock

from dynmatch import random_walk
from dynmatch.paths import WalkPath, apply_path_matching, extend_walk, mwm_on_path
from dynmatch.random_walk import RandomWalkMwm


def full_budget():
    """Context manager under which no campaign ends before its last walk:
    the BETA consecutive failures that end one never come."""
    return mock.patch.object(random_walk, "BETA", math.inf)


def reference_walk_campaign(algo: RandomWalkMwm, seed_builder, *args) -> int:
    """Run ``algo``'s campaign one walk at a time; returns success count."""
    cfg = algo.config
    successes = 0
    consecutive_failures = 0
    for _ in range(cfg.num_walks):
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
            if consecutive_failures >= random_walk.BETA:
                break
    return successes


class ReferenceRandomWalkMwm(RandomWalkMwm):
    """``RandomWalkMwm`` with its campaigns run by the per-walk reference."""

    def run_walk_campaign(self, seed_builder, *args) -> int:
        return reference_walk_campaign(self, seed_builder, *args)


class TheoremRandomWalkMwm(RandomWalkMwm):
    """``RandomWalkMwm`` whose campaigns run ceil(Delta^(2/eps+3) * ln n)
    walks, Delta the largest degree seen so far: the count under which the
    quality guarantee holds with high probability.  The configured
    num_walks is replaced before each campaign."""

    def __init__(self, graph, config, seed: int) -> None:
        super().__init__(graph, config, seed)
        self.max_degree_seen = max(map(graph.degree, range(graph.n)), default=0)

    def handle_insert(self, u: int, v: int, w) -> None:
        degree = max(self.graph.degree(u), self.graph.degree(v))
        self.max_degree_seen = max(self.max_degree_seen, degree)
        super().handle_insert(u, v, w)

    def walk_budget(self) -> int:
        power = 2.0 / self.config.epsilon + 3.0
        n = max(self.graph.n, 2)
        return max(1, math.ceil(self.max_degree_seen**power * math.log(n)))

    def run_walk_campaign(self, seed_builder, *args) -> int:
        self.config = dataclasses.replace(self.config, num_walks=self.walk_budget())
        return super().run_walk_campaign(seed_builder, *args)
