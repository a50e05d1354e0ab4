"""Approximate maximum-weight matching maintained by random augmenting walks.

Each update launches short random walks anchored at the touched vertices.
A walk grows a simple path (see paths.py), the exact DP picks the best
independent edge subset of that path, and the matching is rewritten only on
strict improvement.  With walk length ceil(2/eps + 3) a single successful
walk can realize any weight-augmenting path of up to 1/eps + 1 unmatched
edges, which is what drives the (1 + eps) quality target; the number of
walks per update trades time for how reliably such paths are found.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .errors import MatchingCorruptionError
from .graph import DynamicGraph, Weight
from .matching import FREE, MatchingAuditor, MatchingState
from .paths import EligibilityArray, WalkPath, extend_walk, improve_along_path

DEFAULT_BETA = 5


@dataclass(frozen=True)
class RandomConfig:
    """Tuning knobs for the walk-based matcher.

    epsilon drives the walk length ceil(2/epsilon + 3); num_walks is the
    per-campaign walk count unless theorem_mode replaces it with
    ceil(Delta^(2/epsilon+3) * ln n), the count under which the quality
    guarantee holds with high probability.  stop_early aborts a campaign
    after beta consecutive unsuccessful walks.
    """

    epsilon: float = 1.0
    num_walks: int = 1
    stop_early: bool = True
    beta: int = DEFAULT_BETA
    theorem_mode: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.num_walks < 1:
            raise ValueError(f"num_walks must be >= 1, got {self.num_walks}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")

    @property
    def walk_length(self) -> int:
        """Edge budget per walk, seed edges included."""
        return math.ceil(2.0 / self.epsilon + 3.0)

    def label(self) -> str:
        parts = [f"eps={self.epsilon:g}", f"walks={self.num_walks}"]
        if self.beta != DEFAULT_BETA:
            parts.append(f"beta={self.beta}")
        if self.theorem_mode:
            parts.append("theorem")
        if not self.stop_early:
            parts.append("no-stop-early")
        return ",".join(parts)


class RandomWalkMwm:
    """Fully-dynamic approximate MWM via anchored random walks.

    The caller owns graph mutation: handlers are invoked after the edge has
    been inserted into / deleted from the graph.
    """

    name = "random"

    def __init__(self, graph: DynamicGraph, config: RandomConfig, seed: int) -> None:
        self.graph = graph
        self.config = config
        self.state = MatchingState(graph.n)
        self.rng = random.Random(seed)
        self._elig = EligibilityArray(graph.n)
        self.walks_run = 0
        self.walks_improved = 0
        self._auditor: MatchingAuditor | None = None

    # -- update handlers ---------------------------------------------------

    def handle_insert(self, u: int, v: int, w: Weight) -> None:
        """React to edge (u, v, w) having been inserted.

        Every walk of the campaign re-seeds a path that forces the new edge
        in, built from the endpoints' current mates, and continues walking
        from the seed's open end.
        """
        self.run_walk_campaign(self._seed_insert, u, v, w)

    def handle_delete(self, u: int, v: int) -> None:
        """React to edge (u, v) having been deleted.

        A matched edge is unmatched first (its weight was stored at match
        time, so the graph is not consulted).  Two independent campaigns then
        try to repair around each endpoint; a matched anchor's walk starts by
        traversing its matched edge.
        """
        if self.state._mate[u] == v:
            self.state.unmatch(u)
        self.run_walk_campaign(self._seed_anchor, u)
        self.run_walk_campaign(self._seed_anchor, v)

    # -- campaign machinery -------------------------------------------------

    def run_walk_campaign(self, seed_builder, *args) -> int:
        """Run up to the configured number of walks; returns success count.

        Each walk starts from ``seed_builder(*args)``, a fresh seed path and
        the vertex to walk on from.  With stop_early, beta consecutive
        failures abort the campaign; the failure counter resets on every
        success and is local to this campaign.
        """
        budget = self._walk_budget()
        cfg = self.config
        graph = self.graph
        state = self.state
        rng = self.rng
        max_len = cfg.walk_length
        elig = self._elig
        successes = 0
        consecutive_failures = 0
        for _ in range(budget):
            path, start = seed_builder(*args)
            extend_walk(graph, state, path, start, max_len, elig, rng)
            improved = improve_along_path(state, path)
            elig.reset()
            self.walks_run += 1
            if improved:
                self.walks_improved += 1
                successes += 1
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                if cfg.stop_early and consecutive_failures >= cfg.beta:
                    break
        return successes

    def _walk_budget(self) -> int:
        cfg = self.config
        if not cfg.theorem_mode:
            return cfg.num_walks
        delta = self.graph.max_degree_seen()
        n = max(self.graph.n, 2)
        try:
            return max(1, math.ceil(delta ** (2.0 / cfg.epsilon + 3.0) * math.log(n)))
        except OverflowError:
            # Beyond any float: walk until stop_early ends the campaign.
            return sys.maxsize

    # -- seed paths ----------------------------------------------------------

    def _seed_insert(self, u: int, v: int, w: Weight) -> tuple[WalkPath, int]:
        """Seed path forcing the inserted edge, per the endpoints' mates.

        Both free: start at a random endpoint.  One matched: its matched
        edge leads in and the walk continues at the free endpoint.  Both
        matched: both matched edges flank the new edge and the walk
        continues at v's mate.  Earlier walks of the same campaign may have
        matched the new edge itself; it then seeds as a single matched edge.
        Every seed vertex but the open end is marked ineligible.
        """
        mate = self.state._mate
        pairs = self.state._pairs
        flags = self._elig.flags
        marked = self._elig._marked
        mu = mate[u]
        mv = mate[v]
        if mu == v or (mu == FREE and mv == FREE):
            a, b = (u, v) if self.rng.random() < 0.5 else (v, u)
            if mu == v:
                path = WalkPath([a, b], [pairs[(u, v) if u < v else (v, u)]], [True])
            else:
                path = WalkPath([a, b], [w], [False])
            flags[a] = 0
            marked.append(a)
            return path, b
        if mu != FREE and mv != FREE:
            path = WalkPath(
                [mu, u, v, mv],
                [
                    pairs[(u, mu) if u < mu else (mu, u)],
                    w,
                    pairs[(v, mv) if v < mv else (mv, v)],
                ],
                [True, False, True],
            )
            flags[mu] = flags[u] = flags[v] = 0
            marked += (mu, u, v)
            return path, mv
        # Exactly one endpoint matched; orient so a is the matched one.
        a, b = (u, v) if mu != FREE else (v, u)
        ma = mate[a]
        wa = pairs[(a, ma) if a < ma else (ma, a)]
        path = WalkPath([ma, a, b], [wa, w], [True, False])
        flags[ma] = flags[a] = 0
        marked += (ma, a)
        return path, b

    def _seed_anchor(self, anchor: int) -> tuple[WalkPath, int]:
        """Path holding only a deletion endpoint; extend_walk traverses the
        anchor's matched edge first when there is one."""
        return WalkPath([anchor]), anchor

    # -- reporting -----------------------------------------------------------

    @property
    def weight(self) -> Weight:
        return self.state.total_weight

    def matched_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.state.matched_pairs())

    def stats(self) -> dict[str, int]:
        return {
            "successes": self.walks_improved,
            "failures": self.walks_run - self.walks_improved,
        }

    def audit(self, deep: bool = False) -> None:
        """Check the matching at the vertices touched since the last audit
        (see MatchingAuditor); with deep, check all of it and the
        eligibility array too."""
        if self._auditor is None:
            self._auditor = MatchingAuditor(self.state, self.graph)
        else:
            self._auditor.check(deep)
        if deep and not self._elig.all_eligible():
            raise MatchingCorruptionError("eligibility array not reset between walks")
