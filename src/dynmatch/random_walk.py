"""Approximate maximum-weight matching maintained by random augmenting walks.

Each update launches short random walks anchored at the touched vertices.
A walk grows a simple path (see paths.py) and the campaign scores it online
with the exact path DP's value, the best independent edge subset's weight.
Only when that value strictly beats the path's matched weight does the full
DP run again with its backtrack and rewrite the matching; most walks end at
the score.  With walk length ceil(2/eps + 3) a single successful walk can
realize any weight-augmenting path of up to 1/eps + 1 unmatched edges, which
is what drives the (1 + eps) quality target; the number of walks per update
trades time for how reliably such paths are found.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress

from .graph import DynamicGraph, Weight
from .matching import FREE, MatchingAuditor, MatchingState
from . import paths
from .paths import WalkPath, extend_walk

# Consecutive failed walks after which a campaign ends.
BETA = 5


@dataclass(frozen=True)
class RandomConfig:
    """Tuning knobs for the walk-based matcher.

    epsilon, with 2/epsilon finite, drives the walk length
    ceil(2/epsilon + 3); num_walks is the per-campaign walk budget.  A
    campaign ends early after BETA consecutive unsuccessful walks, so with
    num_walks <= BETA it runs its full budget.
    """

    epsilon: float = 1.0
    num_walks: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < math.inf and 2.0 / self.epsilon < math.inf):
            raise ValueError(
                "epsilon must be finite and > 0 with 2/epsilon finite, "
                f"got {self.epsilon}"
            )
        walks = self.num_walks
        if isinstance(walks, bool) or not isinstance(walks, int) or walks < 1:
            raise ValueError(
                f"num_walks must be an integer >= 1, got {walks!r}"
            )

    @property
    def walk_length(self) -> int:
        """Edge budget per walk, seed edges included."""
        return math.ceil(2.0 / self.epsilon + 3.0)

    def label(self) -> str:
        eps = f"{self.epsilon:g}"  # exact where :g would merge two epsilons
        eps = eps if float(eps) == self.epsilon else repr(self.epsilon)
        return f"eps={eps},walks={self.num_walks}"


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

        One ``WalkPath`` serves the whole campaign.  Before each walk its
        lists are cleared, ``seed_builder(path, *args)`` lays a fresh closed
        seed in it and ``extend_walk`` grows it from its head.  Then the best
        independent edge subset's weight is computed online, with
        ``mwm_on_path``'s recurrence in its order but without its selection
        flags.  Only when that value strictly beats the path's matched weight
        (a few percent of walks) does ``mwm_on_path`` run with its backtrack
        and ``apply_path_matching`` rewrite the matching.  BETA consecutive
        failures end the campaign; the failure counter resets on every
        success and is local to this campaign.
        """
        cfg = self.config
        graph = self.graph
        state = self.state
        rng = self.rng
        max_len = cfg.walk_length
        stop_after = BETA  # read per campaign, so a test can patch BETA
        path = WalkPath()
        nodes = path.nodes
        weights = path.weights
        matched = path.matched
        walks = 0
        successes = 0
        consecutive_failures = 0
        for _ in range(cfg.num_walks):
            nodes.clear()
            weights.clear()
            matched.clear()
            seed_builder(path, *args)
            extend_walk(graph, state, path, max_len, rng)
            walks += 1
            # W[k] of mwm_on_path: W[i-2] and W[i-1] while scanning.
            best_prev = best = 0
            for w in weights:
                cand = w + best_prev
                if cand > best:
                    best_prev, best = best, cand
                else:
                    best_prev = best
            if best > sum(compress(weights, matched)):
                # Through the module, where bench/tracer.py times them.
                paths.apply_path_matching(state, path, paths.mwm_on_path(path)[0])
                successes += 1
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                if consecutive_failures == stop_after:
                    break
        self.walks_run += walks
        self.walks_improved += successes
        return successes

    # -- seed paths ----------------------------------------------------------

    def _seed_insert(self, path: WalkPath, u: int, v: int, w: Weight) -> None:
        """Lay the closed seed forcing the inserted edge, per the endpoints'
        mates, in the empty ``path``; the walk continues from its head.

        Both free: start at a random endpoint.  One matched: its matched
        edge leads in and the walk continues at the free endpoint.  Both
        matched: both matched edges flank the new edge and the walk
        continues at v's mate.  Earlier walks of the same campaign may have
        matched the new edge itself; it then seeds as a single matched edge.
        """
        mate = self.state._mate
        mw = self.state._mw
        mu = mate[u]
        mv = mate[v]
        if mu == v or (mu == FREE and mv == FREE):
            a, b = (u, v) if self.rng.random() < 0.5 else (v, u)
            path.nodes += (a, b)
            path.weights.append(mw[u] if mu == v else w)
            path.matched.append(mu == v)
        elif mu != FREE and mv != FREE:
            path.nodes += (mu, u, v, mv)
            path.weights += (mw[u], w, mw[v])
            path.matched += (True, False, True)
        else:
            # Exactly one endpoint matched; orient so a is the matched one.
            a, b = (u, v) if mu != FREE else (v, u)
            path.nodes += (mate[a], a, b)
            path.weights += (mw[a], w)
            path.matched += (True, False)

    def _seed_anchor(self, path: WalkPath, anchor: int) -> None:
        """Lay a deletion endpoint alone in the empty ``path``; extend_walk
        traverses the anchor's matched edge first when there is one."""
        path.nodes.append(anchor)

    # -- reporting -----------------------------------------------------------

    @property
    def weight(self) -> Weight:
        return self.state.total_weight

    def matched_pairs(self) -> list[tuple[int, int]]:
        return self.state.matched_pairs()

    def stats(self) -> dict[str, int]:
        return {
            "successes": self.walks_improved,
            "failures": self.walks_run - self.walks_improved,
        }

    def audit(self, deep: bool = False) -> None:
        """Check the matching at the vertices touched since the last audit
        (see MatchingAuditor); with deep, check all of it."""
        if self._auditor is None:
            self._auditor = MatchingAuditor(self.state, self.graph)
        else:
            self._auditor.check(deep)
