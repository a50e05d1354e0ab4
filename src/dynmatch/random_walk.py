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
import sys
from dataclasses import dataclass
from itertools import compress

from .errors import ReplayError
from .graph import DynamicGraph, Weight
from .matching import FREE, MatchingAuditor, MatchingState
from .paths import WalkPath, extend_walk, improve_along_path

# Consecutive failed walks after which stop_early ends a campaign.
BETA = 5


@dataclass(frozen=True)
class RandomConfig:
    """Tuning knobs for the walk-based matcher.

    epsilon, with 2/epsilon finite, drives the walk length
    ceil(2/epsilon + 3); num_walks is the per-campaign walk count unless
    theorem_mode replaces it with ceil(Delta^(2/epsilon+3) * ln n), the
    count under which the quality guarantee holds with high probability.
    stop_early aborts a campaign after BETA consecutive unsuccessful walks.
    """

    epsilon: float = 1.0
    num_walks: int = 1
    stop_early: bool = True
    theorem_mode: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < math.inf and 2.0 / self.epsilon < math.inf):
            raise ValueError(
                "epsilon must be finite and > 0 with 2/epsilon finite, "
                f"got {self.epsilon}"
            )
        if self.num_walks < 1:
            raise ValueError(f"num_walks must be >= 1, got {self.num_walks}")

    @property
    def walk_length(self) -> int:
        """Edge budget per walk, seed edges included."""
        return math.ceil(2.0 / self.epsilon + 3.0)

    def walk_budget(self, max_degree: int, n: int) -> int:
        """Walks per campaign on n vertices with this max degree seen.

        A theorem-mode budget beyond any float saturates at sys.maxsize
        with stop_early; without it, one beyond sys.maxsize raises
        ReplayError, since such a campaign could never finish.
        """
        if not self.theorem_mode:
            return self.num_walks
        n = max(n, 2)
        power = 2.0 / self.epsilon + 3.0
        try:
            budget = max(1, math.ceil(max_degree**power * math.log(n)))
        except OverflowError:
            budget = math.inf
        if budget > sys.maxsize and not self.stop_early:
            raise ReplayError(
                f"theorem-mode walk budget ceil({max_degree}^{power:g} * ln {n}) = "
                f"{budget:.3g} walks exceeds sys.maxsize; a campaign without "
                "stop_early cannot finish"
            )
        # Beyond any float: walk until stop_early ends the campaign.
        return sys.maxsize if budget == math.inf else budget

    def label(self) -> str:
        parts = [f"eps={self.epsilon:g}", f"walks={self.num_walks}"]
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
        lists are cleared and ``seed_builder(path, *args)`` lays a fresh seed
        in it and returns the vertex to walk on from.  Once the walk stops,
        the best independent edge subset's weight is computed online, with
        ``mwm_on_path``'s recurrence in its order but without its selection
        flags.  Only when that value strictly beats the path's matched weight
        (a few percent of walks) does ``improve_along_path`` run the full DP
        with its backtrack and rewrite the matching.  With stop_early, BETA
        consecutive failures abort the campaign; the failure counter resets
        on every success and is local to this campaign.
        """
        budget = self._walk_budget()
        cfg = self.config
        graph = self.graph
        state = self.state
        rng = self.rng
        max_len = cfg.walk_length
        stop_after = BETA if cfg.stop_early else 0  # 0: never stop early
        path = WalkPath()
        nodes = path.nodes
        weights = path.weights
        matched = path.matched
        walks = 0
        successes = 0
        consecutive_failures = 0
        for _ in range(budget):
            nodes.clear()
            weights.clear()
            matched.clear()
            start = seed_builder(path, *args)
            extend_walk(graph, state, path, start, max_len, rng)
            walks += 1
            # W[k] of mwm_on_path: W[i-2] and W[i-1] while scanning.
            best_prev = best = 0
            for w in weights:
                cand = w + best_prev
                if cand > best:
                    best_prev, best = best, cand
                else:
                    best_prev = best
            # sum() rather than +=: it must equal matched_weight() bit for bit.
            if best > sum(compress(weights, matched)):
                improve_along_path(state, path)
                successes += 1
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                if consecutive_failures == stop_after:
                    break
        self.walks_run += walks
        self.walks_improved += successes
        return successes

    def _walk_budget(self) -> int:
        return self.config.walk_budget(self.graph.max_degree_seen(), self.graph.n)

    # -- seed paths ----------------------------------------------------------

    def _seed_insert(self, path: WalkPath, u: int, v: int, w: Weight) -> int:
        """Lay the seed forcing the inserted edge, per the endpoints' mates,
        in the empty ``path``; returns the vertex the walk continues from.

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
            return b
        if mu != FREE and mv != FREE:
            path.nodes += (mu, u, v, mv)
            path.weights += (mw[u], w, mw[v])
            path.matched += (True, False, True)
            return mv
        # Exactly one endpoint matched; orient so a is the matched one.
        a, b = (u, v) if mu != FREE else (v, u)
        path.nodes += (mate[a], a, b)
        path.weights += (mw[a], w)
        path.matched += (True, False)
        return b

    def _seed_anchor(self, path: WalkPath, anchor: int) -> int:
        """Lay a deletion endpoint alone in the empty ``path``; extend_walk
        traverses the anchor's matched edge first when there is one."""
        path.nodes.append(anchor)
        return anchor

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
