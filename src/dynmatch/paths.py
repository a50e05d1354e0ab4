"""Random walk paths and the exact path-matching DP.

A walk path is a simple path grown one edge at a time by a randomized
walker.  Two invariants make a finished path safe to rewrite:

* simplicity - no vertex appears twice, enforced by the walk's own vertex
  set (a vertex already on the path is never drawn or traversed to);
* closure - every matched edge incident to a path vertex lies on the path,
  enforced by traversing the matched edge immediately whenever the walk
  arrives at a matched vertex.

Closure is what lets ``apply_path_matching`` treat the path as a closed
world: unmatching the path's matched edges and matching any independent
subset of path edges cannot double-match a vertex elsewhere.

The random-walk campaign (random_walk.py) computes the DP's value online,
with ``mwm_on_path``'s recurrence and order, and calls
``improve_along_path`` -- the DP with its backtrack, then the rewrite --
only for walks whose value strictly beats the matched weight.
"""

from __future__ import annotations

import random
from itertools import compress

from .graph import DynamicGraph, Weight
from .matching import FREE, MatchingState

# Attempts per step when sampling a neighbor off the path.  Sampling is uniform
# over all neighbors with rejection, so each step stays O(1); matched-edge
# traversal never consumes attempts.
SAMPLE_ATTEMPTS = 5


class WalkPath:
    """Path under construction, as parallel lists: edge i joins ``nodes[i]``
    and ``nodes[i+1]``, weighs ``weights[i]`` and is on the matching iff
    ``matched[i]``."""

    __slots__ = ("nodes", "weights", "matched")

    def __init__(
        self,
        nodes: list[int] | None = None,
        weights: list[Weight] | None = None,
        matched: list[bool] | None = None,
    ) -> None:
        self.nodes: list[int] = [] if nodes is None else nodes
        self.weights: list[Weight] = [] if weights is None else weights
        self.matched: list[bool] = [] if matched is None else matched

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    def matched_weight(self) -> Weight:
        """Total weight of path edges currently flagged matched."""
        return sum(compress(self.weights, self.matched))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalkPath({self.nodes})"


def extend_walk(
    graph: DynamicGraph,
    state: MatchingState,
    path: WalkPath,
    current: int,
    max_len: int,
    rng: random.Random,
) -> WalkPath:
    """Grow ``path`` from ``current`` until it stalls or reaches ``max_len`` edges.

    The automaton: on arriving at a matched vertex whose matched edge is not
    yet on the path, that edge is traversed next (no sampling, no attempt
    cost); otherwise a neighbor off the path is sampled with at most
    SAMPLE_ATTEMPTS tries and the walk departs through it.  The walk stops
    when sampling fails, when a needed mate is already on the path, or when
    the length cap is reached.

    A pending matched edge is appended even when the cap has just been hit
    (overshooting by one edge): the closure invariant must hold at stop or a
    later rewrite could double-match the off-path mate.

    The loop reads the graph and matching internals directly and draws each
    neighbor index with CPython's ``randrange(k)`` rejection loop over
    ``getrandbits``, so it consumes the RNG exactly as ``rng.randrange``
    would.
    """
    nodes = path.nodes
    if not nodes:
        nodes.append(current)
    elif nodes[-1] != current:
        raise ValueError(f"current vertex {current} is not the path head {nodes[-1]}")
    weights = path.weights
    matched = path.matched
    mate = state._mate
    mw = state._mw
    adjs = graph._adj
    gw = graph._weight
    on_path = set(nodes)
    getrandbits = rng.getrandbits
    # The path's other end of the last edge; FREE (never a mate) if none.
    prev = nodes[-2] if len(nodes) > 1 else FREE
    while True:
        m = mate[current]
        if m != FREE and m != prev:
            if m in on_path:
                break
            nxt = m
            weights.append(mw[current])
            matched.append(True)
        else:
            if len(weights) >= max_len:
                break
            adj = adjs[current]
            k = len(adj)
            if not k:
                break
            bits = k.bit_length()
            for _ in range(SAMPLE_ATTEMPTS):
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                nxt = adj[r]
                if nxt not in on_path:
                    break
            else:
                break
            weights.append(gw[(current, nxt) if current < nxt else (nxt, current)])
            matched.append(False)
        nodes.append(nxt)
        on_path.add(nxt)
        prev = current
        current = nxt
    return path


def mwm_on_path(path: WalkPath) -> tuple[list[int], Weight]:
    """Maximum-weight independent edge subset of a path, by DP.

    Returns (sorted edge indices, weight).  W[i] is the best weight using the
    first i edges; edge i enters iff w_i + W[i-2] strictly beats W[i-1], so
    ties keep the earlier-prefix solution.  Selection is recovered by
    backtracking over the take flags.
    """
    weights = path.weights
    k = len(weights)
    if k == 0:
        return [], 0
    best_prev: Weight = 0  # W[i-2] while scanning
    best: Weight = weights[0]  # W[i-1]
    take = [False] * (k + 1)
    take[1] = True
    for i in range(2, k + 1):
        cand = weights[i - 1] + best_prev
        if cand > best:
            take[i] = True
            best_prev, best = best, cand
        else:
            best_prev = best
    selected: list[int] = []
    i = k
    while i >= 1:
        if take[i]:
            selected.append(i - 1)
            i -= 2
        else:
            i -= 1
    selected.reverse()
    return selected, best


def apply_path_matching(
    state: MatchingState, path: WalkPath, selected: list[int]
) -> None:
    """Replace the path's matched edges with the selected edge subset.

    ``selected`` holds edge indices into the path and must be independent
    within the path (no two consecutive indices).  Path closure guarantees
    the rewrite cannot collide with matched edges off the path.
    """
    nodes = path.nodes
    weights = path.weights
    prev = -2
    for i in selected:
        if not 0 <= i < len(weights):
            raise ValueError(f"selected index {i} out of range")
        if i <= prev:
            raise ValueError("selected indices must be strictly increasing")
        if i == prev + 1:
            raise ValueError(
                f"selected edges {prev} and {i} share a vertex on the path"
            )
        prev = i
    mate = state._mate
    for i in compress(range(len(weights)), path.matched):
        if mate[nodes[i]] == nodes[i + 1]:
            state.unmatch(nodes[i])
    for i in selected:
        state.match_edge(nodes[i], nodes[i + 1], weights[i])


def improve_along_path(state: MatchingState, path: WalkPath) -> bool:
    """Rewrite the matching along the path when the DP strictly improves it.

    Returns True iff a rewrite happened; ties leave the matching untouched.
    """
    selected, dp_weight = mwm_on_path(path)
    if dp_weight > path.matched_weight():
        apply_path_matching(state, path, selected)
        return True
    return False
