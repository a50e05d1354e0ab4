"""Step-by-step builders and the invariant check for walk paths.

The shipped walker writes ``WalkPath``'s lists directly; these helpers do
the same one step at a time, with the checks a hand-built test path needs.
"""

from __future__ import annotations

from dynmatch.graph import Weight
from dynmatch.matching import FREE, MatchingState
from dynmatch.paths import WalkPath


def start_path(path: WalkPath, u: int) -> None:
    """Put the start vertex u on an empty path."""
    if path.nodes:
        raise ValueError("path already started")
    path.nodes.append(u)


def append_step(path: WalkPath, to: int, w: Weight, matched: bool) -> None:
    """Extend a started path by the edge to ``to``."""
    if not path.nodes:
        raise ValueError("path has no start vertex")
    path.nodes.append(to)
    path.weights.append(w)
    path.matched.append(matched)


def validate_walk_path(path: WalkPath, state: MatchingState) -> None:
    """Assert simplicity, list coherence, and closure."""
    nodes = path.nodes
    if len(set(nodes)) != len(nodes):
        raise AssertionError(f"path repeats a vertex: {nodes}")
    k = len(path.weights)
    if len(path.matched) != k or len(nodes) != (k + 1 if nodes else 0):
        raise AssertionError(
            f"path lists out of step: {len(nodes)} nodes, {k} weights, "
            f"{len(path.matched)} matched flags"
        )
    mate = state._mate
    for i, flag in enumerate(path.matched):
        if flag != (mate[nodes[i]] == nodes[i + 1]):
            raise AssertionError(
                f"edge {i} ({nodes[i]}, {nodes[i + 1]}) matched flag stale: {flag}"
            )
    for x in nodes:
        m = mate[x]
        if m != FREE and not _pair_on_path(path, x, m):
            raise AssertionError(
                f"closure violated: matched edge ({x}, {m}) off path {nodes}"
            )


def _pair_on_path(path: WalkPath, u: int, v: int) -> bool:
    pairs = zip(path.nodes, path.nodes[1:])
    return any((a == u and b == v) or (a == v and b == u) for a, b in pairs)
