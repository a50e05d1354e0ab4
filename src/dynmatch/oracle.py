"""Exact desk-scale maximum-weight matching, used to score the algorithms.

``exact_mwm`` is exhaustive search over connected components, guarded by
explicit size limits.  The component is the honest enumeration unit: a graph
of any total size is scored exactly as long as each component stays small,
and anything bigger raises OracleLimitError instead of silently degrading.
One route is shipped: a branch-and-bound over weight-sorted edges.
"""

from __future__ import annotations

from .errors import OracleLimitError
from .graph import DynamicGraph, Weight, edge_key


# Per-component size caps for the exhaustive searches.
MAX_COMPONENT_VERTICES = 20
MAX_COMPONENT_EDGES = 24

Edge = tuple[int, int, Weight]
Pair = tuple[int, int]


def _components(graph: DynamicGraph) -> list[tuple[list[int], list[Edge]]]:
    """Connected components as (sorted vertices, sorted edges); isolated
    vertices are omitted (they never matter for matchings).  Each edge is
    read from its smaller endpoint's adjacency, so the whole pass is linear
    in n + m."""
    seen = bytearray(graph.n)
    out: list[tuple[list[int], list[Edge]]] = []
    for s in range(graph.n):
        if seen[s] or graph.degree(s) == 0:
            continue
        seen[s] = 1
        stack = [s]
        verts = [s]
        while stack:
            x = stack.pop()
            for y in graph.neighbors(x):
                if not seen[y]:
                    seen[y] = 1
                    verts.append(y)
                    stack.append(y)
        verts.sort()
        edges = sorted(
            (x, y, graph.weight(x, y))
            for x in verts
            for y in graph.neighbors(x)
            if x < y
        )
        out.append((verts, edges))
    return out


def _check_limits(verts: list[int], edges: list[Edge], what: str) -> None:
    if len(verts) > MAX_COMPONENT_VERTICES or len(edges) > MAX_COMPONENT_EDGES:
        raise OracleLimitError(
            f"{what}: component with {len(verts)} vertices / {len(edges)} edges "
            f"exceeds oracle limits ({MAX_COMPONENT_VERTICES} vertices, "
            f"{MAX_COMPONENT_EDGES} edges)"
        )


def _bb_max_weight(edges: list[Edge]) -> tuple[list[Pair], Weight]:
    """Branch and bound over edges sorted by descending weight.

    The bound is the remaining-weight suffix sum; ties keep the first
    solution found, which with the fixed (-w, u, v) exploration order makes
    the result deterministic.
    """
    order = sorted(edges, key=lambda e: (-e[2], e[0], e[1]))
    m = len(order)
    suffix: list[Weight] = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i][2]
    used: set[int] = set()
    chosen: list[int] = []
    best_w: Weight = 0
    best_sel: list[int] = []

    def rec(i: int, cur: Weight) -> None:
        nonlocal best_w, best_sel
        if cur > best_w:
            best_w = cur
            best_sel = chosen.copy()
        if i == m or cur + suffix[i] <= best_w:
            return
        u, v, w = order[i]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            chosen.append(i)
            rec(i + 1, cur + w)
            chosen.pop()
            used.discard(u)
            used.discard(v)
        rec(i + 1, cur)

    rec(0, 0)
    pairs = sorted(edge_key(order[i][0], order[i][1]) for i in best_sel)
    return pairs, best_w


def exact_mwm(graph: DynamicGraph) -> tuple[list[Pair], Weight]:
    """Exact maximum-weight matching, solved per connected component.

    Returns (sorted pairs, total weight).  Raises OracleLimitError when any
    component exceeds the limits.
    """
    pairs: list[Pair] = []
    total: Weight = 0
    for verts, edges in _components(graph):
        _check_limits(verts, edges, "exact_mwm")
        p, w = _bb_max_weight(edges)
        pairs.extend(p)
        total += w
    return sorted(pairs), total
