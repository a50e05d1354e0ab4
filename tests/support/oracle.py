"""Exhaustive references that cross-check the shipped oracle and algorithms.

A plain bitmask enumeration of maximum-weight matchings (a second route to
``dynmatch.oracle.exact_mwm`` that shares no search code with it), an exact
maximum-cardinality matching, the search for short weight-augmenting
paths and cycles behind Proposition 1's bound w(M) >= ((k-1)/k) * w(M*),
and the periodic exact recomputation that dynamic updates are timed against.
"""

from __future__ import annotations

import time

from dynmatch.errors import OracleLimitError
from dynmatch.graph import DynamicGraph, Weight, edge_key
from dynmatch.harness.streams import INSERT, UpdateStream
from dynmatch.matching import FREE, MatchingState
from dynmatch.oracle import (
    Pair,
    _bb_max_weight,
    _check_limits,
    _components,
    exact_mwm,
)

# Cap for the plain-enumeration route; 2^18 subsets is where "plain" stops
# being a synonym for "fast enough".
ENUMERATE_MAX_EDGES = 18


def exact_mwm_enumerate(graph: DynamicGraph) -> tuple[list[Pair], Weight]:
    """Maximum-weight matching by plain subset enumeration; cross-check route.

    No component decomposition, no pruning: every one of the 2^m edge
    subsets is tested for being a matching.  Refuses m > ENUMERATE_MAX_EDGES.
    """
    edges = sorted(graph.edges())
    m = len(edges)
    if m > ENUMERATE_MAX_EDGES:
        raise OracleLimitError(
            f"exact_mwm_enumerate: {m} edges exceeds cap {ENUMERATE_MAX_EDGES}"
        )
    masks = [(1 << u) | (1 << v) for (u, v, _w) in edges]
    best_w: Weight = 0
    best_mask = 0
    for mask in range(1 << m):
        vset = 0
        w: Weight = 0
        ok = True
        rest = mask
        i = 0
        while rest:
            if rest & 1:
                em = masks[i]
                if vset & em:
                    ok = False
                    break
                vset |= em
                w += edges[i][2]
            rest >>= 1
            i += 1
        if ok and w > best_w:
            best_w = w
            best_mask = mask
    pairs = sorted(
        edge_key(edges[i][0], edges[i][1]) for i in range(m) if best_mask >> i & 1
    )
    return pairs, best_w


def exact_mcm_matching(graph: DynamicGraph) -> list[Pair]:
    """An exact maximum-cardinality matching (weights ignored)."""
    pairs: list[Pair] = []
    for verts, edges in _components(graph):
        _check_limits(verts, edges, "exact_mcm")
        unit = [(u, v, 1) for (u, v, _w) in edges]
        p, _c = _bb_max_weight(unit)
        pairs.extend(p)
    return sorted(pairs)


def exact_mcm(graph: DynamicGraph) -> int:
    """Size of a maximum-cardinality matching."""
    return len(exact_mcm_matching(graph))


def find_weight_augmenting_kpath(
    graph: DynamicGraph, state: MatchingState, k_max: int
) -> tuple[list[Pair], int] | None:
    """Exhaustive search for a weight-augmenting alternating k-path.

    A path qualifies when flipping it (matching its unmatched edges,
    unmatching its matched ones) yields a valid matching of strictly larger
    weight; terminal unmatched edges therefore require free endpoints.  k
    counts the edges outside the matching.  A k-path is either open (2k-1,
    2k, or 2k+1 edges) or a closed alternating cycle (exactly 2k edges).
    Closed paths are not optional decoration: quality bounds of the form
    w(M) >= ((k-1)/k) * OPT break without them.  On two matched edges
    {a,b}, {c,d} plus unmatched {b,c}, {d,a}, where each matched weight is
    40 and each unmatched 60, no open alternating path improves anything,
    yet the matching sits at 80/120 = 2/3 - eps of optimum only because the
    4-cycle flip was never considered; eliminating cycles up to k restores
    the bound.

    Returns (edges in order, k) for the smallest qualifying k <= k_max, or
    None; for equal k, open paths are reported before cycles.
    """
    for verts, edges in _components(graph):
        _check_limits(verts, edges, "find_weight_augmenting_kpath")
    for k in range(1, k_max + 1):
        found = _find_kpath(graph, state, k)
        if found is not None:
            return found, k
        found = _find_augmenting_cycle(graph, state, k)
        if found is not None:
            return found, k
    return None


def _find_kpath(
    graph: DynamicGraph, state: MatchingState, k_budget: int
) -> list[Pair] | None:
    mate = state._mate
    in_path = bytearray(graph.n)
    path: list[Pair] = []

    def dfs(cur: int, next_matched: bool, k_used: int, gain: Weight) -> bool:
        if path and gain > 0:
            # The last edge was matched iff this call expects an unmatched
            # edge next.  Terminal matched edges are always fine; a terminal
            # unmatched edge needs a free endpoint or the flip would double-
            # match cur.
            if not next_matched or mate[cur] == FREE:
                return True
        if next_matched:
            m = mate[cur]
            if m != FREE and not in_path[m]:
                path.append((cur, m))
                in_path[m] = 1
                if dfs(m, False, k_used, gain - graph.weight(cur, m)):
                    return True
                in_path[m] = 0
                path.pop()
            return False
        if k_used == k_budget:
            return False
        for nb in sorted(graph.neighbors(cur)):
            if in_path[nb] or mate[cur] == nb:
                continue
            path.append((cur, nb))
            in_path[nb] = 1
            if dfs(nb, True, k_used + 1, gain + graph.weight(cur, nb)):
                return True
            in_path[nb] = 0
            path.pop()
        return False

    for s in range(graph.n):
        if graph.degree(s) == 0:
            continue
        in_path[s] = 1
        # A matched start must leave through its matched edge, else the flip
        # would leave s doubly matched; a free start must leave unmatched.
        if dfs(s, mate[s] != FREE, 0, 0):
            return list(path)
        in_path[s] = 0
        path.clear()
    return None


def _find_augmenting_cycle(
    graph: DynamicGraph, state: MatchingState, k_budget: int
) -> list[Pair] | None:
    """A closed alternating cycle with <= k_budget unmatched edges whose flip
    strictly gains weight, or None.

    Cycles alternate perfectly, so they carry j matched and j unmatched
    edges, j >= 2.  The search anchors at each matched vertex s, walks
    matched/unmatched alternately, and closes back to s through an unmatched
    edge.
    """
    if k_budget < 2:
        return None
    mate = state._mate
    in_path = bytearray(graph.n)
    path: list[Pair] = []

    def dfs(cur: int, s: int, used_u: int, gain: Weight) -> bool:
        # cur was entered through a matched edge; the next edge is unmatched.
        # used_u counts unmatched edges taken so far; closing adds one more,
        # kept within budget by the recursion guard below.
        if (
            mate[cur] != s
            and graph.has_edge(cur, s)
            and gain + graph.weight(cur, s) > 0
        ):
            path.append((cur, s))
            return True
        if used_u + 2 > k_budget:
            return False
        for nb in sorted(graph.neighbors(cur)):
            if in_path[nb] or mate[cur] == nb:
                continue
            m = mate[nb]
            if m == FREE or in_path[m]:
                continue
            path.append((cur, nb))
            path.append((nb, m))
            in_path[nb] = 1
            in_path[m] = 1
            if dfs(
                m,
                s,
                used_u + 1,
                gain + graph.weight(cur, nb) - graph.weight(nb, m),
            ):
                return True
            in_path[m] = 0
            in_path[nb] = 0
            path.pop()
            path.pop()
        return False

    for s in range(graph.n):
        a = mate[s]
        if a == FREE or a < s:  # each matched edge anchors one search
            continue
        path.clear()
        path.append((s, a))
        in_path[s] = 1
        in_path[a] = 1
        if dfs(a, s, 0, -state.stored_weight(s)):
            return list(path)
        in_path[s] = 0
        in_path[a] = 0
    return None


def verify_proposition1(graph: DynamicGraph, state: MatchingState, k: int) -> bool:
    """Check w(M) >= ((k-1)/k) * w(M*) given no augmenting path below k.

    Re-verifies the precondition (no weight-augmenting path, open or closed,
    with fewer than k unmatched edges) and raises ValueError when the caller
    got it wrong.  The comparison is exact for integer weights.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > 1 and find_weight_augmenting_kpath(graph, state, k - 1) is not None:
        raise ValueError(
            f"precondition violated: a weight-augmenting path with < {k} "
            "unmatched edges exists"
        )
    _pairs, opt = exact_mwm(graph)
    lhs = k * state.total_weight
    rhs = (k - 1) * opt
    if isinstance(lhs, int) and isinstance(rhs, int):
        return lhs >= rhs
    return lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def periodic_exact_time(stream: UpdateStream, interval: int) -> float:
    """Seconds to apply ``stream`` to a graph and re-solve ``exact_mwm``
    after every ``interval``-th op.  Like ``replay``, it times each op's
    mutation and solve, not the loop around them."""
    graph = DynamicGraph(stream.n)
    clock = time.perf_counter
    total = 0.0
    for i, op in enumerate(stream.ops, 1):
        t0 = clock()
        if op.kind == INSERT:
            graph.insert_edge(op.u, op.v, op.w)
        else:
            graph.delete_edge(op.u, op.v)
        if i % interval == 0:
            exact_mwm(graph)
        total += clock() - t0
    return total
