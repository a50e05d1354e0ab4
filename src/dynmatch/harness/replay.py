"""Replaying update streams against algorithms, with timing and audits.

The replay loop owns graph mutation: it applies each op to the graph, then
invokes the algorithm's handler and reads its weight, timing the three
together.  Parsing, OPT computation, and audit checks stay outside the
timed region.  Identical (stream, algorithm class, config, seed) inputs
replay to bit-identical matchings.
"""

from __future__ import annotations

import time

from ..errors import MatchingCorruptionError, ReplayError
from .streams import INSERT, UpdateStream

DEEP_AUDIT_EVERY = 500  # replay(audit=True) deep-audits ops whose seq it divides


def replay(stream: UpdateStream, algo, *, audit: bool = False) -> tuple[float, float]:
    """Apply every op to ``algo.graph`` and ``algo``, timing each update.

    ``algo`` is a RandomWalkMwm or LevelMwm built on an empty
    ``DynamicGraph(stream.n)``; it and its graph end in the stream's final
    state.  Returns the total and the largest time of one update, in
    seconds.

    With audit=True the algorithm's invariants are checked after every op,
    outside the timed region; violations raise MatchingCorruptionError,
    prefixed with ``op <seq>:`` (``after the last op:`` for the tail audit)
    and chained to the audit's own error, never swallowed.  The per-op
    audit is O(Δ): it checks the weight stored at each vertex touched since
    the previous audit (the op's endpoints and every vertex whose mate
    changed), none at a free vertex, and at a matched one mate symmetry,
    equal weights at both mates, graph membership and the graph weight,
    plus the weight total against an independently maintained sum.  The
    deep audit -- the same check at every vertex, in O(n), and each
    algorithm's own structures such as LevelMwm's levels and its merged
    view against a from-scratch merge -- runs on ops whose ``seq`` is a
    multiple of ``DEEP_AUDIT_EVERY`` and after the last op.  Raises
    ReplayError when an op does not apply cleanly.

    The timed region is the graph mutation, the update handler and a read
    of the algorithm's weight, so LevelMwm's greedy merge, which runs on
    the first read after an update, is timed with the update.
    """
    graph = algo.graph
    clock = time.perf_counter
    total = 0.0
    worst = 0.0
    deep = False
    for op in stream.ops:
        t0 = clock()
        if op.kind == INSERT:
            if not graph.insert_edge(op.u, op.v, op.w):
                raise ReplayError(
                    f"op {op.seq}: insert of already-present edge ({op.u}, {op.v})"
                )
            algo.handle_insert(op.u, op.v, op.w)
        else:
            if not graph.delete_edge(op.u, op.v):
                raise ReplayError(
                    f"op {op.seq}: delete of absent edge ({op.u}, {op.v})"
                )
            algo.handle_delete(op.u, op.v)
        algo.weight
        dt = clock() - t0
        total += dt
        if dt > worst:
            worst = dt
        if audit:
            deep = op.seq % DEEP_AUDIT_EVERY == 0
            _audit(algo, deep, f"op {op.seq}")
    if audit and stream.ops and not deep:  # the tail since the last deep audit
        _audit(algo, True, "after the last op")
    return total, worst


def _audit(algo, deep: bool, where: str) -> None:
    """Audit ``algo``; a failure is re-raised prefixed with ``where``."""
    try:
        algo.audit(deep=deep)
    except MatchingCorruptionError as exc:
        raise MatchingCorruptionError(f"{where}: {exc}") from exc


# rep_seed gives distinct seeds only below this many repetitions per master
# seed: repetition 1000 of seed 1 would be repetition 0 of seed 2.
MAX_REPS = 1000


def rep_seed(master_seed: int, repetition: int) -> int:
    """Per-repetition seed; distinct for repetitions below MAX_REPS."""
    return master_seed * MAX_REPS + repetition

