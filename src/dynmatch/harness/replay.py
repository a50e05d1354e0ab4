"""Replaying update streams against algorithms, with timing and audits.

The replay loop owns graph mutation: it applies each op to the graph, then
invokes the algorithm's handler and reads its weight, timing the three
together.  Parsing, OPT computation, and audit checks stay outside the
timed region.  Identical (stream, factory, seed) inputs replay to
bit-identical matchings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, Protocol

from ..errors import MatchingCorruptionError, ReplayError
from ..graph import DynamicGraph, Weight
from ..levels import LevelConfig, LevelMwm
from ..oracle import exact_mwm
from ..random_walk import RandomConfig, RandomWalkMwm
from .streams import INSERT, UpdateStream


class MatchingAlgorithm(Protocol):
    name: str

    def handle_insert(self, u: int, v: int, w: Weight) -> None: ...

    def handle_delete(self, u: int, v: int) -> None: ...

    @property
    def weight(self) -> Weight: ...

    def matched_pairs(self) -> list[tuple[int, int]]: ...

    def stats(self) -> dict[str, int]: ...

    def audit(self, deep: bool = False) -> None: ...


AlgoFactory = Callable[[DynamicGraph, int], MatchingAlgorithm]


class OracleRecompute:
    """Static baseline: recompute the exact matching every ``interval`` updates.

    Between recomputes the reported matching is simply stale; querying the
    weight after the stream forces a final solve (outside the timed loop).
    """

    name = "oracle"

    def __init__(self, graph: DynamicGraph, interval: int) -> None:
        if interval < 1:
            raise ValueError(f"recompute interval must be >= 1, got {interval}")
        self.graph = graph
        self.interval = interval
        self.recomputes = 0
        self._ops_seen = 0
        self._stale = True
        self._pairs: list[tuple[int, int]] = []
        self._weight: Weight = 0

    def _solve(self) -> None:
        self._pairs, self._weight = exact_mwm(self.graph)
        self.recomputes += 1
        self._stale = False

    def _tick(self) -> None:
        self._ops_seen += 1
        self._stale = True
        if self._ops_seen % self.interval == 0:
            self._solve()

    def handle_insert(self, u: int, v: int, w: Weight) -> None:
        self._tick()

    def handle_delete(self, u: int, v: int) -> None:
        self._tick()

    @property
    def weight(self) -> Weight:
        if self._stale:
            self._solve()
        return self._weight

    def matched_pairs(self) -> list[tuple[int, int]]:
        if self._stale:
            self._solve()
        return list(self._pairs)

    def stats(self) -> dict[str, int]:
        return {"successes": self.recomputes, "failures": 0}

    def audit(self, deep: bool = False) -> None:
        # The stored matching is allowed to lag the graph between solves;
        # only a fresh solve is checkable.
        if self._stale:
            return
        seen: set[int] = set()
        for u, v in self._pairs:
            if u in seen or v in seen or not self.graph.has_edge(u, v):
                raise MatchingCorruptionError(
                    f"oracle baseline pair ({u}, {v}) invalid"
                )
            seen.add(u)
            seen.add(v)


@dataclass
class ReplayOutcome:
    algorithm: MatchingAlgorithm
    graph: DynamicGraph
    num_ops: int
    total_time: float
    max_op_time: float

    @property
    def mean_op_time(self) -> float:
        return self.total_time / self.num_ops if self.num_ops else 0.0


def replay(
    stream: UpdateStream,
    factory: AlgoFactory,
    seed: int,
    *,
    audit: bool = False,
    deep_audit_every: int = 500,
) -> ReplayOutcome:
    """Apply every op to a fresh graph and algorithm, timing each update.

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
    view against a from-scratch merge -- runs on ops whose
    ``seq`` is a multiple of ``deep_audit_every`` (0 disables these) and
    after the last op.  Raises ReplayError when an op does not apply
    cleanly.

    The timed region is the graph mutation, the update handler and a read
    of the algorithm's weight, so LevelMwm's greedy merge, which runs on
    the first read after an update, is timed with the update.  The
    periodic oracle is not read per op: its read forces a solve, which it
    owes only every ``interval`` ops.
    """
    graph = DynamicGraph(stream.n)
    algo = factory(graph, seed)
    clock = time.perf_counter
    total = 0.0
    worst = 0.0
    deep = False
    read_weight = not isinstance(algo, OracleRecompute)
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
        if read_weight:
            algo.weight
        dt = clock() - t0
        total += dt
        if dt > worst:
            worst = dt
        if audit:
            deep = deep_audit_every > 0 and op.seq % deep_audit_every == 0
            _audit(algo, deep, f"op {op.seq}")
    if audit and stream.ops and not deep:  # the tail since the last deep audit
        _audit(algo, True, "after the last op")
    return ReplayOutcome(
        algorithm=algo,
        graph=graph,
        num_ops=len(stream.ops),
        total_time=total,
        max_op_time=worst,
    )


def _audit(algo: MatchingAlgorithm, deep: bool, where: str) -> None:
    """Audit ``algo``; a failure is re-raised prefixed with ``where``."""
    try:
        algo.audit(deep=deep)
    except MatchingCorruptionError as exc:
        raise MatchingCorruptionError(f"{where}: {exc}") from exc


@dataclass
class RunResult:
    """One row per (instance, algorithm, repetition); the CSV schema."""

    instance: str
    algorithm: str
    config: str
    seed: int
    repetition: int
    n: int
    num_ops: int
    final_weight: Weight
    opt_weight: Weight | None
    total_time: float
    mean_op_time: float
    max_op_time: float
    successes: int
    failures: int

    @property
    def opt_ratio(self) -> float | None:
        if not self.opt_weight:
            return None
        return self.final_weight / self.opt_weight


def rep_seed(master_seed: int, repetition: int) -> int:
    """Per-repetition seed; distinct for reps < 1000 per master seed."""
    return master_seed * 1000 + repetition


def run_repetitions(
    stream: UpdateStream,
    factory: AlgoFactory,
    *,
    algorithm: str,
    config: str,
    reps: int,
    master_seed: int,
    instance: str = "stream",
    opt_weight: Weight | None = None,
    audit: bool = False,
) -> list[RunResult]:
    """Replay ``reps`` times with derived seeds; one RunResult per repetition."""
    results = []
    for rep in range(reps):
        seed = rep_seed(master_seed, rep)
        out = replay(stream, factory, seed, audit=audit)
        stats = out.algorithm.stats()
        results.append(
            RunResult(
                instance=instance,
                algorithm=algorithm,
                config=config,
                seed=seed,
                repetition=rep,
                n=stream.n,
                num_ops=out.num_ops,
                final_weight=out.algorithm.weight,
                opt_weight=opt_weight,
                total_time=out.total_time,
                mean_op_time=out.mean_op_time,
                max_op_time=out.max_op_time,
                successes=stats.get("successes", 0),
                failures=stats.get("failures", 0),
            )
        )
    return results


# -- factories ---------------------------------------------------------------


def random_walk_factory(config: RandomConfig) -> AlgoFactory:
    return lambda graph, seed: RandomWalkMwm(graph, config, seed)


def level_factory(config: LevelConfig) -> AlgoFactory:
    return lambda graph, seed: LevelMwm(graph, config, seed)


def oracle_factory(interval: int) -> AlgoFactory:
    return lambda graph, seed: OracleRecompute(graph, interval)


# -- result CSV ----------------------------------------------------------------

RESULT_FIELDS = [f.name for f in fields(RunResult)] + ["opt_ratio"]


def result_row(result: RunResult) -> dict[str, object]:
    row = {name: getattr(result, name) for name in RESULT_FIELDS[:-1]}
    ratio = result.opt_ratio
    row["opt_ratio"] = "" if ratio is None else f"{ratio:.6f}"
    if result.opt_weight is None:
        row["opt_weight"] = ""
    return row
