"""The benchmark's workloads: seeded stream generators and algorithm configs.

Streams are generated here, with the benchmark's own code, and written out in
dynmatch's temporal text format; the program sees only that text.  An op is a
tuple ``(kind, u, v, w)`` with ``kind`` ``"+"`` or ``"-"`` and ``w`` None for
deletes.  The same ``--seed`` always gives the same stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from dynmatch.levels import LevelConfig, LevelMwm
from dynmatch.random_walk import RandomConfig, RandomWalkMwm

N = 1000
WEIGHT_LO, WEIGHT_HI = 1, 100

# undo-rw: G(n, m) with average degree 2m/n = 10, then undo the last quarter.
UNDO_EDGES = 5000
UNDO_SHARE = 0.25

# churn-*: the shape of tests/test_acceptance.py::test_02's stream.  The live
# edge count grows as CHURN_LIVE * (1 - exp(-ops / CHURN_LIVE)) in expectation,
# so it is at about 98% of CHURN_LIVE after CHURN_WARMUP ops.
CHURN_WARMUP = 3000
CHURN_OPS = CHURN_WARMUP + 6000
CHURN_LIVE = 800

Op = tuple[str, int, int, "int | None"]


def undo_stream(seed: int) -> list[Op]:
    """Random graph inserted in random order, then its last 25% of inserts
    deleted again, newest first."""
    rng = random.Random(seed)
    present: set[tuple[int, int]] = set()
    ops: list[Op] = []
    while len(ops) < UNDO_EDGES:
        u, v = rng.randrange(N), rng.randrange(N)
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        ops.append(("+", key[0], key[1], rng.randint(WEIGHT_LO, WEIGHT_HI)))
    undone = int(UNDO_EDGES * UNDO_SHARE)
    ops.extend(("-", u, v, None) for _, u, v, _ in reversed(ops[-undone:]))
    return ops


def churn_stream(seed: int) -> list[Op]:
    """Mixed inserts and deletes whose live edge count climbs to and then
    hovers near CHURN_LIVE: a delete is drawn with probability
    0.5 * live / CHURN_LIVE, so the expected drift is 1 - live / CHURN_LIVE."""
    rng = random.Random(seed)
    present: set[tuple[int, int]] = set()
    live: list[tuple[int, int]] = []  # present, in a list for O(1) sampling
    ops: list[Op] = []
    while len(ops) < CHURN_OPS:
        if live and rng.random() < min(0.9, 0.5 * len(live) / CHURN_LIVE):
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            u, v = live.pop()
            present.discard((u, v))
            ops.append(("-", u, v, None))
            continue
        u, v = rng.randrange(N), rng.randrange(N)
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        live.append(key)
        ops.append(("+", key[0], key[1], rng.randint(WEIGHT_LO, WEIGHT_HI)))
    return ops


def to_temporal(ops: list[Op]) -> str:
    """The stream as ``u v w ts op`` lines with ts = position; deletes carry
    the placeholder weight 0, which the parser ignores."""
    lines = [f"# n={N}"]
    for ts, (kind, u, v, w) in enumerate(ops):
        lines.append(f"{u} {v} {w if kind == '+' else 0} {ts} {kind}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int], list[Op]]
    algorithm: Callable  # (graph, algorithm seed) -> algorithm
    checkpoints: tuple[int, ...]  # op counts at which outputs are checked
    # Ops after the first ``warmup`` of a round are measured, in blocks of
    # ``block`` ops; the run reports medians over blocks.
    warmup: int
    block: int
    audited: bool = False


def _random_walk(graph, seed):
    return RandomWalkMwm(graph, RandomConfig(epsilon=1.0, num_walks=5), seed)


def _level_walk(graph, seed):
    return LevelMwm(graph, LevelConfig(epsilon=0.1, mcm_kind="walk"), seed)


def _level_bfs(graph, seed):
    return LevelMwm(graph, LevelConfig(epsilon=0.5, mcm_kind="bfs"), seed)


_UNDO_LEN = UNDO_EDGES + int(UNDO_EDGES * UNDO_SHARE)

WORKLOADS = {
    w.name: w
    for w in (
        # Half the inserts, all of them, and the end of the undo; one block
        # is one whole round.
        Workload(
            "undo-rw",
            undo_stream,
            _random_walk,
            (UNDO_EDGES // 2, UNDO_EDGES, _UNDO_LEN),
            warmup=0,
            block=_UNDO_LEN,
        ),
        Workload(
            "churn-level-walk",
            churn_stream,
            _level_walk,
            (CHURN_WARMUP, CHURN_OPS - 3000, CHURN_OPS),
            warmup=CHURN_WARMUP,
            block=500,
        ),
        Workload(
            "churn-level-bfs-audited",
            churn_stream,
            _level_bfs,
            (CHURN_WARMUP, CHURN_OPS - 3000, CHURN_OPS),
            warmup=CHURN_WARMUP,
            block=500,
            audited=True,
        ),
    )
}
