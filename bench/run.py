#!/usr/bin/env python3
"""Replay benchmark for dynmatch: update latency, throughput, quality, memory.

From the root of the repository:

    python3 bench/run.py --workload undo-rw --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy.  One caller in one process replays a seeded stream in a closed
loop: each op is issued when the previous one has returned.  An op is the
graph mutation, the algorithm's handler and a read of ``algo.weight``, timed
together; the read is what brings ``LevelMwm``'s merged view up to date, so
without it the merge would run outside every timed op.  A run replays whole
rounds, each on a fresh graph and algorithm with its own algorithm seed, until
``--seconds`` of replay have passed and at least MIN_OPS measured ops are
timed (see workloads.py for the warm-up and the blocks).

At fixed checkpoints of every round the outputs are checked against the
benchmark's own copy of the graph and against an optimum from
``networkx.max_weight_matching``.  ``--trace 1`` replays traced rounds (see
tracer.py) and then the same rounds untraced, reports the per-layer metrics,
and checks that both reach the same weight at every checkpoint.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The same object, with details, goes to
``bench/out/``.  Exit code 0 means every check passed, 1 that one failed, 2
that the run could not start.  ``--rebuild-opt-cache`` recomputes every cached
optimum from networkx instead of running.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
OPT_CACHE = BENCH / ".opt-cache"

SETUP_FIRST = 3  # set-up runs before the replay; more follow during it
SETUP_EVERY_S = 1.0
MIN_OPS = 10_000  # 100 timed ops lie beyond the p99
MAX_REPLAY_S = 120.0  # stop adding rounds here even below MIN_OPS
DEEP_AUDIT_EVERY = 500  # as `dynmatch run --audit`
MAX_REPORTED_PROBLEMS = 20


@dataclass
class Round:
    seed: int
    times: list[float]  # seconds per op: update plus weight read
    marks: list[float]  # replay time at each block boundary
    wall: float  # replay time, audits included, checkpoint checks not
    failed: int
    weights: list  # algo.weight at each checkpoint
    attempts: int = 0  # per-level augmentation attempts (LevelMwm)
    successes: int = 0
    levels: int = 0


def algo_seed(seed: int, round_no: int) -> int:
    return seed * 1000 + round_no


# -- reference -------------------------------------------------------------------


def reference_edges(ops, checkpoints) -> dict[int, dict[tuple[int, int], int]]:
    """The benchmark's own edge dict after each checkpoint's op count."""
    edges: dict[tuple[int, int], int] = {}
    out = {}
    for k, (kind, u, v, w) in enumerate(ops, 1):
        if kind == "+":
            edges[(u, v)] = w
        else:
            del edges[(u, v)]
        if k in checkpoints:
            out[k] = dict(edges)
    return out


def networkx_optimum(edges: dict[tuple[int, int], int]) -> int:
    import networkx as nx

    g = nx.Graph()
    g.add_weighted_edges_from((u, v, w) for (u, v), w in edges.items())
    return sum(edges[(min(u, v), max(u, v))] for u, v in nx.max_weight_matching(g))


def reference_optima(workload, seed: int, text: str, refs, fresh: bool = False) -> dict[int, int]:
    """OPT at each checkpoint.  It depends on the stream alone, so it is kept
    in OPT_CACHE under the stream's digest; ``fresh`` recomputes it."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = OPT_CACHE / f"{digest[:24]}.json"
    entry = {"workload": workload.name, "seed": seed, "stream_sha256": digest, "opt": {}}
    if not fresh and path.is_file():
        try:
            cached = json.loads(path.read_text())
        except (OSError, ValueError):
            cached = {}
        if cached.get("stream_sha256") == digest:
            entry["opt"] = cached.get("opt", {})
    if fresh or any(str(k) not in entry["opt"] for k in refs):
        entry["opt"].update({str(k): networkx_optimum(edges) for k, edges in refs.items()})
        OPT_CACHE.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True))
        os.replace(tmp, path)
    return {k: entry["opt"][str(k)] for k in refs}


def check_outputs(algo, graph, edges, opt, where: str, problems: list[str]):
    """Check the algorithm's outputs against the benchmark's edge dict and
    OPT; returns the weight read."""

    def fail(msg: str) -> None:
        problems.append(f"{where}: {msg}")

    if {(u, v): w for u, v, w in graph.edges()} != edges:
        fail("the graph's edges differ from the stream's")
    covered: set[int] = set()
    total = 0
    for u, v in algo.matched_pairs():
        key = (min(u, v), max(u, v))
        if key not in edges:
            fail(f"matched pair {key} is not an edge")
            continue
        if u in covered or v in covered:
            fail(f"matched pair {key} shares an endpoint with another pair")
        covered.update(key)
        total += edges[key]
    weight = algo.weight
    if weight != total:
        fail(f"weight {weight} != {total}, the sum of the matched pairs' weights")
    if weight > opt:
        fail(f"weight {weight} exceeds the optimum {opt}")
    if weight <= 0:
        fail(f"weight {weight} is not positive")
    # The greedy merge keeps a level pair unless a kept pair meets it.
    for level in getattr(algo, "levels", ()):
        for u, v in level.state.matched_pairs():
            if u not in covered and v not in covered:
                fail(f"level {level.index} pair ({u}, {v}) neither merged nor blocked")
    return weight


# -- replay ------------------------------------------------------------------------


class Replayer:
    """Replays one workload's parsed stream, one round at a time.

    ``between`` runs at every block boundary, outside the timed region."""

    def __init__(self, workload, plan, refs, opts, problems, between=None) -> None:
        self.workload = workload
        self.plan = plan
        self.refs = refs
        self.opts = opts
        self.problems = problems
        self.between = between

    def round(self, seed: int) -> tuple[Round, object]:
        """Replay the plan on a fresh graph and algorithm; returns the round
        and the algorithm, which holds the graph."""
        from dynmatch.graph import DynamicGraph
        from workloads import N

        wl = self.workload
        graph = DynamicGraph(N)
        algo = wl.algorithm(graph, seed)
        last = len(self.plan)
        boundaries = set(range(wl.warmup, last + 1, wl.block)) - {0}
        checkpoints = set(wl.checkpoints)
        stops = boundaries | checkpoints
        audited = wl.audited
        times: list[float] = []
        record = times.append
        marks = [0.0] if wl.warmup == 0 else []
        weights = []
        failed = 0
        wall = 0.0
        clock = time.perf_counter
        start = clock()
        for k, (is_insert, u, v, w, seq) in enumerate(self.plan, 1):
            t0 = clock()
            if is_insert:
                if graph.insert_edge(u, v, w):
                    algo.handle_insert(u, v, w)
                else:
                    failed += 1
            elif graph.delete_edge(u, v):
                algo.handle_delete(u, v)
            else:
                failed += 1
            algo.weight  # brings LevelMwm's merged view up to date
            record(clock() - t0)
            if audited:
                algo.audit(deep=seq % DEEP_AUDIT_EVERY == 0 or k == last)
            if k in stops:
                wall += clock() - start
                if k in boundaries:
                    marks.append(wall)
                if k in checkpoints:
                    where = f"seed {seed}, op {k}"
                    weights.append(
                        check_outputs(algo, graph, self.refs[k], self.opts[k], where, self.problems)
                    )
                if k in boundaries and self.between is not None:
                    self.between()
                start = clock()
        wall += clock() - start
        rnd = Round(seed, times, marks, wall, failed, weights)
        for level in getattr(algo, "levels", ()):
            rnd.attempts += level.worker.attempts
            rnd.successes += level.worker.successes
            rnd.levels += 1
        return rnd, algo

    def rounds(self, seed: int, seconds: float, min_ops: int = 0, on_first=None) -> list[Round]:
        """Whole rounds until ``seconds`` of replay and ``min_ops`` measured
        ops; ``on_first`` gets the first round's algorithm."""
        rounds: list[Round] = []
        wall = 0.0
        measured = 0
        while not rounds or ((wall < seconds or measured < min_ops) and wall < MAX_REPLAY_S):
            gc.collect()
            rnd, algo = self.round(algo_seed(seed, len(rounds)))
            if on_first is not None and not rounds:
                on_first(algo)
            del algo
            rounds.append(rnd)
            wall += rnd.wall
            measured += len(rnd.times) - self.workload.warmup
        return rounds


class SetupTimer:
    """Times set-up -- parse the text, build the graph and the algorithm --
    a few times at the start and then about once a second during the run, so
    that its median spans the whole run, not one stretch of it."""

    def __init__(self, text: str, workload, seed: int) -> None:
        self.text = text
        self.workload = workload
        self.seed = seed
        self.setup: list[float] = []
        self.parse: list[float] = []
        self._last = 0.0

    def measure(self):
        from dynmatch.graph import DynamicGraph
        from dynmatch.harness.streams import parse_temporal

        clock = time.perf_counter
        gc.collect()
        t0 = clock()
        stream = parse_temporal(self.text)
        t1 = clock()
        self.workload.algorithm(DynamicGraph(stream.n), self.seed)
        t2 = clock()
        self.setup.append(t2 - t0)
        self.parse.append(t1 - t0)
        self._last = t2
        return stream

    def now_and_then(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.measure()


_NOT_STATE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def deep_size(root) -> int:
    """Bytes of every object reachable from ``root``, classes and code aside."""
    seen: set[int] = set()
    todo = [root]
    total = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, _NOT_STATE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    return total


# -- metrics -------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measured_blocks(rounds: list[Round], workload):
    """(per-op seconds, replay seconds) of every measured block."""
    for r in rounds:
        for i in range(len(r.marks) - 1):
            a = workload.warmup + i * workload.block
            yield r.times[a : a + workload.block], r.marks[i + 1] - r.marks[i]


def end_to_end(rounds: list[Round], workload, opts, setup_s: float, state_mb: float) -> dict:
    """Throughput and median latency are taken per measured block and
    reported at the slow-side decile over the run's blocks: on a shared host
    the clock runs faster for stretches that cover a share of the blocks
    varying from run to run, and that decile moves least with them.  The p99
    is over all measured ops of the run."""
    blocks = list(measured_blocks(rounds, workload))
    times = sorted(t for block, _ in blocks for t in block)
    p99 = times[math.ceil(0.99 * len(times)) - 1]
    rate_d1 = statistics.quantiles([len(b) / wall for b, wall in blocks], n=10)[0]
    p50_d9 = statistics.quantiles([statistics.median(b) for b, _ in blocks], n=10)[-1]
    logs = [
        math.log(w / opts[k]) for r in rounds for k, w in zip(sorted(opts), r.weights) if w > 0
    ]
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(rate_d1, "ops/s"),
        "op_p50_us": _metric(p50_d9 * 1e6, "us"),
        "op_p99_us": _metric(p99 * 1e6, "us"),
        "opt_ratio": _metric(math.exp(statistics.fmean(logs)), "ratio"),
        "state_mb": _metric(state_mb, "MB"),
    }


def per_layer(tracer, traced: list[Round], plain: list[Round], parse_s: float) -> dict:
    ops = sum(len(r.times) for r in traced)
    wall = sum(r.wall for r in traced)
    st = tracer.self_time
    calls = tracer.calls

    def us(layer: str) -> float:
        return st[layer] / ops * 1e6

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    attempts = sum(r.attempts for r in traced)
    walks = calls["paths.walk"]
    return {
        "graph.mutate_us": _metric(us("graph"), "us/op"),
        "graph.mutations_per_op": _metric(calls["graph"] / ops, "count"),
        "random_walk.seed_us": _metric(us("random_walk"), "us/op"),
        "random_walk.walks_per_op": _metric(walks / ops, "count"),
        "random_walk.improved_per_walk": _metric(share(calls["paths.rewrite"], walks), "ratio"),
        "paths.walk_us": _metric(us("paths.walk"), "us/op"),
        "paths.edges_per_walk": _metric(share(tracer.walk_edges, walks), "count"),
        "paths.dp_us": _metric(us("paths.dp"), "us/op"),
        "paths.rewrite_us": _metric(us("paths.rewrite"), "us/op"),
        "mcm.search_us": _metric(us("mcm"), "us/op"),
        "mcm.attempts_per_op": _metric(attempts / ops, "count"),
        "mcm.success_per_attempt": _metric(
            share(sum(r.successes for r in traced), attempts), "ratio"
        ),
        "levels.fanout_us": _metric(us("levels"), "us/op"),
        "levels.levels_per_op": _metric(calls["mcm"] / ops, "count"),
        "levels.merge_us": _metric(us("levels.merge"), "us/op"),
        "levels.level_count": _metric(statistics.fmean(r.levels for r in traced), "count"),
        "matching.audit_us": _metric(us("matching.shallow") + us("matching.deep"), "us/op"),
        "matching.deep_audit_ms": _metric(
            share(st["matching.deep"], calls["matching.deep"]) * 1e3, "ms/call"
        ),
        "streams.parse_s": _metric(parse_s, "s"),
        "trace.covered": _metric(tracer.covered / wall, "ratio"),
        "trace.overhead": _metric(wall / sum(r.wall for r in plain), "ratio"),
    }


# -- main ------------------------------------------------------------------------------


def run(args) -> int:
    from dynmatch.harness.streams import INSERT
    from workloads import N, WORKLOADS, to_temporal

    workload = WORKLOADS[args.workload]
    ops = workload.stream(args.seed)
    text = to_temporal(ops)
    setup = SetupTimer(text, workload, algo_seed(args.seed, 0))
    for _ in range(SETUP_FIRST):
        stream = setup.measure()
    problems: list[str] = []
    parsed = [("+" if op.kind == INSERT else "-", op.u, op.v, op.w) for op in stream.ops]
    if stream.n != N or parsed != ops:
        problems.append("parse_temporal did not give back the generated stream")
    plan = [(op.kind == INSERT, op.u, op.v, op.w, op.seq) for op in stream.ops]
    refs = reference_edges(ops, workload.checkpoints)
    opts = reference_optima(workload, args.seed, text, refs)
    replayer = Replayer(workload, plan, refs, opts, problems, setup.now_and_then)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = replayer.rounds(args.seed, args.seconds)
        replayer.between = None
        plain = [replayer.round(r.seed)[0] for r in traced]
        for t, p in zip(traced, plain):
            if t.weights != p.weights:
                problems.append(
                    f"seed {t.seed}: traced checkpoint weights {t.weights} != untraced {p.weights}"
                )
        metrics = per_layer(tracer, traced, plain, statistics.median(setup.parse))
        rounds = traced + plain
    else:
        state = []
        rounds = replayer.rounds(
            args.seed,
            args.seconds,
            MIN_OPS,
            lambda algo: state.append(deep_size(algo) / 1e6),
        )
        metrics = end_to_end(rounds, workload, opts, statistics.median(setup.setup), state[0])

    result = {
        "correct": not problems,
        "attempted": sum(len(r.times) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_s": setup.setup,
        "blocks": [
            {"ops": len(b), "wall_s": wall, "p50_s": statistics.median(b)}
            for b, wall in measured_blocks(rounds, workload)
        ],
        "rounds": [
            {
                "seed": r.seed,
                "ops": len(r.times),
                "wall_s": r.wall,
                "weights": r.weights,
            }
            for r in rounds
        ],
        "opt": {str(k): v for k, v in opts.items()},
        "problems": problems,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1)
    )
    for msg in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if problems else 0


def rebuild_opt_cache() -> int:
    """Recompute every cached optimum from networkx."""
    from workloads import WORKLOADS, to_temporal

    for path in sorted(OPT_CACHE.glob("*.json")):
        entry = json.loads(path.read_text())
        workload = WORKLOADS[entry["workload"]]
        ops = workload.stream(entry["seed"])
        refs = reference_edges(ops, workload.checkpoints)
        opts = reference_optima(workload, entry["seed"], to_temporal(ops), refs, fresh=True)
        print(f"{workload.name} seed {entry['seed']}: {opts}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="undo-rw, churn-level-walk or churn-level-bfs-audited")
    parser.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0, help="replay time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rebuild-opt-cache", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "dynmatch" / "__init__.py").is_file():
        print(f"error: no dynmatch source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.rebuild_opt_cache:
        return rebuild_opt_cache()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
