"""I/O layer: parsers, stream generators, replay, aggregation, CLI."""

import csv
import math
import random
import re
import shlex
import time
from pathlib import Path

import pytest

import dynmatch.harness.cli as cli_mod
import dynmatch.harness.replay as replay_mod
from dynmatch.errors import MatchingCorruptionError, ReplayError, StreamParseError
from dynmatch.graph import DynamicGraph
from dynmatch.harness.cli import main
from dynmatch.harness.profiles import TAUS, geometric_mean, perf_profile
from dynmatch.harness.replay import rep_seed, replay
from dynmatch.harness.streams import (
    DELETE,
    INSERT,
    MAX_N_HINT,
    UpdateOp,
    UpdateStream,
    format_stream,
    gen_insertion_stream,
    gen_undo_suffix,
    parse_static_edgelist,
    parse_temporal,
)
from dynmatch.levels import LevelConfig, LevelMwm
from dynmatch.matching import FREE
from dynmatch.random_walk import RandomConfig, RandomWalkMwm
from support.graph import final_graph


def walk_algo(stream, seed, **cfg):
    """A RandomWalkMwm on an empty graph for ``stream``, ready to replay."""
    return RandomWalkMwm(DynamicGraph(stream.n), RandomConfig(**cfg), seed)


# -- static edge list parsing ---------------------------------------------


def test_static_basic():
    parsed = parse_static_edgelist("3\n0 1 5\n1 2 4\n")
    assert parsed.n == 3
    assert parsed.edges == [(0, 1, 5), (1, 2, 4)]
    assert parsed.warnings == {"self_loops": 0, "duplicates": 0}


def test_static_unweighted_and_comments():
    parsed = parse_static_edgelist("# four vertices\n4\n\n0 1\n2 3\n")
    assert parsed.n == 4
    assert parsed.edges == [(0, 1, None), (2, 3, None)]


def test_static_self_loop_dropped_with_warning():
    parsed = parse_static_edgelist("3\n0 1 5\n2 2 7\n")
    assert parsed.edges == [(0, 1, 5)]
    assert parsed.warnings["self_loops"] == 1


def test_static_duplicate_dropped_first_wins():
    parsed = parse_static_edgelist("2\n0 1 5\n0 1 9\n1 0 3\n")
    assert parsed.edges == [(0, 1, 5)]
    assert parsed.warnings["duplicates"] == 2


def test_static_errors_carry_line_numbers():
    with pytest.raises(StreamParseError, match="line 1"):
        parse_static_edgelist("")
    with pytest.raises(StreamParseError, match="line 2"):
        parse_static_edgelist("3\n0 1 2 3 4\n")
    with pytest.raises(StreamParseError, match="line 3"):
        parse_static_edgelist("3\n0 1 5\n0 7 2\n")  # vertex out of range
    with pytest.raises(StreamParseError, match="line 2"):
        parse_static_edgelist("3\n0 1 zero\n")
    with pytest.raises(StreamParseError, match="line 2"):
        parse_static_edgelist("3\n0 1 0\n")  # weights below 1 rejected


# -- temporal parsing --------------------------------------------------------


def test_temporal_basic_and_vertex_hint():
    stream = parse_temporal("# n=9\n0 1 5 1.0 +\n1 2 4 2.0\n0 1 0 3.0 -\n")
    assert stream.n == 9
    kinds = [(op.kind, op.u, op.v, op.w) for op in stream.ops]
    assert kinds == [
        (INSERT, 0, 1, 5),
        (INSERT, 1, 2, 4),
        (DELETE, 0, 1, None),
    ]
    assert [op.seq for op in stream.ops] == [0, 1, 2]


def test_temporal_sorts_by_timestamp_ties_keep_file_order():
    stream = parse_temporal("0 1 5 2.0 +\n2 3 4 1.0 +\n4 5 3 1.0 +\n")
    assert [(op.u, op.v) for op in stream.ops] == [(2, 3), (4, 5), (0, 1)]


def test_temporal_cleaning_warnings():
    text = "1 1 5 1 +\n0 1 5 2 +\n0 1 6 3 +\n2 3 0 4 -\n"
    stream = parse_temporal(text)
    assert len(stream.ops) == 1
    w = stream.warnings
    assert w == {"self_loops": 1, "duplicate_inserts": 1, "absent_deletes": 1}


def test_temporal_errors():
    with pytest.raises(StreamParseError, match="line 1"):
        parse_temporal("0 1 5\n")  # too few fields
    with pytest.raises(StreamParseError, match="bad op"):
        parse_temporal("0 1 5 1.0 x\n")
    with pytest.raises(StreamParseError, match="bad timestamp"):
        parse_temporal("0 1 5 soon +\n")


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "NaN", "1e400"])
def test_non_finite_weight_rejected_with_its_line(token):
    with pytest.raises(StreamParseError, match="line 2: non-finite weight"):
        parse_temporal(f"0 1 5 1 +\n1 2 {token} 2 +\n")
    with pytest.raises(StreamParseError, match="line 3: non-finite weight"):
        parse_static_edgelist(f"3\n0 1 5\n1 2 {token}\n")


@pytest.mark.parametrize("token", [str(2**53 + 1), "1.7e308", str(10**400)])
def test_weight_above_ceiling_rejected_with_its_line(token):
    with pytest.raises(StreamParseError, match="line 2: weight .* exceeds 2\\*\\*53"):
        parse_temporal(f"0 1 5 1 +\n1 2 {token} 2 +\n")
    with pytest.raises(StreamParseError, match="line 3: weight .* exceeds 2\\*\\*53"):
        parse_static_edgelist(f"3\n0 1 5\n1 2 {token}\n")
    assert parse_static_edgelist(f"3\n0 1 {2**53}\n").edges == [(0, 1, 2**53)]


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_timestamp_rejected_with_its_line(token):
    with pytest.raises(StreamParseError, match="line 2: non-finite timestamp"):
        parse_temporal(f"0 1 5 1 +\n1 2 4 {token} +\n")


def test_vertex_hint_above_ceiling_rejected():
    # Only the parser runs: the hint is refused before any O(n) structure.
    with pytest.raises(StreamParseError, match="line 1: vertex count hint"):
        parse_temporal(f"# n={10**12}\n0 1 5 1 +\n")
    assert parse_temporal(f"# n={MAX_N_HINT}\n0 1 5 1 +\n").n == MAX_N_HINT


def test_vertex_id_at_or_above_ceiling_rejected():
    # Only the parser runs: a huge id would otherwise set n the way a huge
    # hint does.
    with pytest.raises(StreamParseError, match="line 2: vertex id 1000000000000"):
        parse_temporal(f"0 1 5 0 +\n0 {10**12} 5 1 +\n")
    with pytest.raises(StreamParseError, match="line 1: vertex id"):
        parse_temporal(f"{MAX_N_HINT} 0 5 0 +\n")
    assert parse_temporal(f"{MAX_N_HINT - 1} 0 5 0 +\n").n == MAX_N_HINT


def test_static_vertex_count_above_ceiling_rejected():
    with pytest.raises(StreamParseError, match="line 2: vertex count"):
        parse_static_edgelist(f"# big\n{10**12}\n0 1 5\n")
    assert parse_static_edgelist(f"{MAX_N_HINT}\n0 1 5\n").n == MAX_N_HINT


def test_temporal_round_trip_through_format_stream():
    stream = gen_insertion_stream(6, [(0, 1, 5), (2, 3, None), (4, 5, 9)], seed=3)
    stream = gen_undo_suffix(stream, 50, seed=4)
    again = parse_temporal(format_stream(stream))
    assert again.n == stream.n
    assert [(o.kind, o.u, o.v, o.w) for o in again.ops] == [
        (o.kind, o.u, o.v, o.w) for o in stream.ops
    ]


# Ids above 256, whose ints Python does not cache, so a fresh int per token
# would show as a second object.
SHARED_ID_TEXT = (
    "# n=1000\n"
    "700 701 5 0 +\n"
    "0700 900 3 1 +\n"
    "701 900 4 2 +\n"
    "00700 701 0 3 -\n"
    "7 0700 9 4 +\n"
    "07 901 2 5 +\n"
)


def objects_by_id(stream):
    """Vertex value -> ids of the int objects the stream's ops carry for it."""
    seen: dict[int, set[int]] = {}
    for op in stream.ops:
        for x in (op.u, op.v):
            seen.setdefault(x, set()).add(id(x))
    return seen


def test_parse_temporal_gives_one_int_object_per_vertex_id():
    stream = parse_temporal(SHARED_ID_TEXT)
    seen = objects_by_id(stream)
    assert sorted(seen) == [7, 700, 701, 900, 901]
    assert all(len(objs) == 1 for objs in seen.values()), seen


@pytest.mark.parametrize(
    "cls, config",
    [(RandomWalkMwm, RandomConfig()), (LevelMwm, LevelConfig(epsilon=0.1))],
    ids=["walk", "level"],
)
def test_replay_keeps_the_parsed_vertex_objects(cls, config):
    stream = parse_temporal(SHARED_ID_TEXT)
    shared = {x: next(iter(objs)) for x, objs in objects_by_id(stream).items()}
    algo = cls(DynamicGraph(stream.n), config, 1)
    replay(stream, algo)
    graph = algo.graph
    for x in shared:
        assert all(id(y) == shared[y] for y in graph._adj[x]), x
    mates = (
        algo.state._mate
        if isinstance(algo, RandomWalkMwm)
        else algo._view._mate
    )
    matched = [m for m in mates if m != FREE]
    assert matched
    assert all(id(m) == shared[m] for m in matched)


# -- generators ----------------------------------------------------------------


def test_gen_insertion_stream_is_deterministic():
    edges = [(0, 1, 5), (1, 2, 4), (2, 3, 3)]
    a = gen_insertion_stream(4, edges, seed=9)
    b = gen_insertion_stream(4, edges, seed=9)
    assert [(o.u, o.v, o.w) for o in a.ops] == [(o.u, o.v, o.w) for o in b.ops]
    assert len(a.ops) == 3
    assert all(o.kind == INSERT for o in a.ops)


def test_gen_insertion_stream_seeds_give_permutations():
    edges = [(i, i + 1, 10 + i) for i in range(8)]
    a = gen_insertion_stream(9, edges, seed=1)
    b = gen_insertion_stream(9, edges, seed=2)
    assert sorted((o.u, o.v, o.w) for o in a.ops) == sorted(
        (o.u, o.v, o.w) for o in b.ops
    )
    assert [(o.u, o.v) for o in a.ops] != [(o.u, o.v) for o in b.ops]


def test_generated_weights_uniform_by_chi_squared():
    edges = [(0, 1, None)] * 0  # built below; distinct endpoints irrelevant
    # One big stream with 10^5 unweighted edges on a huge vertex set.
    edges = [(2 * i, 2 * i + 1, None) for i in range(100_000)]
    stream = gen_insertion_stream(200_000, edges, seed=31)
    counts = [0] * 101
    for op in stream.ops:
        counts[op.w] += 1
    expected = 100_000 / 100
    chi2 = sum((counts[k] - expected) ** 2 / expected for k in range(1, 101))
    # 99.9th percentile of chi-squared with 99 dof is about 148.2.
    assert chi2 < 148.2


def test_undo_zero_percent_is_identity():
    stream = gen_insertion_stream(4, [(0, 1, 5), (2, 3, 4)], seed=1)
    out = gen_undo_suffix(stream, 0, seed=2)
    assert [(o.kind, o.u, o.v, o.w) for o in out.ops] == [
        (o.kind, o.u, o.v, o.w) for o in stream.ops
    ]


def test_undo_ten_percent_of_ten_ops_deletes_the_last_insert():
    edges = [(i, i + 1, i + 1) for i in range(10)]
    stream = gen_insertion_stream(11, edges, seed=5)
    out = gen_undo_suffix(stream, 10, seed=6)
    assert len(out.ops) == 11
    last, tail = stream.ops[-1], out.ops[-1]
    assert tail.kind == DELETE
    assert (tail.u, tail.v) == (last.u, last.v)


def test_undo_of_a_delete_reinserts_with_fresh_weight():
    ops = [
        UpdateOp(INSERT, 0, 1, 7, 0),
        UpdateOp(DELETE, 0, 1, None, 1),
    ]
    stream = UpdateStream(n=2, ops=ops)
    out = gen_undo_suffix(stream, 50, seed=12)
    assert len(out.ops) == 3
    tail = out.ops[-1]
    assert tail.kind == INSERT and (tail.u, tail.v) == (0, 1)
    assert 1 <= tail.w <= 100


def test_undo_full_reversal_empties_the_graph():
    edges = [(i, j, None) for i in range(5) for j in range(i + 1, 5)]
    stream = gen_undo_suffix(gen_insertion_stream(5, edges, seed=8), 100, seed=9)
    assert final_graph(stream).edge_count() == 0


def test_undo_percent_out_of_range():
    stream = gen_insertion_stream(2, [(0, 1, 5)], seed=1)
    with pytest.raises(ValueError):
        gen_undo_suffix(stream, -1, seed=0)
    with pytest.raises(ValueError):
        gen_undo_suffix(stream, 101, seed=0)


def test_gen_streams_always_replayable():
    # Fuzz: random edge sets, random undo fractions; replay must never hit a
    # precondition error.
    rng = random.Random(606)
    for trial in range(1000):
        n = rng.randint(2, 9)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        m = rng.randint(0, len(pool))
        edges = [
            (u, v, rng.randint(1, 100) if rng.random() < 0.5 else None)
            for u, v in pool[:m]
        ]
        stream = gen_insertion_stream(n, edges, seed=trial)
        stream = gen_undo_suffix(stream, rng.choice((0, 10, 25, 50, 100)), seed=trial)
        replay(stream, walk_algo(stream, 0))


# -- replay --------------------------------------------------------------------


def test_replay_empty_stream():
    stream = UpdateStream(n=4, ops=[])
    algo = walk_algo(stream, 1)
    assert replay(stream, algo) == (0.0, 0.0)
    assert algo.weight == 0


def test_replay_single_insert():
    stream = UpdateStream(n=2, ops=[UpdateOp(INSERT, 0, 1, 5, 0)])
    algo = walk_algo(stream, 1)
    replay(stream, algo)
    assert algo.weight == 5
    assert algo.matched_pairs() == [(0, 1)]


def test_replay_error_names_the_offending_op():
    bad_delete = UpdateStream(n=2, ops=[UpdateOp(DELETE, 0, 1, None, 0)])
    with pytest.raises(ReplayError, match=r"op 0"):
        replay(bad_delete, walk_algo(bad_delete, 1))
    dup = UpdateStream(
        n=2,
        ops=[UpdateOp(INSERT, 0, 1, 5, 0), UpdateOp(INSERT, 1, 0, 7, 1)],
    )
    with pytest.raises(ReplayError, match=r"op 1"):
        replay(dup, walk_algo(dup, 1))


def corrupt_after(k, corrupt, stream):
    """A RandomWalkMwm for ``stream`` whose insert handler runs
    ``corrupt(algo)`` after handling op ``k`` of an insert-only stream."""
    algo = walk_algo(stream, 1)
    handle = algo.handle_insert

    def handle_insert(u, v, w):
        handle(u, v, w)
        if algo.graph.edge_count() == k + 1:
            corrupt(algo)

    algo.handle_insert = handle_insert
    return algo


def drift_weight(algo):
    algo.state.total_weight += 1


def retag_pair_0_1(algo):
    algo.state._mw[0] = algo.state._mw[1] = 9  # vertices the last op did not touch


@pytest.mark.parametrize(
    "k, corrupt, message",
    [
        (1, drift_weight, r"^op 1: weight drift"),
        (2, drift_weight, r"^op 2: weight drift"),
        # Only a deep audit sees a pair the last op did not touch.
        (2, retag_pair_0_1, r"^after the last op: .*stored weight"),
    ],
    ids=["op-1", "last-op", "tail"],
)
def test_replay_audit_failure_names_the_op(k, corrupt, message):
    stream = UpdateStream(
        n=6,
        ops=[UpdateOp(INSERT, 2 * i, 2 * i + 1, 5 + i, i) for i in range(3)],
    )
    with pytest.raises(MatchingCorruptionError, match=message) as exc:
        replay(stream, corrupt_after(k, corrupt, stream), audit=True)
    assert isinstance(exc.value.__cause__, MatchingCorruptionError)


def test_replay_deterministic_under_fixed_seed():
    edges = [(i, j, None) for i in range(10) for j in range(i + 1, 10)]
    stream = gen_undo_suffix(
        gen_insertion_stream(10, edges[:30], seed=2), 25, seed=3
    )
    algos = [walk_algo(stream, 123, num_walks=3) for _ in range(2)]
    for algo in algos:
        replay(stream, algo, audit=True)
    assert algos[0].matched_pairs() == algos[1].matched_pairs()
    assert algos[0].weight == algos[1].weight
    assert algos[0].walks_run == algos[1].walks_run


def test_replay_times_the_level_merge(monkeypatch):
    # LevelMwm merges its levels on the first read after an update; replay
    # reads the weight inside the timed region, so the merge is timed.
    stream = gen_insertion_stream(
        8, [(i, i + 1, 10 * (i + 1)) for i in range(7)], seed=4
    )
    refresh = LevelMwm._refresh

    def slow_refresh(self):
        time.sleep(0.005)
        refresh(self)

    monkeypatch.setattr(LevelMwm, "_refresh", slow_refresh)
    total_time, max_op_time = replay(
        stream, LevelMwm(DynamicGraph(stream.n), LevelConfig(), 1)
    )
    assert total_time >= 0.005 * len(stream.ops)
    assert max_op_time >= 0.005


# -- audits ------------------------------------------------------------------

AUDITED_ALGOS = {
    "random": (RandomWalkMwm, RandomConfig()),
    "level": (LevelMwm, LevelConfig()),
}


def audited_algo(name):
    """Three disjoint matched edges, each insert audited."""
    g = DynamicGraph(6)
    cls, config = AUDITED_ALGOS[name]
    algo = cls(g, config, 3)
    for u, v, w in ((0, 1, 5), (2, 3, 4), (4, 5, 6)):
        g.insert_edge(u, v, w)
        algo.handle_insert(u, v, w)
        algo.audit()
    assert algo.matched_pairs() == [(0, 1), (2, 3), (4, 5)]
    return g, algo


def exposed_state(algo):
    """The MatchingState behind ``weight`` and ``matched_pairs()``."""
    return algo.state if algo.name == "random" else algo._view


@pytest.mark.parametrize("name", sorted(AUDITED_ALGOS))
def test_shallow_audit_flags_matched_edge_deleted_behind_the_back(name):
    g, algo = audited_algo(name)
    g.delete_edge(2, 3)  # the algorithm is never told
    with pytest.raises(MatchingCorruptionError, match="not an edge"):
        algo.audit()


@pytest.mark.parametrize("name", sorted(AUDITED_ALGOS))
def test_shallow_audit_flags_weight_drift(name):
    _g, algo = audited_algo(name)
    exposed_state(algo).total_weight += 1
    assert algo.weight == 16
    with pytest.raises(MatchingCorruptionError, match="weight drift"):
        algo.audit()


@pytest.mark.parametrize("name", sorted(AUDITED_ALGOS))
def test_deep_audit_flags_tampering_the_op_did_not_touch(name):
    g, algo = audited_algo(name)
    state = exposed_state(algo)
    state._mw[0] = state._mw[1] = 9
    g.delete_edge(4, 5)
    algo.handle_delete(4, 5)
    algo.audit()  # shallow: vertices 0 and 1 were not touched
    with pytest.raises(MatchingCorruptionError, match="stored weight"):
        algo.audit(deep=True)


@pytest.mark.parametrize("name", sorted(AUDITED_ALGOS))
def test_deep_audit_names_what_it_catches_at_an_untouched_vertex(name):
    g, algo = audited_algo(name)
    g.delete_edge(4, 5)
    algo.handle_delete(4, 5)
    algo.audit()  # shallow: vertices 4 and 5 are verified free
    state = exposed_state(algo)
    state._mate[4] = 0  # one-sided: mate[0] is still 1
    with pytest.raises(MatchingCorruptionError, match=r"out of sync at vertex 4\b"):
        algo.audit(deep=True)
    state._mate[4] = FREE
    state._mw[4] = 6  # a weight no mate records
    with pytest.raises(
        MatchingCorruptionError, match=r"a weight stored at free vertex 4\b"
    ):
        algo.audit(deep=True)
    state._mw[4] = 0
    state._mw[1] = 4  # its mate 0 still stores 5
    with pytest.raises(
        MatchingCorruptionError,
        match=r"vertices 0 and 1 are mates but store different weights 5 and 4",
    ):
        algo.audit(deep=True)


def test_every_deep_audit_raises_matching_corruption():
    g, algo = audited_algo("level")
    algo.adjacency.insert(0, 2, 0)  # behind the algorithm's back
    with pytest.raises(MatchingCorruptionError, match="membership"):
        algo.audit(deep=True)


def test_replay_runs_a_deep_audit_after_the_last_op(monkeypatch):
    calls = []

    def spying_algo(stream):
        algo = walk_algo(stream, 1)
        audit = algo.audit

        def spy(deep=False):
            calls.append(deep)
            audit(deep=deep)

        algo.audit = spy
        return algo

    edges = [(i, i + 1, 10 + i) for i in range(7)]
    stream = gen_insertion_stream(8, edges, seed=5)
    monkeypatch.setattr(replay_mod, "DEEP_AUDIT_EVERY", 5)
    replay(stream, spying_algo(stream), audit=True)
    assert calls == [True, False, False, False, False, True, False, True]
    calls.clear()
    monkeypatch.setattr(replay_mod, "DEEP_AUDIT_EVERY", 7)
    replay(stream, spying_algo(stream), audit=True)
    assert calls == [True] + [False] * 6 + [True]


def test_rep_seed_distinct_per_repetition():
    seeds = {rep_seed(42, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert rep_seed(43, 0) not in seeds


RESULT_HEADER = [
    "instance", "algorithm", "config", "seed", "repetition", "n", "num_ops",
    "final_weight", "opt_weight", "total_time", "mean_op_time", "max_op_time",
    "successes", "failures", "opt_ratio",
]


def test_cli_run_rows_and_ratio_formatting(tmp_path, capsys):
    # cmd_run names the CSV columns; this pins their order and cell formats.
    stream = gen_insertion_stream(6, [(0, 1, 8), (2, 3, 6), (4, 5, 4)], seed=7)
    path = tmp_path / "toy.stream"
    path.write_text(format_stream(stream))
    for opt in ("18", "none"):
        csv_file = tmp_path / f"results-{opt}.csv"
        assert main([
            "run", "--input", str(path), "--algo", "random", "--seed", "5",
            "--reps", "3", "--opt", opt, "--out", str(csv_file),
        ]) == 0
        with csv_file.open(newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == RESULT_HEADER
        assert [r["repetition"] for r in rows] == ["0", "1", "2"]
        assert [r["seed"] for r in rows] == ["5000", "5001", "5002"]
        assert all(r["final_weight"] == "18" for r in rows)  # disjoint edges
        (instance,) = {r["instance"] for r in rows}
        assert re.fullmatch(r"toy\.stream@[0-9a-f]{8}", instance)
        if opt == "18":
            assert {(r["opt_weight"], r["opt_ratio"]) for r in rows} == {
                ("18.0", "1.000000")
            }
        else:
            assert {(r["opt_weight"], r["opt_ratio"]) for r in rows} == {("", "")}
    capsys.readouterr()


# -- aggregation -----------------------------------------------------------------


def test_geometric_mean_matches_log_domain_reference():
    rng = random.Random(17)
    values = [rng.uniform(0.1, 1000.0) for _ in range(200)]
    ref = math.exp(sum(math.log(v) for v in values) / len(values))
    assert abs(geometric_mean(values) - ref) <= 1e-9 * ref
    assert geometric_mean([7.0]) == pytest.approx(7.0, rel=1e-12)


def test_geometric_mean_rejects_bad_inputs():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([2.0, -1.0])


def row(instance, algorithm, final_weight, opt_weight, config="eps=1"):
    return {
        "instance": instance,
        "algorithm": algorithm,
        "config": config,
        "final_weight": final_weight,
        "opt_weight": opt_weight,
    }


def at(profile, column, *taus):
    """The profile's fractions for ``column`` at the grid points ``taus``."""
    return [profile.fractions[column][TAUS.index(t)] for t in taus]


def test_perf_profile_exact_run_scores_one_everywhere():
    profile = perf_profile([row("a", "algo", 357, 357)])
    assert profile.fractions["algo [eps=1]"] == [1.0] * len(TAUS)
    assert profile.instances["algo [eps=1]"] == 1
    assert profile.skipped_no_opt == 0


def test_perf_profile_counts_fraction_at_each_tau():
    rows = [row("a", "algo", 90, 100), row("b", "algo", 80, 100)]
    profile = perf_profile(rows)
    assert at(profile, "algo [eps=1]", 0.75, 0.85, 0.95) == [1.0, 0.5, 0.0]


def test_perf_profile_fractions_non_increasing_in_tau():
    rng = random.Random(23)
    rows = [
        row(f"i{k}", algo, rng.uniform(50, 100), 100)
        for k in range(40)
        for algo in ("x", "y")
    ]
    profile = perf_profile(rows)
    for fracs in profile.fractions.values():
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_perf_profile_collapses_repetitions_by_geometric_mean():
    rows = [row("a", "algo", w, 100) for w in (80, 90)]  # same instance
    profile = perf_profile(rows)
    gm = geometric_mean([80, 90]) / 100  # about 0.8485
    assert profile.instances["algo [eps=1]"] == 1
    assert at(profile, "algo [eps=1]", 0.84, 0.85) == [1.0, 0.0]
    assert gm >= 0.84 and gm < 0.85


def test_perf_profile_skips_rows_without_opt():
    rows = [row("a", "algo", 90, 100), row("b", "algo", 90, ""), row("c", "algo", 9, None)]
    profile = perf_profile(rows)
    assert profile.skipped_no_opt == 2
    assert profile.instances["algo [eps=1]"] == 1


def test_perf_profile_refuses_two_opts_for_one_instance():
    # One static list shuffled with two seeds is two graphs; filed under one
    # instance name, the second OPT used to overwrite the first.
    rows = [row("u.graph", "random", 162, 209), row("u.graph", "random", 135, 150)]
    with pytest.raises(ValueError) as exc:
        perf_profile(rows)
    assert "results rows 1 and 2 give instance 'u.graph' two OPT values" in str(
        exc.value
    )


def test_perf_profile_keeps_two_configs_of_one_algorithm_apart():
    # Two configs of one algorithm are two columns, not two repetitions of
    # one run pooled into a curve that matches neither.
    rows = [
        row("a", "level-walk", 100, 100, config="eps=0.1,mcm=walk"),
        row("a", "level-walk", 85, 100, config="eps=2,mcm=walk"),
    ]
    profile = perf_profile(rows)
    assert sorted(profile.fractions) == [
        "level-walk [eps=0.1,mcm=walk]", "level-walk [eps=2,mcm=walk]"
    ]
    assert at(profile, "level-walk [eps=0.1,mcm=walk]", 0.8, 0.9) == [1.0, 1.0]
    assert at(profile, "level-walk [eps=2,mcm=walk]", 0.8, 0.9) == [1.0, 0.0]
    rows[1].pop("config")
    with pytest.raises(ValueError, match="results row 2 has no 'config' column"):
        perf_profile(rows)


def test_perf_profile_tsv_shape():
    rows = [row("a", "beta", 90, 100), row("a", "alpha", 70, 100)]
    text = perf_profile(rows).to_tsv()
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(TAUS)
    assert lines[0].split("\t") == ["tau", "alpha [eps=1]", "beta [eps=1]"]
    assert lines[1 + TAUS.index(0.8)].split("\t") == ["0.8000", "0.0000", "1.0000"]
    assert lines[1 + TAUS.index(0.95)].split("\t") == ["0.9500", "0.0000", "0.0000"]


def test_perf_profile_refuses_a_weight_above_its_opt():
    # No matching outweighs OPT: such a row used to score 1.0 at every tau.
    rows = [row("a", "algo", 90, 100), row("b", "algo", 668, 1)]
    with pytest.raises(ValueError, match="results row 2: final_weight 668 exceeds"):
        perf_profile(rows)
    # Float rounding is not a heavier matching.
    profile = perf_profile([row("a", "algo", 0.1 + 0.2, 0.3)])
    assert at(profile, "algo [eps=1]", 1.0) == [1.0]


# -- CLI ----------------------------------------------------------------------


@pytest.fixture()
def static_file(tmp_path):
    path = tmp_path / "toy.graph"
    path.write_text("6\n0 1 8\n2 3 6\n4 5 4\n1 2 2\n")
    return path


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "toy.stream"
    path.write_text("# n=6\n0 1 8 0 +\n2 3 6 1 +\n4 5 4 2 +\n1 2 2 3 +\n")
    return path


def test_cli_gen_then_run_round_trip(tmp_path, static_file, capsys):
    stream_file = tmp_path / "toy.stream"
    assert main([
        "gen", "--input", str(static_file), "--seed", "3",
        "--undo-percent", "25", "--out", str(stream_file),
    ]) == 0
    text = stream_file.read_text()
    assert text.startswith("# n=6\n")

    csv_file = tmp_path / "results.csv"
    code = main([
        "run", "--input", str(stream_file), "--algo", "random",
        "--seed", "5", "--reps", "2", "--audit", "--out", str(csv_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "geo-mean weight" in out
    assert "OPT" in out
    with csv_file.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert re.fullmatch(r"toy\.stream@[0-9a-f]{8}", rows[0]["instance"])
    assert rows[0]["algorithm"] == "random"
    assert float(rows[0]["opt_ratio"]) <= 1.0


def readme_block(heading, lang):
    """The first ``lang`` code block after the README's ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_cli_commands():
    """The argv of each ``dynmatch`` command in the README's CLI example,
    the first sh block after its "## CLI" heading."""
    block = readme_block("CLI", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dynmatch ")]


def test_readme_cli_example_runs_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == ["gen", "run", "run", "profile"]
    for argv in commands:
        assert main(argv) == 0, argv
    # profile compares the two configs that wrote rows, one line per tau
    # in 0.50, 0.51, ..., 1.00.
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("tau\tlevel-bfs [eps=0.5,mcm=bfs]\trandom [eps=1,walks=5]")
    assert len(lines) - header - 1 == 51


def test_readme_library_quickstart_runs(capsys):
    # The first python block after the README's "## Library quickstart"
    # heading, as it stands; it ends on a deep audit.
    code = readme_block("Library quickstart", "python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "10 [(0, 1), (3, 4)]\n"


def test_cli_run_all_algorithms(stream_file, tmp_path):
    for algo in ("random", "level-walk", "level-bfs"):
        assert main([
            "run", "--input", str(stream_file), "--algo", algo,
            "--seed", "2", "--reps", "1",
        ]) == 0


def test_cli_run_level_flags(stream_file, capsys):
    # --epsilon configures whichever algorithm runs.
    cases = (("level-bfs", "0.1", "bfs"), ("level-walk", "0.5", "walk"))
    for algo, epsilon, kind in cases:
        assert main([
            "run", "--input", str(stream_file), "--algo", algo,
            "--seed", "2", "--reps", "1", "--epsilon", epsilon,
        ]) == 0
        assert f"{algo} [eps={epsilon},mcm={kind}]" in capsys.readouterr().out


def test_cli_mcm_flag_contradiction_rejected(stream_file):
    # --algo and --epsilon alone configure the per-level subroutine;
    # there are no flags to set it apart from them.
    for flags in (
        ["--mcm", "bfs"],
        ["--mcm-epsilon", "0.5"],
        ["--safe-mode"],
        ["--mcm-depth-unbounded"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--input", str(stream_file), "--algo", "level-bfs",
                "--reps", "1", *flags,
            ])
        assert exc.value.code == 2, flags


def test_cli_opt_flag_forms(stream_file, capsys):
    assert main([
        "run", "--input", str(stream_file), "--algo", "random",
        "--seed", "1", "--reps", "1", "--opt", "18",
    ]) == 0
    assert "ratio" in capsys.readouterr().out
    assert main([
        "run", "--input", str(stream_file), "--algo", "random",
        "--seed", "1", "--reps", "1", "--opt", "none",
    ]) == 0
    assert "ratio" not in capsys.readouterr().out


@pytest.mark.parametrize("opt", ["none", "18", "auto"])
def test_cli_solves_the_final_graph_once_only_for_opt_auto(tmp_path, monkeypatch, opt):
    # Only --opt auto solves, and once over all repetitions, on the graph the
    # whole stream, undo suffix included, leaves behind.
    text = "# n=6\n0 1 8 0 +\n2 3 6 1 +\n4 5 4 2 +\n1 2 2 3 +\n1 2 0 4 -\n0 1 0 5 -\n"
    path = tmp_path / "undo.stream"
    path.write_text(text)
    final = {}
    for op in parse_temporal(text).ops:
        if op.kind == INSERT:
            final[op.u, op.v] = op.w
        else:
            del final[op.u, op.v]
    solved = []
    solve = cli_mod.exact_mwm

    def spy(graph):
        solved.append(sorted(graph.edges()))
        return solve(graph)

    monkeypatch.setattr(cli_mod, "exact_mwm", spy)
    assert main([
        "run", "--input", str(path), "--algo", "random",
        "--reps", "3", "--opt", opt,
    ]) == 0
    assert solved == [sorted((u, v, w) for (u, v), w in final.items())] * (opt == "auto")


RUN = ["run", "--input", "{input}", "--reps", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(RUN + ["--algo", "level-walk", "--epsilon", "0"],
                     id="level-epsilon-zero"),
        pytest.param(RUN + ["--algo", "level-walk", "--epsilon", "0.05"],
                     id="level-epsilon-small"),
        pytest.param(RUN + ["--algo", "level-walk", "--epsilon", "0.05",
                            "--allow-small-epsilon"],
                     id="allow-small-epsilon-removed"),
        pytest.param(RUN + ["--algo", "random", "--walks", "0"],
                     id="walks-zero"),
        pytest.param(RUN + ["--algo", "random", "--epsilon", "nan"],
                     id="epsilon-nan"),
        pytest.param(RUN + ["--algo", "random", "--epsilon", "inf"],
                     id="epsilon-inf"),
        pytest.param(RUN + ["--algo", "random", "--epsilon", "1e-320"],
                     id="epsilon-tiny"),
        pytest.param(RUN + ["--algo", "level-walk", "--epsilon", "inf"],
                     id="level-epsilon-inf"),
        pytest.param(RUN + ["--algo", "level-walk", "--epsilon", "1e-320"],
                     id="level-epsilon-tiny"),
        pytest.param(RUN + ["--algo", "level-walk", "--level-epsilon", "0.5"],
                     id="level-epsilon-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--beta", "3"],
                     id="beta-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--temporal"],
                     id="temporal-flag-removed"),
        pytest.param(RUN + ["--algo", "oracle"], id="oracle-algo-removed"),
        pytest.param(RUN + ["--algo", "random", "--oracle-interval", "5"],
                     id="oracle-interval-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--theorem-mode"],
                     id="theorem-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--label", "x"],
                     id="label-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--no-stop-early"],
                     id="stop-early-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--stop-early"],
                     id="stop-early-on-removed"),
        # --walks configures the random-walk matcher only.
        pytest.param(RUN + ["--algo", "level-walk", "--walks", "7"],
                     id="walks-with-level"),
        pytest.param(RUN + ["--algo", "random", "--opt", "foo"],
                     id="opt-word"),
        pytest.param(RUN + ["--algo", "random", "--opt", "nan"], id="opt-nan"),
        pytest.param(RUN + ["--algo", "random", "--opt", "-5"],
                     id="opt-negative"),
        pytest.param(RUN + ["--algo", "random", "--opt", "1e-320"],
                     id="opt-subnormal"),
        pytest.param(RUN + ["--algo", "random", "--opt", "0.5"],
                     id="opt-below-one"),
        # The toy stream's matchings weigh at least 8.
        pytest.param(RUN + ["--algo", "random", "--opt", "1"],
                     id="impossible-opt"),
        pytest.param(RUN + ["--algo", "random", "--reps", "0"],
                     id="reps-zero"),
        # Repetition 1000 of seed 1 would be repetition 0 of seed 2.
        pytest.param(RUN + ["--algo", "random", "--reps", "1001"],
                     id="reps-above-1000"),
        pytest.param(["gen", "--random", "10", "20", "--undo-percent", "150"],
                     id="undo-percent-above-100"),
        pytest.param(RUN + ["--algo", "random", "--undo-percent", "25"],
                     id="run-undo-percent-flag-removed"),
        pytest.param(RUN + ["--algo", "random", "--input", "no-such.graph"],
                     id="input-missing"),
        pytest.param(["gen", "--random", "2000000", "3"],
                     id="gen-random-n-above-ceiling"),
        pytest.param(["gen", "--random", "1000000", "20000000"],
                     id="gen-random-m-above-ceiling"),
        pytest.param(["gen", "--random", "10", "-5"], id="gen-random-m-negative"),
        pytest.param(["profile", "--results", "no-such.csv"],
                     id="profile-results-missing"),
        # profile has no --tau-grid: it always scores 0.50:1.00:0.01.
        pytest.param(["profile", "--results", "{input}", "--tau-grid", "2"],
                     id="profile-tau-above-1"),
        pytest.param(["profile", "--results", "{input}"],
                     id="profile-results-no-algorithm-column"),
        pytest.param(["profile", "--results", "{bad_weight}"],
                     id="profile-results-weight-not-a-number"),
        pytest.param(RUN + ["--algo", "random", "--out", "{unwritable}"],
                     id="run-out-unwritable"),
        pytest.param(["gen", "--random", "10", "20", "--out", "{unwritable}"],
                     id="gen-out-unwritable"),
        pytest.param(["profile", "--results", "{results}", "--out", "{unwritable}"],
                     id="profile-out-unwritable"),
    ],
)
def test_cli_bad_arguments_exit_2(
    stream_file, tmp_path, capsys, argv
):
    # A bad argument is a usage error: exit 2 with a one-line message, raised
    # before any replay starts, or for an --opt a repetition outweighs, before
    # that repetition prints its line.
    header = "instance,algorithm,config,final_weight,opt_weight\n"
    paths = {
        "{input}": stream_file,
        "{results}": tmp_path / "results.csv",
        "{bad_weight}": tmp_path / "bad_weight.csv",
        "{unwritable}": tmp_path / "no-such-dir" / "out",
    }
    paths["{results}"].write_text(header + "toy,random,eps=1,9,10\n")
    paths["{bad_weight}"].write_text(
        header + "toy,random,eps=1,9,10\ntoy,random,eps=1,heavy,10\n"
    )
    with pytest.raises(SystemExit) as exc:
        main([str(paths.get(a, a)) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert ": error: " in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_usage_errors_name_the_bad_cell_and_path(stream_file, tmp_path, capsys):
    results = tmp_path / "results.csv"
    header = "instance,algorithm,config,final_weight,opt_weight\n"
    results.write_text(header + "toy,random,eps=1,9,10\ntoy,random,eps=1,heavy,10\n")
    with pytest.raises(SystemExit):
        main(["profile", "--results", str(results)])
    assert "results row 2, column 'final_weight': 'heavy'" in capsys.readouterr().err
    results.write_text("instance,final_weight,opt_weight\ntoy,9,10\n")
    with pytest.raises(SystemExit):
        main(["profile", "--results", str(results)])
    assert "results row 1 has no 'algorithm' column" in capsys.readouterr().err
    results.write_text(
        header + "u.graph,random,eps=1,162,209\nu.graph,random,eps=1,135,150\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--results", str(results)])
    assert exc.value.code == 2
    assert "results rows 1 and 2 give instance 'u.graph'" in capsys.readouterr().err
    results.write_text(header + "toy,random,eps=1,668,1\n")
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--results", str(results)])
    assert exc.value.code == 2
    assert "results row 1: final_weight 668 exceeds its opt_weight 1" in (
        capsys.readouterr().err
    )
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--input", str(stream_file), "--algo", "random", "--reps", "1",
            "--opt", "1", "--out", str(results),
        ])
    assert exc.value.code == 2
    assert "--opt 1 is below repetition 0's weight 18" in capsys.readouterr().err
    assert results.read_text() == header + "toy,random,eps=1,668,1\n"
    with pytest.raises(SystemExit):
        main([
            "run", "--input", str(stream_file), "--algo", "random",
            "--out", str(tmp_path / "no-such-dir" / "results.csv"),
        ])
    assert "cannot write --out: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "before",
    [
        pytest.param(None, id="absent"),
        pytest.param(b"", id="empty"),
        pytest.param(b"instance,final_weight\r\ntoy,9\r\n", id="with-rows"),
    ],
)
def test_cli_run_exit_2_leaves_out_as_found(stream_file, tmp_path, before):
    # The toy stream's matchings weigh at least 8, so --opt 1 exits 2 after
    # the first replay: an absent --out stays absent, an existing one
    # byte-identical.
    out = tmp_path / "results.csv"
    if before is not None:
        out.write_bytes(before)
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--input", str(stream_file), "--algo", "random", "--reps", "1",
            "--opt", "1", "--out", str(out),
        ])
    assert exc.value.code == 2
    if before is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == before


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.stream"
    bad.write_text("0 1 0 0 +\n")  # weights below 1 are refused
    assert main(["run", "--input", str(bad), "--algo", "random"]) == 2


def test_cli_opt_auto_beyond_oracle_limits_warns_and_runs(tmp_path, capsys):
    # --opt auto skips OPT with a warning when the final graph is beyond the
    # exact solver's limits: a 30-vertex cycle is one component over the
    # 20-vertex cap.  The run itself goes on, with no ratio.
    big = tmp_path / "big.stream"
    big.write_text("".join(f"{i} {(i + 1) % 30} 5 {i} +\n" for i in range(30)))
    code = main(["run", "--input", str(big), "--algo", "random", "--reps", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning: skipping OPT: " in captured.err
    assert "exceeds oracle limits" in captured.err
    assert "ratio" not in captured.out


def test_cli_temporal_cleaning_leaves_runnable_stream(tmp_path, capsys):
    # Absent deletes and duplicate inserts are cleaned at parse time, so the
    # replayed stream stays valid; the cleaning is reported on stderr.
    messy = tmp_path / "messy.stream"
    messy.write_text("# n=3\n0 1 0 0 -\n0 1 5 1 +\n0 1 6 2 +\n1 2 4 3 +\n")
    assert main([
        "run", "--input", str(messy), "--algo", "random",
        "--seed", "1", "--reps", "1",
    ]) == 0
    captured = capsys.readouterr()
    assert "cleaned temporal input" in captured.err


@pytest.mark.parametrize("algo", ["random", "level-walk"])
@pytest.mark.parametrize("record", ["0 1 inf 0 +", "0 1 nan 0 +", "0 1 3 nan +"])
def test_cli_non_finite_temporal_input_exits_2(tmp_path, capsys, algo, record):
    bad = tmp_path / "bad.stream"
    bad.write_text(f"{record}\n1 2 4 1 +\n0 2 5 2 +\n")
    code = main([
        "run", "--input", str(bad), "--algo", algo,
        "--seed", "1", "--reps", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: line 1: non-finite" in captured.err
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "algo, text",
    [
        ("level-walk", "0 1 1.7e308 0 +\n"),
        ("level-walk", f"0 1 {10**400} 0 +\n"),
        ("random", "0 1 1.7e308 0 +\n2 3 1.7e308 1 +\n"),
    ],
    ids=["level-walk-float", "level-walk-401-digits", "random-two-edges"],
)
def test_cli_weight_above_ceiling_exits_2(tmp_path, capsys, algo, text):
    # Each used to end in an OverflowError traceback or a weight=inf, ratio=nan
    # row with exit 0.
    big = tmp_path / "big.stream"
    big.write_text(text)
    code = main(["run", "--input", str(big), "--algo", algo, "--reps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: line 1: weight" in captured.err
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["run", "--algo", "level-walk", "--reps", "1"],
         f"0 1 5 0 +\n0 {10**12} 5 1 +\n", "error: line 2: vertex id"),
        (["gen"], f"{10**12}\n0 1 5\n", "error: line 1: vertex count"),
    ],
    ids=["temporal-id", "static-count"],
)
def test_cli_vertex_count_above_ceiling_exits_2(tmp_path, capsys, argv, text, message):
    bad = tmp_path / "big.input"
    bad.write_text(text)
    code = main([*argv, "--input", str(bad), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text, n, num_ops",
    [
        pytest.param(None, 6, 5, id="gen-output"),
        pytest.param("0 1 5 0 +\n1 2 4 1\n0 1 0 2 -\n", 3, 3,
                     id="temporal-without-hint"),
        pytest.param("# n=7\n", 7, 0, id="hint-only"),
        pytest.param("\n# nothing here\n", None, None, id="empty"),
    ],
)
def test_cli_run_reads_the_input_format_from_the_text(
    tmp_path, static_file, capsys, text, n, num_ops
):
    # run reads temporal streams only; n comes from the '# n=K' hint or the
    # largest id, and a file with neither is empty.
    path = tmp_path / "input.txt"
    if text is None:
        assert main([
            "gen", "--input", str(static_file), "--seed", "3",
            "--undo-percent", "25", "--out", str(path),
        ]) == 0
    else:
        path.write_text(text)
    csv_file = tmp_path / "results.csv"
    code = main([
        "run", "--input", str(path), "--algo", "random", "--reps", "1",
        "--out", str(csv_file),
    ])
    captured = capsys.readouterr()
    if n is None:
        assert code == 2
        assert "error: line 1: empty input" in captured.err
        return
    assert code == 0
    with csv_file.open(newline="") as fh:
        (result,) = csv.DictReader(fh)
    assert (int(result["n"]), int(result["num_ops"])) == (n, num_ops)


def test_cli_run_refuses_a_static_edge_list(static_file, capsys):
    # Only gen shuffles a static list into a stream; run would otherwise
    # score a different graph for every --seed under one instance name.
    code = main(["run", "--input", str(static_file), "--algo", "random"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: line 1: expected 'u v w ts [op]'" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_gen_reports_skipped_edge_list_lines(tmp_path, capsys):
    edges = tmp_path / "messy.graph"
    edges.write_text("3\n0 1 5\n2 2 7\n1 0 4\n1 2\n")
    out = tmp_path / "messy.stream"
    assert main(["gen", "--input", str(edges), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: skipped lines in edge list: " in err
    assert "'self_loops': 1, 'duplicates': 1" in err
    assert len(parse_temporal(out.read_text()).ops) == 2


def test_cli_seed_defaults_to_1(stream_file, tmp_path):
    csv_file = tmp_path / "results.csv"
    assert main([
        "run", "--input", str(stream_file), "--algo", "random", "--reps", "2",
        "--out", str(csv_file),
    ]) == 0
    with csv_file.open(newline="") as fh:
        assert [r["seed"] for r in csv.DictReader(fh)] == ["1000", "1001"]


def test_cli_profile_subcommand(tmp_path, stream_file, capsys):
    csv_file = tmp_path / "results.csv"
    for algo in ("random", "level-walk"):
        assert main([
            "run", "--input", str(stream_file), "--algo", algo, "--seed", "4",
            "--reps", "2", "--out", str(csv_file),
        ]) == 0
    capsys.readouterr()
    with csv_file.open(newline="") as fh:
        instances = {r["instance"] for r in csv.DictReader(fh)}
    assert len(instances) == 1
    assert re.fullmatch(r"toy\.stream@[0-9a-f]{8}", instances.pop())
    tsv_file = tmp_path / "profile.tsv"
    assert main(["profile", "--results", str(csv_file), "--out", str(tsv_file)]) == 0
    lines = tsv_file.read_text().strip().splitlines()
    assert lines[0].split("\t") == [
        "tau", "level-walk [eps=1,mcm=walk]", "random [eps=1,walks=1]"
    ]
    # The fixed grid 0.50, 0.51, ..., 1.00.
    taus = [line.split("\t")[0] for line in lines[1:]]
    assert taus == [f"{t:.4f}" for t in TAUS]
    assert (taus[0], taus[-1], len(taus)) == ("0.5000", "1.0000", 51)
    for line in lines[1:]:
        for cell in line.split("\t")[1:]:
            assert 0.0 <= float(cell) <= 1.0


def test_cli_profile_keeps_two_streams_of_one_file_name_apart(tmp_path, capsys):
    # One graph (OPT 24) in two insertion orders, both saved as s.stream:
    # the random walk ends at 24 on one and at 17 on the other.  Pooled
    # under the file name they were one instance at ratio 0.84.
    static = tmp_path / "g.graph"
    static.write_text("6\n0 1 10\n1 2 10\n3 4 7\n2 4 10\n1 5 5\n1 3 14\n1 4 10\n")
    csv_file = tmp_path / "results.csv"
    for seed, name in ((1, "a"), (2, "b")):
        (tmp_path / name).mkdir()
        stream = tmp_path / name / "s.stream"
        assert main(["gen", "--input", str(static), "--seed", str(seed), "--out", str(stream)]) == 0
        assert main([
            "run", "--input", str(stream), "--algo", "random", "--reps", "2",
            "--out", str(csv_file),
        ]) == 0
    with csv_file.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_instance = {}
    for r in rows:
        assert r["opt_weight"] == "24"
        by_instance.setdefault(r["instance"], []).append(float(r["final_weight"]))
    assert len(by_instance) == 2
    assert all(re.fullmatch(r"s\.stream@[0-9a-f]{8}", name) for name in by_instance)
    assert sorted(by_instance.values()) == [[17, 17], [24, 24]]
    capsys.readouterr()
    assert main(["profile", "--results", str(csv_file)]) == 0
    fractions = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    # Two instances: one at 17/24 = 0.708, one at 1.
    assert (fractions["0.7000"], fractions["0.7100"], fractions["1.0000"]) == (
        "1.0000", "0.5000", "0.5000"
    )


def test_config_labels_keep_two_epsilons_apart(tmp_path, stream_file, capsys):
    # eps 0.4 and 0.3999999 walk 8 and 9 edges and search 4 and 5 deep, yet
    # both print 0.4 under :g; labels that round-trip keep their :g form.
    for eps, text in (
        (0.4, "0.4"), (0.3999999, "0.3999999"), (1.0, "1"), (0.25, "0.25")
    ):
        assert RandomConfig(epsilon=eps).label() == f"eps={text},walks=1"
        assert LevelConfig(epsilon=eps).label() == f"eps={text},mcm=walk"
    csv_file = tmp_path / "results.csv"
    for eps in ("0.4", "0.3999999"):
        assert main([
            "run", "--input", str(stream_file), "--algo", "random", "--reps", "2",
            "--epsilon", eps, "--out", str(csv_file),
        ]) == 0
    capsys.readouterr()
    assert main(["profile", "--results", str(csv_file)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split("\t") == [
        "tau", "random [eps=0.3999999,walks=1]", "random [eps=0.4,walks=1]"
    ]


def test_cli_gen_random_graph(tmp_path):
    out = tmp_path / "rand.stream"
    assert main([
        "gen", "--random", "10", "20", "--seed", "6", "--out", str(out),
    ]) == 0
    stream = parse_temporal(out.read_text())
    assert stream.n == 10
    assert len(stream.ops) == 20
    assert final_graph(stream).edge_count() == 20
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--random", "3", "99"])  # too many edges to fit
    assert exc.value.code == 2
