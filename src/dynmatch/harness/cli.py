"""Command-line entry point.

Subcommands:
  run      replay a temporal stream file through an algorithm, report
           per-rep results
  gen      shuffle a static edge list or a random graph into a stream file,
           optional undo suffix; no other subcommand builds a stream
  profile  turn a results CSV into a performance-profile TSV over the tau
           grid 0.50, 0.51, ..., 1.00

Seeds default to 1; run --seed seeds only the algorithm's repetitions.

Exit codes: 0 on success, 2 on bad arguments, parse errors, replay errors
or invariant violations found in audit mode.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import random
import sys
from pathlib import Path
from typing import TextIO

from dynmatch.errors import (
    MatchingCorruptionError,
    OracleLimitError,
    ReplayError,
    StreamParseError,
)
from dynmatch.graph import DynamicGraph
from dynmatch.harness.profiles import beats_opt, objective, perf_profile
from dynmatch.harness.replay import MAX_REPS, rep_seed, replay
from dynmatch.harness.streams import (
    MAX_N_HINT,
    UpdateStream,
    format_stream,
    gen_insertion_stream,
    gen_undo_suffix,
    parse_static_edgelist,
    parse_temporal,
)
from dynmatch.levels import LevelConfig, LevelMwm
from dynmatch.oracle import exact_mwm
from dynmatch.random_walk import RandomConfig, RandomWalkMwm

ALGO_CHOICES = ("random", "level-walk", "level-bfs")

# Most edges `gen --random` generates: it holds every edge, the stream and
# its text in memory, a few hundred bytes per edge.
MAX_GEN_EDGES = 10**6


def repetitions(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_REPS:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_REPS}], got {value}")
    return value


def percent(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 100:
        raise argparse.ArgumentTypeError(f"must be in [0, 100], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynmatch",
        description="Dynamic approximate maximum-weight matching benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a stream through an algorithm")
    p_run.add_argument(
        "--input",
        required=True,
        help="temporal stream file, such as gen writes",
    )
    p_run.add_argument("--algo", required=True, choices=ALGO_CHOICES)
    p_run.add_argument("--seed", type=int, default=1, help="repetitions' seed")
    p_run.add_argument(
        "--reps", type=repetitions, default=10, help=f"repetitions, at most {MAX_REPS}"
    )
    p_run.add_argument(
        "--audit",
        action="store_true",
        help="check matching invariants after every op (slow)",
    )
    p_run.add_argument(
        "--opt",
        default="auto",
        help="'auto' solves the final graph exactly (skipped with a warning "
        "beyond oracle limits), 'none' disables ratios, a finite number >= 1 "
        "supplies a precomputed OPT (every weight is at least 1)",
    )
    p_run.add_argument("--out", help="append result rows to this CSV file")
    p_run.add_argument(
        "--epsilon",
        type=float,
        default=1.0,
        help="approximation parameter of the random-walk or level algorithm",
    )

    walk = p_run.add_argument_group("random-walk options")
    walk.add_argument("--walks", type=int, help="walks per campaign (default 1)")

    p_run.set_defaults(func=cmd_run, error=p_run.error)

    p_gen = sub.add_parser("gen", help="generate an update stream file")
    src = p_gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="static edge list to shuffle into a stream")
    src.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("N", "M"),
        help="generate M distinct random edges on N vertices instead",
    )
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument(
        "--undo-percent",
        type=percent,
        default=0.0,
        help="append an undo suffix reverting the last X%% of ops",
    )
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen, error=p_gen.error)

    p_prof = sub.add_parser("profile", help="results CSV -> profile TSV")
    p_prof.add_argument("--results", required=True, help="results CSV from run")
    p_prof.add_argument("--out", help="output path (default: stdout)")
    p_prof.set_defaults(func=cmd_profile, error=p_prof.error)

    return parser


def _read_input(args) -> str:
    try:
        return Path(args.input).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        args.error(f"cannot read --input: {exc}")


def _open_out(args, mode: str) -> TextIO:
    try:
        return open(args.out, mode, newline="")
    except OSError as exc:
        args.error(f"cannot write --out: {exc}")


def _load_stream(args, text: str) -> UpdateStream:
    stream = parse_temporal(text)
    if not stream.n:
        raise StreamParseError(1, "empty input: no '# n=K' hint and no record")
    dropped = {k: v for k, v in stream.warnings.items() if v}
    if dropped:
        print(f"warning: cleaned temporal input: {dropped}", file=sys.stderr)
    return stream


def _algorithm(args) -> tuple[type, RandomConfig | LevelConfig]:
    """Returns (algorithm class, config) for the chosen algorithm; raises
    ValueError on a bad option value."""
    if args.algo == "random":
        walks = 1 if args.walks is None else args.walks
        return RandomWalkMwm, RandomConfig(epsilon=args.epsilon, num_walks=walks)
    if args.walks is not None:
        args.error(f"--walks applies to --algo random only, not {args.algo}")
    return LevelMwm, LevelConfig(
        epsilon=args.epsilon,
        mcm_kind=args.algo.split("-", 1)[1],
    )


def _numeric_opt(args) -> float | None:
    """The --opt value as a number, None for 'auto' and 'none'."""
    if args.opt in ("auto", "none"):
        return None
    try:
        opt = float(args.opt)
    except ValueError:
        opt = math.nan
    if not 1 <= opt < math.inf:
        args.error(
            f"--opt must be 'auto', 'none', or a finite number >= 1, got {args.opt!r}"
        )
    return opt


def cmd_run(args) -> int:
    try:
        cls, config = _algorithm(args)
    except ValueError as exc:
        args.error(str(exc))
    config_label = config.label()
    opt = given_opt = _numeric_opt(args)
    if args.out:
        # Fail on an unwritable path before any replay, not after the last,
        # and leave the path as found until the rows are written.
        out_path = Path(args.out)
        existed = out_path.exists()
        _open_out(args, "a").close()
        if not existed:
            out_path.unlink()
    text = _read_input(args)
    stream = _load_stream(args, text)

    # The text's digest keeps two streams of one file name apart in profile.
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    instance = f"{Path(args.input).name}@{digest}"
    rows = []
    for rep in range(args.reps):
        seed = rep_seed(args.seed, rep)
        algo = cls(DynamicGraph(stream.n), config, seed)
        total_time, max_op_time = replay(stream, algo, audit=args.audit)
        if rep == 0 and args.opt == "auto":
            # Every repetition replays the same stream to this same graph.
            try:
                _, opt = exact_mwm(algo.graph)
            except OracleLimitError as exc:
                print(f"warning: skipping OPT: {exc}", file=sys.stderr)
        weight = algo.weight
        if given_opt is not None and beats_opt(weight, given_opt):
            args.error(
                f"--opt {given_opt:g} is below repetition {rep}'s weight "
                f"{weight:g}: no matching outweighs OPT"
            )
        ratio = f"  ratio={weight / opt:.4f}" if opt else ""
        print(f"rep {rep}: weight={weight:g}  time={total_time:.4f}s{ratio}")
        stats = algo.stats()
        rows.append({
            "instance": instance,
            "algorithm": args.algo,
            "config": config_label,
            "seed": seed,
            "repetition": rep,
            "n": stream.n,
            "num_ops": len(stream.ops),
            "final_weight": weight,
            "opt_weight": "" if opt is None else opt,
            "total_time": total_time,
            "mean_op_time": total_time / len(stream.ops) if stream.ops else 0.0,
            "max_op_time": max_op_time,
            "successes": stats.get("successes", 0),
            "failures": stats.get("failures", 0),
            "opt_ratio": f"{weight / opt:.6f}" if opt else "",
        })

    gm = objective([row["final_weight"] for row in rows])
    summary = (
        f"{args.algo} [{config_label}] on {instance}: "
        f"geo-mean weight {gm:.2f} over {len(rows)} reps"
    )
    if opt:
        summary += f", OPT {opt:g} (geo-mean ratio {gm / opt:.4f})"
    print(summary)

    if args.out:
        with _open_out(args, "a") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            if fh.tell() == 0:
                writer.writeheader()
            writer.writerows(rows)
        print(f"appended {len(rows)} rows to {args.out}")
    return 0


def cmd_gen(args) -> int:
    if args.random:
        n, m = args.random
        if n < 2:
            args.error("--random needs at least 2 vertices")
        if m < 0:
            args.error(f"--random M must be >= 0, got {m}")
        if n > MAX_N_HINT:
            args.error(f"--random N={n} exceeds the vertex count ceiling {MAX_N_HINT}")
        if m > MAX_GEN_EDGES:
            args.error(f"--random M={m} exceeds the edge count ceiling {MAX_GEN_EDGES}")
        if m > n * (n - 1) // 2:
            args.error(f"{m} edges do not fit in a simple graph on {n} vertices")
        rng = random.Random(args.seed)
        seen: set[tuple[int, int]] = set()
        while len(seen) < m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                seen.add((min(u, v), max(u, v)))
        edges = [(u, v, None) for u, v in sorted(seen)]
    else:
        parsed = parse_static_edgelist(_read_input(args))
        skipped = {k: v for k, v in parsed.warnings.items() if v}
        if skipped:
            print(f"warning: skipped lines in edge list: {skipped}", file=sys.stderr)
        n, edges = parsed.n, parsed.edges
    stream = gen_insertion_stream(n, edges, args.seed)
    if args.undo_percent:
        stream = gen_undo_suffix(stream, args.undo_percent, args.seed + 1)
    text = format_stream(stream)
    if args.out:
        with _open_out(args, "w") as out:
            out.write(text)
        print(f"wrote {len(stream.ops)} ops to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_profile(args) -> int:
    try:
        with open(args.results, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        args.error(f"cannot read --results: {exc}")
    if not rows:
        args.error(f"no result rows in {args.results}")
    try:
        profile = perf_profile(rows)
    except ValueError as exc:
        args.error(f"{args.results}: {exc}")
    if profile.skipped_no_opt:
        print(
            f"warning: {profile.skipped_no_opt} rows without OPT were skipped",
            file=sys.stderr,
        )
    if not profile.fractions:
        args.error("no rows with OPT values; nothing to profile")
    text = profile.to_tsv()
    if args.out:
        with _open_out(args, "w") as out:
            out.write(text)
        print(f"wrote profile to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StreamParseError, ReplayError, MatchingCorruptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
