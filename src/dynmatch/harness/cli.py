"""Command-line entry point.

Subcommands:
  run      replay a stream through an algorithm, report per-rep results; the
           input is a static edge list or a temporal stream, told apart by
           its text (see _is_temporal)
  gen      generate an update stream file (random insertion order, optional
           undo suffix)
  profile  turn a results CSV into a performance-profile TSV over the tau
           grid 0.50, 0.51, ..., 1.00

Seeds default to 1.

Exit codes: 0 on success, 2 on bad arguments, parse errors, replay errors,
invariant violations found in audit mode, or an oracle-limit breach when the
exact baseline itself must solve the instance (--algo oracle).
"""

from __future__ import annotations

import argparse
import csv
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
from dynmatch.harness.profiles import (
    default_tau_grid,
    geometric_mean,
    perf_profile,
)
from dynmatch.harness.replay import (
    RESULT_FIELDS,
    level_factory,
    oracle_factory,
    random_walk_factory,
    result_row,
    run_repetitions,
)
from dynmatch.harness.streams import (
    MAX_N_HINT,
    UpdateStream,
    final_graph,
    format_stream,
    gen_insertion_stream,
    gen_undo_suffix,
    parse_static_edgelist,
    parse_temporal,
)
from dynmatch.levels import LevelConfig
from dynmatch.oracle import exact_mwm
from dynmatch.random_walk import BETA, RandomConfig

ALGO_CHOICES = ("random", "level-walk", "level-bfs", "oracle")

# Most edges `gen --random` generates: it holds every edge, the stream and
# its text in memory, a few hundred bytes per edge.
MAX_GEN_EDGES = 10**6


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
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
        help="static edge list or temporal stream; the format is read from "
        "the text",
    )
    p_run.add_argument("--algo", required=True, choices=ALGO_CHOICES)
    p_run.add_argument("--seed", type=int, default=1, help="master seed")
    p_run.add_argument("--reps", type=positive_int, default=10, help="repetitions")
    p_run.add_argument(
        "--undo-percent",
        type=percent,
        default=0.0,
        help="append an undo suffix reverting the last X%% of ops",
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
    p_run.add_argument("--label", help="instance label for result rows")
    p_run.add_argument(
        "--epsilon",
        type=float,
        default=1.0,
        help="approximation parameter of the random-walk or level algorithm",
    )

    walk = p_run.add_argument_group("random-walk options")
    walk.add_argument("--walks", type=int, default=1, help="walks per campaign")
    walk.add_argument(
        "--stop-early",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=f"abort a campaign after {BETA} consecutive failed walks",
    )
    walk.add_argument(
        "--theorem-mode",
        action="store_true",
        help="use the analysed walk budget ceil(max_degree^(2/eps+3) * ln n)",
    )

    p_run.add_argument(
        "--oracle-interval",
        type=positive_int,
        default=100,
        help="ops between exact recomputes for --algo oracle",
    )
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


def _is_temporal(text: str) -> bool:
    """Whether text is a temporal stream rather than a static edge list.

    The first line that tells them apart decides: a ``# n=K`` hint or a
    data line of more than one field means temporal, a data line of one
    field (the static vertex count) means static.  Text with neither,
    blank or comments only, goes to the static parser, which reports it
    as empty.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            if line[1:].replace(" ", "").startswith("n="):
                return True
        elif line:
            return len(line.split()) > 1
    return False


def _load_stream(args) -> UpdateStream:
    text = _read_input(args)
    if _is_temporal(text):
        stream = parse_temporal(text)
        dropped = {k: v for k, v in stream.warnings.items() if v}
        if dropped:
            print(f"warning: cleaned temporal input: {dropped}", file=sys.stderr)
        return stream
    parsed = parse_static_edgelist(text)
    skipped = {k: v for k, v in parsed.warnings.items() if v}
    if skipped:
        print(f"warning: skipped lines in edge list: {skipped}", file=sys.stderr)
    return gen_insertion_stream(parsed.n, parsed.edges, args.seed)


def _build_factory(args) -> tuple[object, RandomConfig | LevelConfig | None]:
    """Returns (factory, config) for the chosen algorithm, with no config
    for the oracle; raises ValueError on a bad option value."""
    if args.algo == "random":
        config = RandomConfig(
            epsilon=args.epsilon,
            num_walks=args.walks,
            stop_early=args.stop_early,
            theorem_mode=args.theorem_mode,
        )
        return random_walk_factory(config), config
    if args.algo in ("level-walk", "level-bfs"):
        config = LevelConfig(
            epsilon=args.epsilon,
            mcm_kind=args.algo.split("-", 1)[1],
        )
        return level_factory(config), config
    return oracle_factory(args.oracle_interval), None


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
        factory, config = _build_factory(args)
    except ValueError as exc:
        args.error(str(exc))
    config_label = config.label() if config else f"interval={args.oracle_interval}"
    opt = _numeric_opt(args)
    if args.out:
        # Fail on an unwritable path before any replay, not after the last.
        _open_out(args, "a").close()
    stream = _load_stream(args)
    if args.undo_percent:
        stream = gen_undo_suffix(stream, args.undo_percent, args.seed + 1)
    if isinstance(config, RandomConfig) and config.theorem_mode and not config.stop_early:
        # The budget peaks at the stream's largest degree: refuse a run one
        # of whose campaigns could never finish before it starts.
        config.walk_budget(final_graph(stream).max_degree_seen(), stream.n)

    if args.opt == "auto":
        try:
            _, opt = exact_mwm(final_graph(stream))
        except OracleLimitError as exc:
            print(f"warning: skipping OPT: {exc}", file=sys.stderr)

    instance = args.label or Path(args.input).name
    results = run_repetitions(
        stream,
        factory,
        algorithm=args.algo,
        config=config_label,
        reps=args.reps,
        master_seed=args.seed,
        instance=instance,
        opt_weight=opt,
        audit=args.audit,
    )

    for r in results:
        ratio = "" if r.opt_ratio is None else f"  ratio={r.opt_ratio:.4f}"
        print(
            f"rep {r.repetition}: weight={r.final_weight:g}  "
            f"time={r.total_time:.4f}s{ratio}"
        )
    weights = [r.final_weight for r in results]
    gm = (
        geometric_mean(weights)
        if weights and all(w > 0 for w in weights)
        else (sum(weights) / len(weights) if weights else 0.0)
    )
    summary = (
        f"{args.algo} [{config_label}] on {instance}: "
        f"geo-mean weight {gm:.2f} over {len(results)} reps"
    )
    if opt is not None and opt > 0:
        summary += f", OPT {opt:g} (geo-mean ratio {gm / opt:.4f})"
    print(summary)

    if args.out:
        with _open_out(args, "a") as out:
            writer = csv.DictWriter(out, fieldnames=RESULT_FIELDS)
            if out.tell() == 0:
                writer.writeheader()
            for r in results:
                writer.writerow(result_row(r))
        print(f"appended {len(results)} rows to {args.out}")
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
        profile = perf_profile(rows, default_tau_grid())
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
    except StreamParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReplayError, MatchingCorruptionError, OracleLimitError) as exc:
        # OracleLimitError surfaces when --algo oracle faces an instance too
        # large for exact recomputation (--opt auto merely warns and skips).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
