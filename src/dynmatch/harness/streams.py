"""Update streams: file formats, cleaning, and stream generators.

Two input formats are understood:

* static edge list - first non-blank line is the vertex count n, then one
  edge per line as ``u v`` or ``u v w``;
* temporal - one record per line as ``u v w ts op`` with op ``+`` or ``-``
  (a missing op means ``+``); records are ordered by timestamp (ties keep
  file order).  Lines starting with ``#`` are comments; ``# n=K`` sets the
  vertex count when ids alone underestimate it.

Either way the vertex count is at most MAX_N_HINT, so ids are below it.
The temporal parser gives every op that names one vertex the same int
object, whatever the token's spelling (``7``, ``07``), so the graph and the
algorithms that store those ops' endpoints hold one object per vertex, not
one per op.

Cleaning is the same for both: self-loops are dropped, duplicate inserts
and deletes of absent edges are dropped (first occurrence wins), and every
drop is counted in the returned warnings.  Weights must lie in
[1, MAX_WEIGHT]; inputs with smaller positive weights should be normalized
before parsing.  Timestamps must be finite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

from ..errors import StreamParseError
from ..graph import MAX_WEIGHT, DynamicGraph, Weight, edge_key

INSERT = "insert"
DELETE = "delete"

GEN_WEIGHT_LO = 1
GEN_WEIGHT_HI = 100

# Ceiling on the vertex count of either format, whether given (the static
# first line, the temporal ``# n=K`` hint) or implied by the largest id: the
# replay allocates O(n) per graph (and per level under LevelMwm) before
# reading any op.
MAX_N_HINT = 10**6


class UpdateOp(NamedTuple):
    kind: str
    u: int
    v: int
    w: Weight | None  # None for deletes
    seq: int


@dataclass
class UpdateStream:
    """A replayable sequence of edge updates on vertices {0, ..., n-1}.

    warnings counts the input lines the temporal parser dropped, by cause.
    """

    n: int
    ops: list[UpdateOp]
    warnings: dict[str, int] = field(default_factory=dict)


@dataclass
class EdgeListFile:
    n: int
    edges: list[tuple[int, int, Weight | None]]
    warnings: dict[str, int]


def _parse_weight(token: str, line_no: int) -> Weight:
    try:
        w: Weight = int(token)
    except ValueError:
        try:
            w = float(token)
        except ValueError:
            raise StreamParseError(line_no, f"bad weight {token!r}") from None
        if not math.isfinite(w):
            raise StreamParseError(line_no, f"non-finite weight {token!r}")
    if w < 1:
        raise StreamParseError(
            line_no, f"weight {w!r} < 1; normalize weights to >= 1 first"
        )
    if w > MAX_WEIGHT:
        raise StreamParseError(line_no, f"weight {token!r} exceeds 2**53")
    return w


def _parse_vertex(token: str, line_no: int) -> int:
    try:
        u = int(token)
    except ValueError:
        raise StreamParseError(line_no, f"bad vertex id {token!r}") from None
    if u < 0:
        raise StreamParseError(line_no, f"negative vertex id {u}")
    return u


def _intern_vertex(token: str, line_no: int, ids: dict[str | int, int]) -> int:
    """Parse a vertex token not in ``ids`` and file it there under its value,
    so tokens of one value (``7``, ``07``) share one int object."""
    u = _parse_vertex(token, line_no)
    u = ids[token] = ids.setdefault(u, u)
    return u


def parse_static_edgelist(text: str) -> EdgeListFile:
    """Parse ``n`` then ``u v [w]`` lines into a cleaned edge list."""
    n: int | None = None
    edges: list[tuple[int, int, Weight | None]] = []
    seen: set[tuple[int, int]] = set()
    warnings = {"self_loops": 0, "duplicates": 0}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise StreamParseError(line_no, "expected vertex count on first line")
            n = _parse_vertex(parts[0], line_no)
            if n > MAX_N_HINT:
                raise StreamParseError(
                    line_no, f"vertex count {n} exceeds {MAX_N_HINT}"
                )
            continue
        if len(parts) not in (2, 3):
            raise StreamParseError(line_no, f"expected 'u v [w]', got {line!r}")
        u = _parse_vertex(parts[0], line_no)
        v = _parse_vertex(parts[1], line_no)
        if u >= n or v >= n:
            raise StreamParseError(line_no, f"vertex id out of range [0, {n})")
        if u == v:
            warnings["self_loops"] += 1
            continue
        key = edge_key(u, v)
        if key in seen:
            warnings["duplicates"] += 1
            continue
        seen.add(key)
        w = _parse_weight(parts[2], line_no) if len(parts) == 3 else None
        edges.append((u, v, w))
    if n is None:
        raise StreamParseError(1, "empty input: no vertex count line")
    return EdgeListFile(n=n, edges=edges, warnings=warnings)


def parse_temporal(text: str) -> UpdateStream:
    """Parse timestamped ``u v w ts op`` records into a replayable stream."""
    records: list[tuple[float, int, int, Weight | None, str]] = []
    warnings = {"self_loops": 0, "duplicate_inserts": 0, "absent_deletes": 0}
    # Each id token, and each id value, maps to the one int object every op
    # naming that vertex carries; the table lives for this parse only.
    ids: dict[str | int, int] = {}
    n_hint = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            hint = line[1:].replace(" ", "")
            if hint.startswith("n="):
                k = _parse_vertex(hint[2:], line_no)
                if k > MAX_N_HINT:
                    raise StreamParseError(
                        line_no, f"vertex count hint n={k} exceeds {MAX_N_HINT}"
                    )
                n_hint = max(n_hint, k)
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise StreamParseError(line_no, f"expected 'u v w ts [op]', got {line!r}")
        u = ids.get(parts[0])
        if u is None:
            u = _intern_vertex(parts[0], line_no, ids)
        v = ids.get(parts[1])
        if v is None:
            v = _intern_vertex(parts[1], line_no, ids)
        if u >= MAX_N_HINT or v >= MAX_N_HINT:
            raise StreamParseError(
                line_no,
                f"vertex id {max(u, v)} >= vertex count ceiling {MAX_N_HINT}",
            )
        op = parts[4] if len(parts) == 5 else "+"
        if op not in ("+", "-"):
            raise StreamParseError(line_no, f"bad op {op!r}, expected '+' or '-'")
        w = _parse_weight(parts[2], line_no) if op == "+" else None
        try:
            ts = float(parts[3])
        except ValueError:
            raise StreamParseError(line_no, f"bad timestamp {parts[3]!r}") from None
        if not math.isfinite(ts):
            raise StreamParseError(line_no, f"non-finite timestamp {parts[3]!r}")
        if u == v:
            warnings["self_loops"] += 1
            continue
        records.append((ts, u, v, w, op))
    records.sort(key=itemgetter(0))  # stable: ties keep file order
    present: set[tuple[int, int]] = set()
    ops: list[UpdateOp] = []
    max_id = -1
    for _ts, u, v, w, op in records:
        key = edge_key(u, v)
        if op == "+":
            if key in present:
                warnings["duplicate_inserts"] += 1
                continue
            present.add(key)
            ops.append(UpdateOp(INSERT, u, v, w, len(ops)))
        else:
            if key not in present:
                warnings["absent_deletes"] += 1
                continue
            present.discard(key)
            ops.append(UpdateOp(DELETE, u, v, None, len(ops)))
        max_id = max(max_id, u, v)
    n = max(max_id + 1, n_hint)
    return UpdateStream(n=n, ops=ops, warnings=warnings)


def gen_insertion_stream(
    n: int, edges: Iterable[tuple[int, int, Weight | None]], seed: int
) -> UpdateStream:
    """Insertion-only stream: a seeded random permutation of the edges.

    Edges without weights draw one uniformly from [1, 100]; the permutation
    is drawn first, then weights in permuted order, all from one
    ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    pool = list(edges)
    rng.shuffle(pool)
    ops = []
    for i, (u, v, w) in enumerate(pool):
        if w is None:
            w = rng.randint(GEN_WEIGHT_LO, GEN_WEIGHT_HI)
        ops.append(UpdateOp(INSERT, u, v, w, i))
    return UpdateStream(n=n, ops=ops)


def gen_undo_suffix(stream: UpdateStream, percent: float, seed: int) -> UpdateStream:
    """Append inverse ops for the last ``percent``% of the stream, in reverse.

    Undoing an insert deletes the edge; undoing a delete re-inserts it with
    a fresh seeded weight from [1, 100].  Reversal guarantees each inverse
    op is applicable when replayed.
    """
    if not 0 <= percent <= 100:
        raise ValueError(f"undo percent must be in [0, 100], got {percent}")
    rng = random.Random(seed)
    count = int(len(stream.ops) * percent / 100)
    ops = list(stream.ops)
    for op in reversed(ops[len(ops) - count :] if count else []):
        seq = len(ops)
        if op.kind == INSERT:
            ops.append(UpdateOp(DELETE, op.u, op.v, None, seq))
        else:
            w = rng.randint(GEN_WEIGHT_LO, GEN_WEIGHT_HI)
            ops.append(UpdateOp(INSERT, op.u, op.v, w, seq))
    return UpdateStream(n=stream.n, ops=ops, warnings=dict(stream.warnings))


def format_stream(stream: UpdateStream) -> str:
    """Serialize to the temporal format (ts = sequence number).

    Deletes carry a placeholder weight of 0, which the parser ignores.
    """
    lines = [f"# n={stream.n}"]
    for op in stream.ops:
        if op.kind == INSERT:
            lines.append(f"{op.u} {op.v} {op.w} {op.seq} +")
        else:
            lines.append(f"{op.u} {op.v} 0 {op.seq} -")
    return "\n".join(lines) + "\n"


def final_graph(stream: UpdateStream) -> DynamicGraph:
    """Graph state after replaying every op (no algorithm attached)."""
    g = DynamicGraph(stream.n)
    for op in stream.ops:
        if op.kind == INSERT:
            g.insert_edge(op.u, op.v, op.w)
        else:
            g.delete_edge(op.u, op.v)
    return g
