"""Aggregation: geometric means and performance profiles.

A performance profile answers, for each algorithm config and quality
threshold tau, what fraction of instances reached objective >= tau * OPT.
Fractions are non-increasing in tau by construction; instances without a
recorded OPT are excluded and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean computed in the log domain; values must be positive."""
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    logs = 0.0
    for x in values:
        if x <= 0:
            raise ValueError(f"geometric_mean requires positive values, got {x!r}")
        logs += math.log(x)
    return math.exp(logs / len(values))


# The grid ``dynmatch profile`` scores: 0.50, 0.51, ..., 1.00.
TAUS = tuple(round(0.50 + 0.01 * k, 2) for k in range(51))


def objective(weights: Sequence[float]) -> float:
    """One column's score on one instance over its repetitions: the
    geometric mean of their final weights, 0 when any weighs nothing."""
    return geometric_mean(weights) if all(w > 0 for w in weights) else 0.0


def beats_opt(weight: float, opt: float) -> bool:
    """True when ``weight`` exceeds ``opt`` by more than a relative 1e-9,
    float rounding aside.  No matching outweighs OPT, so that OPT is wrong."""
    return weight > opt * (1 + 1e-9)


def _cell(row: Mapping[str, object], i: int, column: str) -> str:
    value = row.get(column)
    if value is None:
        raise ValueError(f"results row {i} has no {column!r} column")
    return str(value)


def _number(row: Mapping[str, object], i: int, column: str) -> float:
    text = _cell(row, i, column)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"results row {i}, column {column!r}: {text!r} is not a finite number"
        )
    return value


@dataclass
class PerfProfile:
    fractions: dict[str, list[float]]  # "algorithm [config]" -> fraction per tau
    instances: dict[str, int]  # column -> scored instance count
    skipped_no_opt: int

    def to_tsv(self) -> str:
        algos = sorted(self.fractions)
        lines = ["\t".join(["tau"] + algos)]
        for i, tau in enumerate(TAUS):
            row = [f"{tau:.4f}"] + [
                f"{self.fractions[a][i]:.4f}" for a in algos
            ]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def perf_profile(rows: Iterable[Mapping[str, object]]) -> PerfProfile:
    """Build a profile from result rows (as dicts with instance, algorithm,
    config, final_weight, opt_weight), one column per ``algorithm [config]``.

    Multiple repetitions of one (column, instance) pair are collapsed to
    their ``objective`` before scoring at each of ``TAUS``.  Raises
    ValueError naming the row (1 = first after the header) and the column
    when a needed cell is missing or a number is not finite, naming both
    rows when two give one instance different OPT values, and naming the
    row when its final_weight beats its opt_weight.
    """
    weights: dict[tuple[str, str], list[float]] = {}
    opts: dict[str, tuple[float, int]] = {}  # instance -> (OPT, first row)
    skipped = 0
    for i, row in enumerate(rows, 1):
        algo = f"{_cell(row, i, 'algorithm')} [{_cell(row, i, 'config')}]"
        inst = _cell(row, i, "instance")
        if row.get("opt_weight") in ("", None):
            skipped += 1
            continue
        opt = _number(row, i, "opt_weight")
        if opt <= 0:
            skipped += 1
            continue
        first_opt, first = opts.setdefault(inst, (opt, i))
        if opt != first_opt:
            raise ValueError(
                f"results rows {first} and {i} give instance {inst!r} two OPT "
                f"values, {first_opt:g} and {opt:g}"
            )
        weight = _number(row, i, "final_weight")
        if beats_opt(weight, opt):
            raise ValueError(
                f"results row {i}: final_weight {weight:g} exceeds its "
                f"opt_weight {opt:g}"
            )
        weights.setdefault((algo, inst), []).append(weight)
    ratios: dict[str, list[float]] = {}
    for (algo, inst), ws in weights.items():
        ratios.setdefault(algo, []).append(objective(ws) / opts[inst][0])
    # Absolute 1e-12 slack absorbs the exp/log round-trip error of the
    # geometric mean so exact-OPT runs still count at tau = 1.0.
    fractions = {
        algo: [sum(1 for r in rs if r >= t - 1e-12) / len(rs) for t in TAUS]
        for algo, rs in ratios.items()
    }
    instances = {algo: len(rs) for algo, rs in ratios.items()}
    return PerfProfile(
        fractions=fractions,
        instances=instances,
        skipped_no_opt=skipped,
    )
