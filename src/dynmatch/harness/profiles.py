"""Aggregation: geometric means and performance profiles.

A performance profile answers, for each algorithm and quality threshold
tau, what fraction of instances reached objective >= tau * OPT.  Fractions
are non-increasing in tau by construction; instances without a recorded
OPT are excluded and counted.
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


def default_tau_grid() -> list[float]:
    """0.50, 0.51, ..., 1.00: the grid ``dynmatch profile`` scores."""
    return [round(0.50 + 0.01 * k, 2) for k in range(51)]


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
    taus: list[float]
    fractions: dict[str, list[float]]  # algorithm -> fraction per tau
    instances: dict[str, int]  # algorithm -> scored instance count
    skipped_no_opt: int

    def to_tsv(self) -> str:
        algos = sorted(self.fractions)
        lines = ["\t".join(["tau"] + algos)]
        for i, tau in enumerate(self.taus):
            row = [f"{tau:.4f}"] + [
                f"{self.fractions[a][i]:.4f}" for a in algos
            ]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def perf_profile(
    rows: Iterable[Mapping[str, object]], taus: Sequence[float]
) -> PerfProfile:
    """Build a profile from result rows (as dicts with instance, algorithm,
    final_weight, opt_weight).

    Multiple repetitions of one (algorithm, instance) pair are collapsed to
    their geometric-mean objective before scoring.  Raises ValueError naming
    the row (1 = first after the header) and the column when a needed cell
    is missing or a number is not finite.
    """
    for t in taus:
        if not 0 < t <= 1:
            raise ValueError(f"tau values must be in (0, 1], got {t}")
    weights: dict[tuple[str, str], list[float]] = {}
    opts: dict[tuple[str, str], float] = {}
    skipped = 0
    for i, row in enumerate(rows, 1):
        algo = _cell(row, i, "algorithm")
        inst = _cell(row, i, "instance")
        if row.get("opt_weight") in ("", None):
            skipped += 1
            continue
        opt = _number(row, i, "opt_weight")
        if opt <= 0:
            skipped += 1
            continue
        key = (algo, inst)
        weights.setdefault(key, []).append(_number(row, i, "final_weight"))
        opts[key] = opt
    ratios: dict[str, list[float]] = {}
    for (algo, _inst), ws in weights.items():
        objective = geometric_mean(ws) if all(w > 0 for w in ws) else 0.0
        ratios.setdefault(algo, []).append(objective / opts[(algo, _inst)])
    taus_list = list(taus)
    # Absolute 1e-12 slack absorbs the exp/log round-trip error of the
    # geometric mean so exact-OPT runs still count at tau = 1.0.
    fractions = {
        algo: [sum(1 for r in rs if r >= t - 1e-12) / len(rs) for t in taus_list]
        for algo, rs in ratios.items()
    }
    instances = {algo: len(rs) for algo, rs in ratios.items()}
    return PerfProfile(
        taus=taus_list,
        fractions=fractions,
        instances=instances,
        skipped_no_opt=skipped,
    )
