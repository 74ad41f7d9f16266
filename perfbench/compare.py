#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

A set of runs is a directory of reports written by ``run.py --out DIR``
(untraced runs, one file per workload and seed).  With one set, every
(workload, end-to-end metric) pair gets its median, quartiles and spread —
the distance between the quartiles as a share of the median — marked
``steady`` when the spread is below a third of the metric's bound.  With two
sets, each workload gets one row; every metric in it shows both sides' median
and quartiles and is marked, against the metric's bound:

* ``unresolved`` — either side spreads wider than the bound and the runs of
                   the two sides overlap (when they do not, ``better`` or
                   ``worse`` by which side wins);
* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — B's median is better by more than the bound, or by more
                   than A's own spread with every B run beating every A run;
* ``unchanged``  — otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import bounds, load_benchmark  # noqa: E402
from perfbench.stats import quartiles  # noqa: E402


def load_runs(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` over the untraced reports."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        if report.get("trace"):
            continue
        metrics = runs.setdefault(report["workload"], {})
        for name, value in report["end_to_end"].items():
            if value is not None:
                metrics.setdefault(name, []).append(float(value))
    return runs


def spread(values: List[float]) -> float:
    q1, middle, q3 = quartiles(values)
    if q1 == q3:
        return 0.0
    return (q3 - q1) / abs(middle) if middle else float("inf")


def _cell(values: List[float]) -> str:
    q1, middle, q3 = quartiles(values)
    return f"{middle:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_mid, b_mid = quartiles(a)[1], quartiles(b)[1]
    if a_mid == 0:  # e.g. failed_share of a clean parent
        if b_mid == 0:
            return "unchanged"
        return "better" if sign * b_mid > 0 else "worse"
    change = sign * (b_mid - a_mid) / abs(a_mid)
    b_wins = min(sign * v for v in b) > max(sign * v for v in a)
    b_loses = max(sign * v for v in b) < min(sign * v for v in a)
    if max(spread(a), spread(b)) > bound:
        return "better" if b_wins else "worse" if b_loses else "unresolved"
    if change < -bound:
        return "worse"
    if change > spread(a) and b_wins or change > bound:
        return "better"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    catalogue = bounds(load_benchmark(ROOT))
    sides = [load_runs(Path(arg)) for arg in argv]
    for workload in sorted(set().union(*sides)):
        cells = []
        for name, (unit, better, bound) in catalogue.items():
            values = [side.get(workload, {}).get(name) for side in sides]
            if not all(values):
                continue
            if len(sides) == 1:
                mark = "steady" if spread(values[0]) <= bound / 3 else "NOT steady"
                cells.append(f"{name} {_cell(values[0])} {unit} "
                             f"spread {spread(values[0]):.3f} (bound {bound}) {mark}")
            else:
                cells.append(f"{name} A {_cell(values[0])} B {_cell(values[1])} {unit} "
                             f"{verdict(values[0], values[1], better, bound)}")
        print(f"{workload}: " + (" | ".join(cells) or "not in every set"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
