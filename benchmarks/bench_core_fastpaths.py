#!/usr/bin/env python
"""Perf-regression harness for the core-engine fast paths.

Times the optimized checking hot paths against the retained
pre-fast-path baselines, on the random generator workloads:

* ``check_single_fd``  vs ``check_single_fd_literal``
  (block-level swaps + shared conflict index vs the pair-level
  Figure 2 loop with per-call indexes);
* ``check_two_keys``   vs ``check_two_keys_literal``
  (shared index + cached projections vs per-call indexes and
  re-sorted projections);
* ``check_pareto_optimal`` vs ``check_pareto_optimal_literal``
  (the single-swap Pareto search on the shared index vs the
  fresh-index-per-call search).

Each workload checks several distinct greedy-repair candidates of one
instance — the batch shape served by ``repro.service`` — so the shared
``PrioritizingInstance.conflict_index`` amortizes exactly as it does in
production.  Results land in ``BENCH_core.json`` as a machine-readable
trajectory point (per-checker latency, speedup, instance sizes,
geometric means).

A second **large tier** (10^4–10^5 facts) compares the checkers, which
run on the columnar bitset core, against the former object-path
checkers kept as a benchmark-only comparator in
``benchmarks/object_checkers.py`` (DESIGN.md §13), gated by
``--min-large-geomean`` (default 3x).  Every entry records its
``tier``, both execution names, and — for bitset entries — the one-off
interning/layout-compilation time separately from the steady-state
per-check latency it amortizes into.  Entries are merged into the
committed ``BENCH_core.json`` by key, so ``make perf-large`` refreshes
the large tier without discarding the fast-path numbers (and vice
versa).

Regression guard: speedup ratios (baseline / optimized, same run, same
machine) are compared against the committed ``BENCH_core.json``.  The
run fails when an entry's speedup drops below ``(1 - tolerance)`` of
the committed value (default tolerance 25%), or when the overall
geometric-mean speedup falls under ``--min-geomean`` (default 2.0).

Usage::

    PYTHONPATH=src python benchmarks/bench_core_fastpaths.py [--quick]

or simply ``make perf`` / ``make perf QUICK=1``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.checking import (  # noqa: E402
    check_pareto_optimal,
    check_pareto_optimal_literal,
    check_single_fd,
    check_single_fd_literal,
    check_two_keys,
    check_two_keys_literal,
)
from repro.core.classification import (  # noqa: E402
    equivalent_single_fd,
    equivalent_two_keys,
)
from repro.core.instance import Instance  # noqa: E402
from repro.core.priority import PrioritizingInstance  # noqa: E402
from repro.core.repairs import greedy_repair  # noqa: E402
from repro.core.schema import Schema  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    random_instance_with_conflicts,
)
from repro.workloads.priorities import random_conflict_priority  # noqa: E402

from object_checkers import (  # noqa: E402
    check_pareto_optimal_object,
    check_single_fd_object,
    check_two_keys_object,
)

DENSITY = 0.7
SEED = 7


def make_input(
    schema: Schema, size: int, n_candidates: int
) -> Tuple[PrioritizingInstance, List[Instance]]:
    """One prioritizing instance plus distinct greedy-repair candidates."""
    instance = random_instance_with_conflicts(
        schema, size, DENSITY, seed=SEED
    )
    priority = random_conflict_priority(schema, instance, seed=SEED)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    candidates: List[Instance] = []
    seen = set()
    for draw in range(3 * n_candidates):
        if len(candidates) == n_candidates:
            break
        candidate = greedy_repair(
            schema, instance, random.Random(SEED * 997 + draw)
        )
        if candidate.facts not in seen:
            seen.add(candidate.facts)
            candidates.append(candidate)
    return prioritizing, candidates


def workload_single_fd(size, n_candidates):
    schema = Schema.single_relation(["1 -> 2"], arity=2)
    fd = equivalent_single_fd(schema.fds_for("R"))
    prioritizing, candidates = make_input(schema, size, n_candidates)
    optimized = lambda c: check_single_fd(prioritizing, c, fd)  # noqa: E731
    baseline = lambda c: check_single_fd_literal(  # noqa: E731
        prioritizing, c, fd
    )
    return prioritizing, candidates, optimized, baseline


def workload_two_keys(size, n_candidates):
    schema = Schema.single_relation(["1 -> 2", "2 -> 1"], arity=2)
    key1, key2 = equivalent_two_keys(schema.fds_for("R"))
    prioritizing, candidates = make_input(schema, size, n_candidates)
    optimized = lambda c: check_two_keys(  # noqa: E731
        prioritizing, c, key1, key2
    )
    baseline = lambda c: check_two_keys_literal(  # noqa: E731
        prioritizing, c, key1, key2
    )
    return prioritizing, candidates, optimized, baseline


def workload_pareto(size, n_candidates):
    schema = Schema.single_relation(["1 -> 2"], arity=3)
    prioritizing, candidates = make_input(schema, size, n_candidates)
    optimized = lambda c: check_pareto_optimal(prioritizing, c)  # noqa: E731
    baseline = lambda c: check_pareto_optimal_literal(  # noqa: E731
        prioritizing, c
    )
    return prioritizing, candidates, optimized, baseline


WORKLOADS: Dict[str, Callable] = {
    "single_fd": workload_single_fd,
    "two_keys": workload_two_keys,
    "pareto": workload_pareto,
}


def workload_single_fd_large(size, n_candidates):
    schema = Schema.single_relation(["1 -> 2"], arity=2)
    fd = equivalent_single_fd(schema.fds_for("R"))
    prioritizing, candidates = make_input(schema, size, n_candidates)
    optimized = lambda c: check_single_fd(prioritizing, c, fd)  # noqa: E731
    baseline = lambda c: check_single_fd_object(  # noqa: E731
        prioritizing, c, fd
    )
    return prioritizing, candidates, optimized, baseline


def workload_two_keys_large(size, n_candidates):
    schema = Schema.single_relation(["1 -> 2", "2 -> 1"], arity=2)
    key1, key2 = equivalent_two_keys(schema.fds_for("R"))
    prioritizing, candidates = make_input(schema, size, n_candidates)
    optimized = lambda c: check_two_keys(  # noqa: E731
        prioritizing, c, key1, key2
    )
    baseline = lambda c: check_two_keys_object(  # noqa: E731
        prioritizing, c, key1, key2
    )
    return prioritizing, candidates, optimized, baseline


def workload_pareto_large(size, n_candidates):
    schema = Schema.single_relation(["1 -> 2"], arity=3)
    prioritizing, candidates = make_input(schema, size, n_candidates)
    optimized = lambda c: check_pareto_optimal(prioritizing, c)  # noqa: E731
    baseline = lambda c: check_pareto_optimal_object(  # noqa: E731
        prioritizing, c
    )
    return prioritizing, candidates, optimized, baseline


LARGE_WORKLOADS: Dict[str, Callable] = {
    "single_fd": workload_single_fd_large,
    "two_keys": workload_two_keys_large,
    "pareto": workload_pareto_large,
}


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs of ``fn``."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_entry(
    checker: str,
    size: int,
    n_candidates: int,
    repeats: int,
    tier: str = "fastpath",
):
    workloads = LARGE_WORKLOADS if tier == "large" else WORKLOADS
    prioritizing, candidates, optimized, baseline = workloads[checker](
        size, n_candidates
    )
    # The one-off columnar compilation (interner + FD layouts + priority
    # masks) is recorded separately so steady-state per-check latency is
    # not conflated with the amortized setup it rides on.
    interning_s = 0.0
    if tier == "large":
        start = time.perf_counter()
        prioritizing.bitset_core  # noqa: B018  (builds and caches)
        interning_s = time.perf_counter() - start
    # Warmup run on both sides: populates the shared conflict index and
    # the per-fact projection caches for the optimized path (the
    # baselines deliberately bypass both), and checks verdict agreement.
    optimized_verdicts = [optimized(c).is_optimal for c in candidates]
    baseline_verdicts = [baseline(c).is_optimal for c in candidates]
    agree = optimized_verdicts == baseline_verdicts
    optimized_s = best_of(
        lambda: [optimized(c) for c in candidates], repeats
    )
    baseline_s = best_of(lambda: [baseline(c) for c in candidates], repeats)
    return {
        "checker": checker,
        "tier": tier,
        "backend_optimized": "bitset",
        "backend_baseline": (
            "object" if tier == "large" else "object-fresh"
        ),
        "size": size,
        "density": DENSITY,
        "seed": SEED,
        "instance_facts": len(prioritizing.instance),
        "candidate_facts": [len(c) for c in candidates],
        "n_candidates": len(candidates),
        "interning_s": interning_s,
        "optimized_s": optimized_s,
        "baseline_s": baseline_s,
        "optimized_per_check_ms": 1e3 * optimized_s / len(candidates),
        "baseline_per_check_ms": 1e3 * baseline_s / len(candidates),
        "speedup": baseline_s / optimized_s,
        "verdicts_agree": agree,
        "verdicts": optimized_verdicts,
    }


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def entry_key(entry: dict) -> Tuple:
    # .get keeps keys stable for committed files predating the tiers.
    return (
        entry.get("tier", "fastpath"),
        entry["checker"],
        entry["size"],
        entry["density"],
        entry["seed"],
    )


def compare_to_committed(
    entries: List[dict], committed: dict, tolerance: float
) -> List[str]:
    """Regression messages for entries slower than the committed run."""
    failures = []
    committed_by_key = {
        entry_key(e): e for e in committed.get("entries", [])
    }
    for entry in entries:
        old = committed_by_key.get(entry_key(entry))
        if old is None:
            continue
        floor = (1.0 - tolerance) * old["speedup"]
        if entry["speedup"] < floor:
            failures.append(
                f"{entry['checker']} @ size {entry['size']}: speedup "
                f"{entry['speedup']:.2f}x fell below {floor:.2f}x "
                f"(committed {old['speedup']:.2f}x, tolerance "
                f"{tolerance:.0%})"
            )
    return failures


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smallest size only, fewer candidates/repeats (CI smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="where to write the results (default: repo BENCH_core.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed results to regress against (default: the "
        "pre-existing --output file, when present)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the regression comparison (first-run bootstrap)",
    )
    parser.add_argument(
        "--min-geomean",
        type=float,
        default=2.0,
        help="fail when the fast-path geometric-mean speedup is below this",
    )
    parser.add_argument(
        "--min-large-geomean",
        type=float,
        default=3.0,
        help="fail when the large-tier (bitset vs object) geometric-"
        "mean speedup is below this",
    )
    parser.add_argument(
        "--tier",
        choices=["fastpath", "large", "all"],
        default="all",
        help="which size tier(s) to run (entries merge into the "
        "output file by key, so a single-tier run keeps the other "
        "tier's committed numbers)",
    )
    parser.add_argument(
        "--regression-tolerance",
        type=float,
        default=0.25,
        help="allowed per-entry speedup drop vs the committed run",
    )
    args = parser.parse_args(argv)

    sizes = [80] if args.quick else [80, 160, 320]
    large_sizes = [10_000] if args.quick else [10_000, 30_000, 100_000]
    n_candidates = 4 if args.quick else 6
    large_candidates = 1 if args.quick else 2
    repeats = 2 if args.quick else 3
    large_repeats = 1 if args.quick else 2

    baseline_path = args.baseline or args.output
    committed = None
    if not args.no_compare and baseline_path.exists():
        committed = json.loads(baseline_path.read_text())

    entries = []
    if args.tier in ("fastpath", "all"):
        for checker in WORKLOADS:
            for size in sizes:
                entry = run_entry(checker, size, n_candidates, repeats)
                entries.append(entry)
                print(
                    f"{checker:>10} size={size:<6} "
                    f"optimized={entry['optimized_per_check_ms']:8.2f} "
                    f"ms/check  "
                    f"baseline={entry['baseline_per_check_ms']:8.2f} "
                    f"ms/check  "
                    f"speedup={entry['speedup']:6.2f}x  "
                    f"agree={entry['verdicts_agree']}"
                )
    if args.tier in ("large", "all"):
        for checker in LARGE_WORKLOADS:
            for size in large_sizes:
                entry = run_entry(
                    checker, size, large_candidates, large_repeats,
                    tier="large",
                )
                entries.append(entry)
                print(
                    f"{checker:>10} size={size:<6} "
                    f"bitset={entry['optimized_per_check_ms']:8.2f} "
                    f"ms/check  "
                    f"object={entry['baseline_per_check_ms']:8.2f} "
                    f"ms/check  "
                    f"speedup={entry['speedup']:6.2f}x  "
                    f"intern={entry['interning_s']:.3f}s  "
                    f"agree={entry['verdicts_agree']}"
                )

    fastpath_entries = [e for e in entries if e["tier"] == "fastpath"]
    large_entries = [e for e in entries if e["tier"] == "large"]
    per_checker = {
        checker: geomean(
            [e["speedup"] for e in fastpath_entries
             if e["checker"] == checker]
        )
        for checker in WORKLOADS
        if any(e["checker"] == checker for e in fastpath_entries)
    }
    overall = (
        geomean([e["speedup"] for e in fastpath_entries])
        if fastpath_entries else None
    )
    overall_large = (
        geomean([e["speedup"] for e in large_entries])
        if large_entries else None
    )

    # Merge this run's entries into the committed file by key, so a
    # single-tier run refreshes its tier without discarding the other.
    merged = {}
    if committed is not None:
        for entry in committed.get("entries", []):
            merged[entry_key(entry)] = entry
    for entry in entries:
        merged[entry_key(entry)] = entry
    merged_entries = [merged[key] for key in sorted(merged)]
    report = {
        "version": 2,
        "generated_by": "benchmarks/bench_core_fastpaths.py",
        "quick": args.quick,
        "config": {
            "sizes": sizes,
            "large_sizes": large_sizes,
            "density": DENSITY,
            "seed": SEED,
            "n_candidates": n_candidates,
            "large_candidates": large_candidates,
            "repeats": repeats,
            "large_repeats": large_repeats,
            "tier": args.tier,
        },
        "entries": merged_entries,
        "geomean_speedup_per_checker": per_checker,
        "geomean_speedup": overall,
        "geomean_speedup_large": overall_large,
        "python": sys.version.split()[0],
    }

    failures = []
    if not all(e["verdicts_agree"] for e in entries):
        failures.append(
            "optimized and baseline checkers disagreed on a verdict"
        )
    if overall is not None and overall < args.min_geomean:
        failures.append(
            f"fast-path geomean speedup {overall:.2f}x is below the "
            f"{args.min_geomean:.2f}x floor"
        )
    if overall_large is not None and overall_large < args.min_large_geomean:
        failures.append(
            f"large-tier geomean speedup {overall_large:.2f}x is below "
            f"the {args.min_large_geomean:.2f}x floor"
        )
    if committed is not None:
        failures.extend(
            compare_to_committed(
                entries, committed, args.regression_tolerance
            )
        )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    if per_checker:
        print("\nfast-path per-checker geomean speedups:")
        for checker, value in per_checker.items():
            print(f"  {checker:>10}: {value:6.2f}x")
    if overall is not None:
        print(f"fast-path geomean speedup: {overall:.2f}x")
    if overall_large is not None:
        print(
            f"large-tier geomean speedup (bitset vs object): "
            f"{overall_large:.2f}x"
        )
    print(f"wrote {args.output}")

    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
