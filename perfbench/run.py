#!/usr/bin/env python3
"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a checkout; ``all`` runs every workload in turn.  With
``--trace 0`` it measures the workload's end-to-end metrics with tracing off;
with ``--trace 1`` it makes the separate traced run and reports the per-layer
metrics (spans go to ``.perfbench/traces/``).  For each workload it prints a
table of every figure by name and unit, then one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when any answer was
wrong, and 2 without a result when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report here (a directory)")
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    """SIGTERM unwinds like an exception, so every started process is stopped."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure (missing {ROOT / 'src/repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import spec

    if args.workload not in spec.WORKLOADS + ("all",):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(spec.WORKLOADS)} or all", file=sys.stderr)
        return 2
    benchmark = spec.load_benchmark(ROOT)
    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [_measure(name, args, benchmark) for name in names]
    return 0 if all(correct) else 1


def _measure(name: str, args, benchmark: dict) -> bool:
    """Run one workload, print its table and its JSON line; whether it was correct."""
    from perfbench import report, workloads

    scratch = ROOT / ".perfbench" / "scratch" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = workloads.run(
            name, args.seed, args.seconds, bool(args.trace), ROOT, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["elapsed_s"] = time.perf_counter() - started
    result.update(workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    if args.trace:
        tracer = result.pop("tracer")
        spans = ROOT / ".perfbench" / "traces" / f"{name}-seed{args.seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(report.table(result, benchmark))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report.last_line(result, benchmark)), flush=True)
    return bool(result["correct"])


if __name__ == "__main__":
    sys.exit(main())
