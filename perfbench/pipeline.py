"""The ``tpch_pipeline`` workload: one batch from generated rows to a certified repair.

The steps are those of ``repro workload e2e``, called through the public
functions: generate → inject → ``StreamingInstanceStore.ingest_rows`` into a
file-backed store → ``conflict_pairs`` → ``conflict_kernel`` →
``tiered_prioritizing`` → ``compute_optimal_repair`` →
``check_globally_optimal``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.compute import compute_optimal_repair
from repro.core.checking import check_globally_optimal
from repro.engine.streaming import (
    StreamingInstanceStore,
    canonical_value,
    encode_value,
    fact_sort_key,
)
from repro.workloads.injection import (
    InjectedConflict,
    InjectionManifest,
    iter_injected_rows,
    tiered_prioritizing,
)
from repro.workloads.tpch import generate_tables, tpch_schema

from perfbench.trace import Tracer

#: What a fresh interpreter does before the first row: imports, schema, store.
SETUP_CODE = """
import sys
from repro.compute import compute_optimal_repair
from repro.core.checking import check_globally_optimal
from repro.engine.streaming import StreamingInstanceStore
from repro.workloads.injection import iter_injected_rows, tiered_prioritizing
from repro.workloads.tpch import generate_tables, tpch_schema
StreamingInstanceStore(tpch_schema(), path=sys.argv[1]).close()
"""


def setup_seconds(root: Path, scratch: Path) -> float:
    """Wall time of one fresh interpreter doing :data:`SETUP_CODE`."""
    path = scratch / "setup.sqlite"
    if path.exists():
        path.unlink()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, and the
    # steps would show in the figure.
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(path)], cwd=root, env=env, check=True
    )
    return time.perf_counter() - started


def run_fresh(
    root: Path, scale_factor: float, rate: float, seed: int, store_path: Path
) -> Dict[str, Any]:
    """:func:`run_once` in a fresh interpreter; adds its peak RSS (MB).

    Each pass is a single-shot batch of its own, so nothing a pass leaves
    behind (garbage, warm library caches) slows or speeds the next.  The
    peak resident set comes from the kernel's rusage of the finished child.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.pipeline", str(scale_factor), str(rate),
         str(seed), str(store_path)],
        cwd=root, env=env, stdout=subprocess.PIPE,
    )
    try:
        output = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"pipeline pass exited with {child.returncode}")
    result = json.loads(output)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _encode(relation: str, rows: List) -> None:
    """The loader's per-row value encoding, outside ``ingest_rows``."""
    for values in rows:
        fact_sort_key(relation, values)
        for value in values:
            canonical_value(value)
            encode_value(value)


def run_once(
    scale_factor: float, rate: float, seed: int, store_path: Path, tracer: Tracer
) -> Dict[str, Any]:
    """One pipeline pass; every figure the workload reports, plus its checks.

    A traced pass also re-times the value encoding; ``untimed_s`` is the part
    of its wall time spent on that, which the untraced pass does not do.
    """
    for stale in (store_path, Path(f"{store_path}-wal"), Path(f"{store_path}-shm")):
        if stale.exists():
            stale.unlink()
    schema = tpch_schema()
    tables = generate_tables(scale_factor, seed)
    conflicts: List[InjectedConflict] = []
    rows = 0
    untimed = 0.0
    started = time.perf_counter()
    with tracer.span("pipeline"):
        with StreamingInstanceStore(schema, path=str(store_path)) as store:
            for relation in sorted(tables):
                fd = next(
                    fd for fd in sorted(schema.fds_for(relation).fds, key=str)
                    if not fd.is_trivial()
                )
                sink: List[InjectedConflict] = []
                with tracer.span("engine.ingest"):
                    inject = tracer.reserve("workloads.inject")
                    generate = tracer.reserve("workloads.generate", parent=inject)
                    stream = iter_injected_rows(
                        relation, fd, tracer.iterate(generate, tables[relation]()),
                        rate, seed, sink,
                    )
                    store.ingest_rows(relation, tracer.iterate(inject, stream))
                conflicts.extend(sink)
                if tracer.enabled:
                    # Re-run the loader's value encoding over the same rows,
                    # regenerated after the ingest so that holding them does
                    # not slow it, so sqlite's share of ingest is ingest - encode.
                    regenerated = time.perf_counter()
                    same = list(iter_injected_rows(
                        relation, fd, tables[relation](), rate, seed, []
                    ))
                    untimed += time.perf_counter() - regenerated
                    with tracer.span("engine.encode"):
                        _encode(relation, same)
                    untimed += tracer.last_duration()
                    rows += len(same)
            manifest = InjectionManifest(
                rate=rate, seed=seed, relations=tuple(sorted(tables)),
                conflicts=conflicts,
            )
            with tracer.span("engine.probe"):
                pairs = store.conflict_pairs()
            with tracer.span("engine.kernel"):
                kernel = store.conflict_kernel()
            with tracer.span("workloads.priority"):
                prioritizing = tiered_prioritizing(schema, kernel, manifest)
            with tracer.span("compute.repair"):
                computed = compute_optimal_repair(
                    prioritizing, semantics="global", rng=random.Random(seed)
                )
            with tracer.span("core.check"):
                certified = check_globally_optimal(prioritizing, computed.repair)
            facts = store.fact_count()
    wall = time.perf_counter() - started
    db_bytes = sum(
        os.path.getsize(path)
        for path in (store_path, Path(f"{store_path}-wal"))
        if path.exists()
    )
    checks = {
        "pairs_match_manifest": pairs == manifest.conflict_pairs(),
        "repair_exact": computed.status == "ok",
        "certified_optimal": certified.is_optimal,
        "repair_is_all_trusted":
            computed.repair.facts == kernel.facts - manifest.injected_facts(),
    }
    return {
        "wall_s": wall,
        "untimed_s": untimed,
        "facts": facts,
        "rows": rows,
        "kernel_facts": len(kernel.facts),
        "db_bytes": db_bytes,
        "checks": checks,
        "correct": all(checks.values()),
    }


if __name__ == "__main__":
    scale, injection, seed_arg, store_arg = sys.argv[1:5]
    print(json.dumps(run_once(
        float(scale), float(injection), int(seed_arg), Path(store_arg),
        Tracer(enabled=False),
    )))
