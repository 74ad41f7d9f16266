"""Workload settings and the metric catalogue the benchmark reports.

``BENCHMARK.json`` lists the end-to-end metrics every workload reports on its
last output line (and their regression bounds), and the per-layer metrics of
a traced run.  The rest of the end-to-end table below applies only to some
workloads, or spreads too widely between runs to gate on, so it is printed by
name and unit but kept off the last line; :data:`TABLE_BOUNDS` is what
:mod:`perfbench.compare` judges it by.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

#: ``tpch_pipeline``: scale factor, injection rate, and the least number of
#: pipeline passes a run makes (it makes more while ``--seconds`` lasts).
PIPELINE = {"scale_factor": 0.05, "rate": 0.01, "min_passes": 3}

#: Fresh interpreters (pipeline) or daemons (serving) set up per run; the
#: reported ``setup_s`` is their median.
SETUPS = {"tpch_pipeline": 7, "serve_hot": 5, "serve_cold": 5, "fleet_hot": 5}

#: Serving workloads.  ``ladder`` is the fixed offered-rate ladder (req/s):
#: the base rate, the load rate, then probes for the knee, run in order until
#: the first one that misses a condition.  ``limit_ms`` is the p99 latency
#: limit of ``knee_rps``.  Rung lengths are seconds at ``--seconds 20`` and
#: scale with it.
SERVING = {
    "serve_hot": {
        "workers": 1, "hot": True, "limit_ms": 10.0,
        "ladder": (300, 600, 900, 1200, 1600, 2000, 2400, 3200, 4000),
        "base_s": 5.0, "load_s": 8.0, "probe_s": 2.0,
    },
    "fleet_hot": {
        "workers": 2, "hot": True, "limit_ms": 10.0,
        "ladder": (300, 600, 900, 1200, 1600, 2000, 2400, 3200, 4000),
        "base_s": 5.0, "load_s": 8.0, "probe_s": 2.0,
    },
    "serve_cold": {
        "workers": 1, "hot": False, "limit_ms": 200.0,
        "ladder": (15, 30, 45, 60, 80, 100, 130, 160),
        "base_s": 5.0, "load_s": 15.0, "probe_s": 2.0,
    },
}

WORKLOADS = ("tpch_pipeline",) + tuple(SERVING)

#: Connections the load generator opens (no more than the 2 cores it was
#: sized on).
CONNECTIONS = 2

#: Every end-to-end metric: its unit and which way is better.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "rows_per_s": ("facts/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "db_bytes_per_row": ("B/fact", "lower"),
    "failed_share": ("ratio", "lower"),
    "p50_ms.base": ("ms", "lower"),
    "p99_ms.base": ("ms", "lower"),
    "p50_ms.load": ("ms", "lower"),
    "p99_ms.load": ("ms", "lower"),
    "knee_rps": ("req/s", "higher"),
}

#: Compare bounds of the metrics ``BENCHMARK.json`` does not carry.
TABLE_BOUNDS = {
    "db_bytes_per_row": 0.05,
    "failed_share": 0.0,
    "p50_ms.base": 0.25,
    "p99_ms.base": 0.25,
    "p50_ms.load": 0.25,
    "p99_ms.load": 0.25,
    "knee_rps": 0.25,
}


def load_benchmark(root: Path) -> dict:
    """``BENCHMARK.json`` at the checkout root."""
    return json.loads((root / "BENCHMARK.json").read_text())


def bounds(benchmark: dict) -> Dict[str, Tuple[str, str, float]]:
    """Every end-to-end metric as ``(unit, better, bound)``."""
    gated = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    return {
        name: (unit, better, gated.get(name, TABLE_BOUNDS.get(name)))
        for name, (unit, better) in END_TO_END.items()
    }
