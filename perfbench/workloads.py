"""One benchmark run of one workload: its end-to-end figures or its layer table."""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

from perfbench import loadgen, pipeline, serving
from perfbench.spec import PIPELINE, SERVING, SETUPS
from perfbench.stats import percentile
from perfbench.trace import Tracer


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        scratch: Path) -> Dict[str, Any]:
    if name == "tpch_pipeline":
        return _pipeline(seed, seconds, trace, root, scratch)
    return _serving(name, seed, seconds, trace, root, scratch)


# -- tpch_pipeline ---------------------------------------------------------------


def _pipeline(seed, seconds, trace, root, scratch) -> Dict[str, Any]:
    setup = statistics.median([
        pipeline.setup_seconds(root, scratch) for _ in range(SETUPS["tpch_pipeline"])
    ])
    store = scratch / "tpch.sqlite"
    args = (PIPELINE["scale_factor"], PIPELINE["rate"], seed, store)
    if trace:
        plain = pipeline.run_once(*args, Tracer(enabled=False))
        tracer = Tracer()
        traced = pipeline.run_once(*args, tracer)
        return _pipeline_layers(plain, traced, tracer)
    passes: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(passes) < PIPELINE["min_passes"] or time.perf_counter() - started < seconds:
        passes.append(pipeline.run_fresh(root, *args))
    failed = sum(not p["correct"] for p in passes)
    facts = passes[0]["facts"]
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "end_to_end": {
            "setup_s": setup,
            "rows_per_s": statistics.median([p["facts"] / p["wall_s"] for p in passes]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "db_bytes_per_row": statistics.median([p["db_bytes"] for p in passes]) / facts,
            "failed_share": failed / len(passes),
        },
        "details": {
            "facts": facts,
            "kernel_facts": passes[0]["kernel_facts"],
            "passes_wall_s": [p["wall_s"] for p in passes],
            "checks": [p["checks"] for p in passes],
        },
    }


def _pipeline_layers(plain, traced, tracer: Tracer) -> Dict[str, Any]:
    own = tracer.self_times()
    traced_wall = traced["wall_s"] - traced["untimed_s"]
    layers = {
        "workloads.generate_s": own["workloads.generate"],
        "workloads.inject_s": own["workloads.inject"],
        "workloads.priority_s": own["workloads.priority"],
        "workloads.rows": traced["rows"],
        "engine.ingest_s": own["engine.ingest"],
        "engine.encode_s": own["engine.encode"],
        "engine.probe_s": own["engine.probe"],
        "engine.kernel_s": own["engine.kernel"],
        "engine.kernel_facts": traced["kernel_facts"],
        "engine.kernel_share": traced["kernel_facts"] / traced["facts"],
        "compute.repair_s": own["compute.repair"],
        "core.check_s": own["core.check"],
        "trace.overhead_share": traced_wall / plain["wall_s"] - 1.0,
    }
    failed = (not plain["correct"]) + (not traced["correct"])
    return {
        "correct": failed == 0,
        "attempted": 2,
        "failed": failed,
        "layers": layers,
        "tracer": tracer,
        "details": {"checks": [plain["checks"], traced["checks"]],
                    "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced_wall},
    }


# -- the serving workloads ---------------------------------------------------------


def _serving(name, seed, seconds, trace, root, scratch) -> Dict[str, Any]:
    config = SERVING[name]
    scale = seconds / 20.0
    stream = serving.Stream(config["hot"], seed, root)
    daemon, setup = serving.boot(root, scratch, config, stream, SETUPS[name])
    try:
        live = serving.ladder(daemon, config, stream, seed, scale)
        figures, accounting = serving.end_to_end(config, live, setup)
    finally:
        daemon.stop()
    result = {
        "correct": accounting["wrong"] == 0 and accounting["errors"] == 0,
        "attempted": accounting["attempted"],
        "failed": accounting["failed"],
        "end_to_end": figures,
        "details": accounting,
    }
    if trace:
        result.update(_serving_layers(config, stream, live, root, scratch, seed, scale))
    return result


def _serving_layers(config, stream, live, root, scratch, seed, scale):
    load_rate = config["ladder"][1]
    load = live["rungs"][load_rate]
    start, count = live["windows"][load_rate]
    picks = [(start + k) % len(stream) for k in range(count)]
    plain = serving.replay(stream, picks, Tracer(enabled=False),
                           scratch / "replay-plain.sqlite", warm=config["hot"])
    tracer = Tracer()
    serving.replay(stream, picks, tracer, scratch / "replay-traced.sqlite",
                   warm=config["hot"])
    own = tracer.self_times()
    ops = [stream.ops[i] for i in picks]

    def per_request(span: str, op: str = None) -> float:
        """Mean self time (ms) of ``span`` per request (of ``op``)."""
        count = len(ops) if op is None else ops.count(op)
        return 1000.0 * own.get(span, 0.0) / count if count else 0.0

    checks = [s for s in tracer.spans if s["name"] == "core.check"]
    last = serving.counters(live["rungs"][max(live["rungs"])].stats)
    lookups = last.get("cache.hits", 0) + last.get("cache.misses", 0)
    layers = {
        "compute.repair_ms": per_request("compute.repair", "repair"),
        "compute.count_ms": per_request("compute.count", "count"),
        "core.check_ms": per_request("core.check", "check"),
        "core.degraded_share": (
            sum(s["status"] == "degraded" for s in checks) / len(checks) if checks else 0.0
        ),
        "io.decode_ms": per_request("io.decode"),
        "service.fingerprint_ms": per_request("service.fingerprint"),
        "service.run_ms": per_request("service.run"),
        "service.cache_hit_ratio": last.get("cache.hits", 0) / lookups if lookups else 0.0,
        "service.store_hits": last.get("store.hits", 0),
        "service.store_appended": last.get("store.appended", 0),
        "server.parse_ms": per_request("server.parse"),
        "server.encode_ms": per_request("server.encode"),
        "server.wait_ms": load.p(0.5) - 1000.0 * percentile(plain, 0.5),
        "server.overloaded": last.get("server.rejected_overload", 0),
        "loadgen.late_p99_ms": percentile(
            [late for rung in live["rungs"].values() for late in rung.late_ms], 0.99
        ),
        "trace.overhead_share": tracer.totals("request") / sum(plain) - 1.0,
    }
    if config["workers"] > 1:
        layers["fleet.hop_ms"] = load.p(0.5) - _single_daemon_p50(
            root, scratch, stream, seed, scale
        )
        layers["fleet.worker_share_max"] = (
            last["fleet.dispatches_max"] / last["fleet.dispatches"]
        )
        layers["fleet.redispatched"] = last["fleet.redispatched"]
    return {"layers": layers, "tracer": tracer}


def _single_daemon_p50(root, scratch, stream, seed, scale) -> float:
    """``serve_hot``'s load-rate p50 on the same traffic, for the fleet hop."""
    config = SERVING["serve_hot"]
    daemon = loadgen.Daemon(root, scratch / "single", workers=1)
    try:
        asyncio.run(loadgen.closed_loop(daemon.port, stream.requests))
        rung, _ = serving.run_rung(daemon, stream, 0, config["ladder"][1],
                                config["load_s"] * scale, f"{seed}:single")
    finally:
        daemon.stop()
        shutil.rmtree(scratch / "single", ignore_errors=True)
    return rung.p(0.5)
