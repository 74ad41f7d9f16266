"""The serving workloads: ``serve_hot``, ``serve_cold`` and ``fleet_hot``.

A run boots ``repro serve --store`` (``--workers 2`` for the fleet) the way an
operator does, walks the workload's fixed rate ladder with the open-loop
generator, compares every response with its reference verdict, and reads
memory and CPU of the server processes from /proc.  A traced run also replays
the load rate's request stream in-process, closed loop, through the public
functions in the order the daemon calls them.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cqa.queries import query_from_dict
from repro.io import prioritizing_from_dict
from repro.server.protocol import encode_response, ok_response, parse_request
from repro.service import (
    ComputeJob,
    LRUCache,
    RepairJob,
    RepairService,
    ServiceConfig,
    SqliteStore,
)
from repro.service.batch_io import candidate_from_spec
from repro.service.fingerprint import (
    fingerprint_check_request,
    fingerprint_compute_request,
)

from perfbench import loadgen, problems
from perfbench.spec import CONNECTIONS
from perfbench.stats import percentile, supported
from perfbench.trace import Tracer


class Stream:
    """Requests with their pre-encoded bodies, reference verdicts and sizes.

    The hot stream is its pool, cycled.  The cold stream grows rung by rung:
    :meth:`ensure` builds the next requests (and their references) in two
    child interpreters between rungs, never while a rung is measured.
    """

    def __init__(self, hot: bool, seed: int, root: Path) -> None:
        self.hot, self.seed, self.root = hot, seed, root
        self.requests: List[Dict[str, Any]] = []
        self.expected: List[Tuple] = []
        self.ops: List[str] = []
        self.facts: List[int] = []
        self.bodies: List[bytes] = []
        if hot:
            self._extend(build_requests("hot", seed, 0, 0))

    def _extend(self, built: Sequence[Tuple[Dict[str, Any], Tuple]]) -> None:
        requests = [request for request, _ in built]
        self.requests += requests
        self.expected += [expected for _, expected in built]
        self.ops += [request["op"] for request in requests]
        self.facts += [len(request["problem"]["instance"]) for request in requests]
        self.bodies += loadgen.encode_bodies(requests)

    def ensure(self, count: int) -> None:
        """Make the cold stream at least ``count`` requests long."""
        missing = count - len(self.requests)
        if self.hot or missing <= 0:
            return
        start, half = len(self.requests), (missing + 1) // 2
        parts = [(start, half), (start + half, missing - half)]
        children = [self._builder(first, size) for first, size in parts]
        try:
            outputs = [child.communicate()[0] for child in children]
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
        for child, output in zip(children, outputs):
            if child.returncode != 0:
                raise RuntimeError(f"request builder exited with {child.returncode}")
            self._extend(pickle.loads(output))

    def _builder(self, start: int, count: int) -> subprocess.Popen:
        """A child interpreter that pickles ``build_requests`` to its stdout."""
        code = (
            "import pickle, sys\n"
            "from perfbench.serving import build_requests\n"
            f"built = build_requests('cold', {self.seed}, {start}, {count})\n"
            "pickle.dump(built, sys.stdout.buffer)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.root / "src"), str(self.root)]
        ))
        return subprocess.Popen(
            [sys.executable, "-c", code], cwd=self.root, env=env,
            stdout=subprocess.PIPE,
        )

    def __len__(self) -> int:
        return len(self.requests)

    def window(self, start: int, count: int) -> Tuple[list, ...]:
        """Bodies, ops, verdicts and sizes of ``count`` requests from ``start``,
        cycling (the hot pool repeats)."""
        picks = [(start + k) % len(self) for k in range(count)]
        return tuple(
            [column[i] for i in picks]
            for column in (self.bodies, self.ops, self.expected, self.facts)
        )


def build_requests(source: str, seed: int, start: int, count: int) -> list:
    """Requests and their reference verdicts (a child interpreter builds the cold ones)."""
    if source == "hot":
        pairs = problems.hot_pool(seed)
    else:
        pairs = problems.cold_stream(seed, count, start=start)
    return [(request, problems.reference(request, p)) for request, p in pairs]


# -- the live run ----------------------------------------------------------------


def _cpu_seconds(pids: Sequence[int]) -> float:
    """CPU seconds the threads of ``pids`` have run so far (``schedstat``, in ns)."""
    total = 0
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:  # the thread ended since listdir
                continue
    return total / 1e9


def counters(stats: Dict[str, Any]) -> Dict[str, float]:
    """Server counters summed over the daemon, or over every fleet worker."""
    sources = [stats]
    if "worker_stats" in stats:
        sources = [s for s in stats["worker_stats"].values() if s]
    summed: Dict[str, float] = {}
    for source in sources:
        for name, value in source["counters"].items():
            summed[name] = summed.get(name, 0) + value
    if "workers" in stats:
        dispatches = [w["dispatches"] for w in stats["workers"].values()]
        summed["fleet.dispatches"] = sum(dispatches)
        summed["fleet.dispatches_max"] = max(dispatches)
        summed["fleet.redispatched"] = stats["counters"].get("fleet.redispatched", 0)
    return summed


def boot(root: Path, scratch: Path, config: dict, stream: Stream, setups: int):
    """Set the server up ``setups`` times; keep the last, report the median.

    Set-up ends after a warm-up pass: hot workloads send their whole pool (and
    check every answer); the cold workload sends one throwaway problem of each
    shape and op, so lazy imports are done but no cache holds a timed request.
    """
    if stream.hot:
        warmup, expected = stream.requests, stream.expected
    else:
        warmup = [r for r, _ in problems.cold_stream(stream.seed, 24, start=10**6)]
        expected = [None] * len(warmup)
    times = []
    daemon = None
    for attempt in range(setups):
        if daemon is not None:
            daemon.stop()
        state = scratch / f"setup-{attempt}"
        shutil.rmtree(state, ignore_errors=True)
        started = time.perf_counter()
        daemon = loadgen.Daemon(root, state, workers=config["workers"])
        try:
            responses = asyncio.run(loadgen.closed_loop(daemon.port, warmup))
            times.append(time.perf_counter() - started)
            for request, response, want in zip(warmup, responses, expected):
                if not response.get("ok") or (
                    want is not None
                    and problems.verdict(request["op"], response["result"]) != want
                ):
                    raise RuntimeError(f"warm-up answered wrongly: {response}")
        except BaseException:
            daemon.stop()
            raise
    return daemon, statistics.median(times)


def run_rung(daemon, stream: Stream, offset: int, rate: float, seconds: float, seed: str):
    schedule = loadgen.arrivals(seed, rate, seconds)
    stream.ensure(offset + len(schedule))
    rung = loadgen.Rung(rate, seconds)
    bodies, ops, expected, facts = stream.window(offset, len(schedule))
    # A collection pause in the generator would read as server latency.
    gc.collect()
    gc.disable()
    try:
        asyncio.run(loadgen.open_loop(
            daemon.port, bodies, ops, expected, facts, rung, schedule,
            CONNECTIONS, problems.verdict,
        ))
    finally:
        gc.enable()
    return rung, len(schedule)


def _length(config: dict, index: int, scale: float) -> float:
    """Seconds rung ``index`` of the ladder lasts."""
    return (config["base_s"], config["load_s"], config["probe_s"])[min(index, 2)] * scale


def ladder(daemon, config: dict, stream: Stream, seed: int, scale: float) -> dict:
    """Base rung, load rung, then probes upward until one misses a condition."""
    pids = daemon.pids()
    rungs: Dict[float, loadgen.Rung] = {}
    windows: Dict[float, Tuple[int, int]] = {}
    offset = 0
    cpu = peak_rss_mb = 0.0
    for index, rate in enumerate(config["ladder"]):
        if index > 1 and not rungs[config["ladder"][index - 1]].meets(config["limit_ms"]):
            break
        before = _cpu_seconds(pids) if index == 1 else 0.0
        rung, used = run_rung(
            daemon, stream, offset, rate, _length(config, index, scale), f"{seed}:{rate}"
        )
        if index == 1:
            cpu = _cpu_seconds(pids) - before
            peak_rss_mb = sum(loadgen.vm_hwm_mb(pid) for pid in pids)
        windows[rate] = (offset, used)
        if not config["hot"]:
            offset += used
        rungs[rate] = rung
    return {"rungs": rungs, "windows": windows, "load_cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb, "pids": pids}


def end_to_end(config: dict, run: dict, setup_s: float) -> Tuple[Dict, Dict]:
    """The workload's end-to-end figures and its failure accounting."""
    rungs = run["rungs"]
    base, load = (rungs[rate] for rate in config["ladder"][:2])
    figures: Dict[str, Optional[float]] = {
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "rows_per_s": load.facts_ok / run["load_cpu_s"] if run["load_cpu_s"] else None,
        "p50_ms.load": load.p(0.5),
        "p50_ms.base": base.p(0.5),
    }
    for name, rung in (("base", base), ("load", load)):
        sample = rung.sent
        figures[f"p99_ms.{name}"] = rung.p(0.99) if supported(sample, 0.99) else None
    passing = [rate for rate, rung in rungs.items() if rung.meets(config["limit_ms"])]
    figures["knee_rps"] = max(passing) if passing else None
    attempted = sum(rung.sent for rung in rungs.values())
    # Refusals on the probes above the load rate are how the knee is found;
    # at the two fixed rates, and for wrong answers anywhere, they are failures.
    failed = sum(rung.wrong + rung.errors for rung in rungs.values())
    failed += base.refused + load.refused
    figures["failed_share"] = failed / attempted
    top = max(rungs)
    accounting = {
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(rung.wrong for rung in rungs.values()),
        "errors": sum(rung.errors for rung in rungs.values()),
        "knee_clamped": top == config["ladder"][-1] and rungs[top].meets(config["limit_ms"]),
        "late_p99_ms": percentile(
            [late for rung in rungs.values() for late in rung.late_ms], 0.99
        ),
        "rungs": {
            str(rate): {
                "sent": rung.sent, "ok": rung.ok, "refused": rung.refused,
                "wrong": rung.wrong, "errors": rung.errors,
                "achieved": rung.achieved, "p50_ms": rung.p(0.5),
                "p99_ms": rung.p(0.99), "meets_limit": rung.meets(config["limit_ms"]),
            }
            for rate, rung in sorted(rungs.items())
        },
    }
    return figures, accounting


# -- the in-process replay ---------------------------------------------------------


def replay(
    stream: Stream, picks: Sequence[int], tracer: Tracer, store_path: Path,
    warm: bool,
) -> List[float]:
    """Run ``picks`` through the daemon's call sequence; per-request seconds.

    A fresh service, result store and parsed-problem cache per replay, as in a
    freshly started daemon; ``warm`` first sends every pool request once,
    untimed and untraced, as the live run's warm-up does.
    """
    for stale in (store_path, Path(f"{store_path}-wal"), Path(f"{store_path}-shm")):
        if stale.exists():
            stale.unlink()
    durations: List[float] = []
    with SqliteStore(str(store_path)) as store:
        service = RepairService(ServiceConfig(cache_size=2048), store=store)
        parsed = LRUCache(128)
        if warm:
            quiet = Tracer(enabled=False)
            for index in range(len(stream)):
                _serve_one(stream, index, index, service, parsed, quiet)
        for position, index in enumerate(picks):
            started = time.perf_counter()
            _serve_one(stream, index, position, service, parsed, tracer)
            durations.append(time.perf_counter() - started)
            if tracer.enabled:
                _remeasure(stream, index, position, parsed, tracer)
    return durations


def _problem_key(document: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _serve_one(stream, index, position, service, parsed, tracer) -> None:
    """One request through parse → decode → service → encode, as the daemon."""
    line = (b'{"id":%d,' % position + stream.bodies[index]).decode()
    with tracer.span("request", request=position):
        with tracer.span("server.parse", request=position):
            request = parse_request(line.strip())
            payload = request.payload
            key = _problem_key(payload["problem"])
            prioritizing = parsed.get(key)
        with tracer.span("io.decode", request=position):
            if prioritizing is None:
                prioritizing = prioritizing_from_dict(payload["problem"])
                parsed.put(key, prioritizing)
            if request.op == "check":
                candidate = candidate_from_spec(prioritizing, payload["candidate"])
            elif request.op == "count":
                query = query_from_dict(payload["query"])
        with tracer.span("service.run", request=position):
            if request.op == "check":
                result = service.run_job(RepairJob(
                    job_id=str(position), prioritizing=prioritizing,
                    candidate=candidate, node_budget=payload.get("budget"),
                ))
            elif request.op == "repair":
                result = service.run_compute(ComputeJob(
                    job_id=str(position), prioritizing=prioritizing,
                    kind="repair", seed=payload.get("seed", 0),
                    node_budget=payload.get("budget"),
                ))
            else:
                result = service.run_compute(ComputeJob(
                    job_id=str(position), prioritizing=prioritizing,
                    kind="count", query=query,
                ))
        with tracer.span("server.encode", request=position):
            encode_response(ok_response(request.request_id, result=result.to_dict()))


#: Span name of each op's re-measured core/compute work.
_SOLVER_SPAN = {"check": "core.check", "repair": "compute.repair", "count": "compute.count"}


def _remeasure(stream, index, position, parsed, tracer) -> None:
    """Time the fingerprint and the solver alone on the same inputs.

    Both already ran inside ``service.run`` (on a miss); these spans sit beside
    the request, not inside it, and are left out of the tracing overhead.
    """
    request = stream.requests[index]
    prioritizing = parsed.get(_problem_key(request["problem"]))
    with tracer.span("service.fingerprint", request=position):
        if request["op"] == "check":
            fingerprint_check_request(
                prioritizing,
                candidate_from_spec(prioritizing, request["candidate"]),
                node_budget=request.get("budget"),
            )
        else:
            fingerprint_compute_request(
                prioritizing, request["op"], seed=request.get("seed", 0),
                node_budget=request.get("budget"),
                query=query_from_dict(request["query"]) if "query" in request else None,
            )
    with tracer.span(_SOLVER_SPAN[request["op"]], request=position):
        verdict = problems.reference(request, prioritizing)
    tracer.spans[-1]["status"] = verdict[1]
