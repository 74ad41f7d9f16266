"""Open-loop load against a live ``repro serve`` daemon or fleet.

One process, one event loop, at most ``nproc`` connections.  Arrivals are a
seeded Poisson process; every request is timed from when it was *due*, so a
stall that delays later sends shows up in their latency, and the generator's
own lateness is reported beside it.  Each response is compared with the
request's reference verdict.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import percentile

ANNOUNCE = "repro serve: listening on ('127.0.0.1', "


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of ``pid`` in MB, read from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral TCP port."""

    def __init__(self, root: Path, state: Path, workers: int = 1) -> None:
        state.mkdir(parents=True, exist_ok=True)
        self.store_path = state / "store.sqlite"
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--store", str(self.store_path)]
        if workers > 1:
            argv += ["--workers", str(workers), "--state-dir", str(state)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.workers: List[int] = []
        try:
            self.port = self._await_announce(deadline=started + 120.0)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _await_announce(self, deadline: float) -> int:
        stream = self.process.stdout
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([stream], [], [], max(remaining, 0))
            line = stream.readline() if ready else ""
            if line.startswith(ANNOUNCE):
                return int(line[len(ANNOUNCE):].split(")")[0])
            if not ready or not line:
                raise RuntimeError(f"repro serve did not announce (got {line!r})")

    def pids(self) -> List[int]:
        """The front door, plus every fleet worker it reports."""
        stats = asyncio.run(request_once(self.port, {"op": "stats"}))["stats"]
        workers = stats.get("workers", {})
        self.workers = [info["pid"] for info in workers.values() if info.get("pid")]
        return [self.process.pid] + self.workers

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs.

        A fleet's front door reaps its workers as it drains; any worker still
        running after the front door has gone is killed and waited out.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        for pid in self.workers:
            _kill_and_await(pid)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _kill_and_await(pid: int, timeout: float = 10.0) -> None:
    """SIGKILL a process that is not our child and wait until it has ended."""
    if not _running(pid):
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)


async def request_once(port: int, document: Dict[str, Any]) -> Dict[str, Any]:
    """Send one request on a fresh connection and return its response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write((json.dumps(document) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


async def closed_loop(port: int, requests: Sequence[Dict[str, Any]]) -> List[Dict]:
    """Send ``requests`` one at a time on one connection (the warm-up pass)."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=1 << 24
    )
    responses = []
    try:
        for index, request in enumerate(requests):
            writer.write((json.dumps(dict(request, id=index)) + "\n").encode())
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


def arrivals(seed: str, rate: float, duration: float) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration)``.

    A Poisson process conditioned on its count: ``rate * duration`` arrival
    times drawn uniformly and sorted.  Fixing the count keeps the work of a
    rung, and the samples behind each percentile, the same on every seed.
    """
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


@dataclass
class Rung:
    """What one fixed offered rate produced."""

    rate: float
    duration_s: float
    sent: int = 0
    ok: int = 0
    wrong: int = 0
    refused: int = 0
    errors: int = 0
    facts_ok: int = 0
    window_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    @property
    def achieved(self) -> float:
        """Correct answers per second, over the rung or until its backlog cleared."""
        return self.ok / self.window_s if self.window_s else 0.0

    @property
    def offered(self) -> float:
        """Requests sent per second (the seeded arrivals, not the nominal rate)."""
        return self.sent / self.duration_s

    def p(self, q: float) -> Optional[float]:
        """Latency percentile, counting a failed request as a miss."""
        return percentile(self.latencies_ms + [float("inf")] * self.failed, q)

    def meets(self, limit_ms: float) -> bool:
        p99 = self.p(0.99)
        return (
            self.refused == 0
            and p99 is not None
            and p99 <= limit_ms
            and self.achieved >= 0.9 * self.offered
        )


async def open_loop(
    port: int,
    bodies: Sequence[bytes],
    ops: Sequence[str],
    expected: Sequence[Tuple],
    facts: Sequence[int],
    rung: Rung,
    schedule: Sequence[float],
    connections: int,
    verdict,
) -> None:
    """Offer ``bodies[i]`` at ``schedule[i]`` and record every outcome.

    ``bodies`` are pre-encoded request objects without their opening brace,
    so a request line is its id spliced in front; nothing is encoded on the
    sending path.
    """
    loop = asyncio.get_running_loop()
    links = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        for _ in range(connections)
    ]
    due: Dict[int, float] = {}
    done = loop.create_future()
    pending = [len(schedule)]

    def settle(index: int, response: Dict[str, Any], now: float) -> None:
        started = due.pop(index, None)
        if started is None:
            return
        if response.get("ok"):
            if verdict(ops[index], response["result"]) == expected[index]:
                rung.ok += 1
                rung.facts_ok += facts[index]
                rung.latencies_ms.append((now - started) * 1000.0)
            else:
                rung.wrong += 1
        elif response.get("error", {}).get("code") == "overloaded":
            rung.refused += 1
        else:
            rung.errors += 1
        pending[0] -= 1
        if pending[0] == 0 and not done.done():
            done.set_result(now)

    async def collect(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            response = json.loads(line)
            settle(response["id"], response, now)

    collectors = [asyncio.create_task(collect(reader)) for reader, _ in links]
    start = time.perf_counter() + 0.02
    for index, offset in enumerate(schedule):
        target = start + offset
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = links[index % connections][1]
        due[index] = target
        writer.write(b'{"id":%d,' % index + bodies[index])
        rung.late_ms.append((time.perf_counter() - target) * 1000.0)
        if writer.transport.get_write_buffer_size() > 1 << 20:
            await writer.drain()
    rung.sent = len(schedule)
    if schedule:
        try:
            finished = await asyncio.wait_for(asyncio.shield(done), 30.0)
        except asyncio.TimeoutError:
            finished = time.perf_counter()
            rung.errors += len(due)
        rung.window_s = max(finished - start, rung.duration_s)
    for _, writer in links:
        writer.close()
    for task in collectors:
        task.cancel()
    await asyncio.gather(*collectors, return_exceptions=True)
    rung.stats = (await request_once(port, {"op": "stats"}))["stats"]


def encode_bodies(requests: Sequence[Dict[str, Any]]) -> List[bytes]:
    """Each request as JSON bytes minus its ``{``, newline-terminated."""
    return [json.dumps(request).encode()[1:] + b"\n" for request in requests]
