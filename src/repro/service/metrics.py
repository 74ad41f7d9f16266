"""Lightweight observability: counters, latency histograms, event log.

The service needs to answer "where does the time go?" without pulling in
an external metrics stack, so this module implements the three
primitives that cover the workload:

* :class:`Counter` — monotone counts (jobs by status, cache hits,
  retries);
* :class:`Gauge` — up/down levels (active connections, in-flight
  jobs), with a high-water mark so a snapshot taken after the load
  subsided still shows how busy the process got;
* :class:`LatencyHistogram` — fixed log-linear buckets over seconds,
  one histogram per deciding algorithm.  ``CheckResult.method`` already
  names the algorithm that decided each question (``GRepCheck1FD``,
  ``GRepCheck2Keys``, the ccp checkers, ``brute-force``,
  ``improvement-search``), so attribution is free;
* a bounded structured *event log* — one dict per noteworthy event
  (job completed, retry scheduled, degradation applied), in order, for
  post-hoc debugging of a batch.

Everything lives in a :class:`MetricsRegistry`, is thread-safe, and
snapshots to plain JSON-ready dicts.

Examples
--------
>>> metrics = MetricsRegistry()
>>> metrics.counter("jobs.ok").increment()
>>> metrics.histogram("latency.GRepCheck1FD").observe(0.003)
>>> metrics.record_event("job", job_id="j1", status="ok")
>>> snapshot = metrics.snapshot()
>>> snapshot["counters"]["jobs.ok"]
1
>>> snapshot["events"][0]["job_id"]
'j1'
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import UsageError

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"]

#: Default histogram bucket upper bounds, in seconds: log-linear 1-2-5
#: steps from 10 µs to 10 s (the final +inf bucket is implicit), so a
#: bucket bound over-reports the values inside it by at most 2.5x.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-5, 1)
    for mantissa in (1, 2, 5)
) + (10.0,)


class Counter:
    """A monotone counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise UsageError("counters are monotone; cannot decrement")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self._value})"


class Gauge:
    """A level that moves both ways, with a high-water mark.

    Counters are monotone by contract, so quantities like "connections
    open right now" need their own primitive; the retained maximum lets
    dashboards report peak concurrency even from a post-drain snapshot.
    """

    __slots__ = ("_value", "_high_water", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._high_water = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        """Raise the level by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise UsageError("increment takes a non-negative amount")
        with self._lock:
            self._value += amount
            self._high_water = max(self._high_water, self._value)

    def decrement(self, amount: int = 1) -> None:
        """Lower the level by ``amount`` (never below zero)."""
        if amount < 0:
            raise UsageError("decrement takes a non-negative amount")
        with self._lock:
            self._value = max(0, self._value - amount)

    @property
    def value(self) -> int:
        """The current level."""
        return self._value

    @property
    def high_water(self) -> int:
        """The highest level ever reached."""
        return self._high_water

    def snapshot(self) -> Dict[str, int]:
        """A JSON-ready ``{"value", "high_water"}`` pair."""
        with self._lock:
            return {"value": self._value, "high_water": self._high_water}

    def __repr__(self) -> str:
        return f"Gauge({self._value}, high_water={self._high_water})"


class LatencyHistogram:
    """A fixed-bucket latency histogram over seconds.

    Tracks per-bucket counts plus exact running sum/min/max, so the
    snapshot reports both the distribution shape and the true mean.
    """

    __slots__ = ("_buckets", "_counts", "_sum", "_min", "_max", "_lock")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self._buckets) + 1)  # +1: the +inf bucket
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        with self._lock:
            self._counts[bisect_left(self._buckets, seconds)] += 1
            self._sum += seconds
            self._min = seconds if self._min is None else min(self._min, seconds)
            self._max = seconds if self._max is None else max(self._max, seconds)

    @property
    def count(self) -> int:
        """How many observations have been recorded."""
        return sum(self._counts)

    @property
    def mean(self) -> float:
        """The exact mean latency (0.0 with no observations)."""
        total = self.count
        return self._sum / total if total else 0.0

    def quantile(self, q: float) -> float:
        """An upper bound on the ``q``-quantile, from the bucket bounds.

        Returns the upper bound of the bucket containing the quantile,
        capped at the recorded maximum (which is also the answer for the
        overflow bucket): no quantile exceeds the largest observation.
        """
        if not 0.0 <= q <= 1.0:
            raise UsageError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0 or self._max is None:
            return 0.0
        rank = q * total
        running = 0
        for index, bound in enumerate(self._buckets):
            running += self._counts[index]
            if running >= rank:
                return min(bound, self._max)
        return self._max

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary of the distribution."""
        with self._lock:
            return {
                "count": sum(self._counts),
                "sum": self._sum,
                "mean": self.mean,
                "min": self._min,
                "max": self._max,
                "p50": self.quantile(0.5),
                "p95": self.quantile(0.95),
                "buckets": {
                    f"le_{bound}": count
                    for bound, count in zip(self._buckets, self._counts)
                },
                "overflow": self._counts[-1],
            }


class MetricsRegistry:
    """Named counters and histograms plus a bounded structured event log.

    Counters and histograms are created on first use, so call sites
    never need registration boilerplate; the event log keeps the most
    recent ``event_capacity`` entries with a monotonically increasing
    sequence number and a monotonic-clock offset.
    """

    def __init__(self, event_capacity: int = 10000) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._events: List[Dict[str, Any]] = []
        self._event_capacity = event_capacity
        self._sequence = 0
        self._epoch = time.monotonic()
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = LatencyHistogram()
            return self._histograms[name]

    def record_event(self, kind: str, **fields: Any) -> None:
        """Append a structured event (oldest events drop on overflow)."""
        with self._lock:
            self._sequence += 1
            event = {
                "seq": self._sequence,
                "kind": kind,
                "elapsed": time.monotonic() - self._epoch,
            }
            event.update(fields)
            self._events.append(event)
            if len(self._events) > self._event_capacity:
                del self._events[: len(self._events) - self._event_capacity]

    @contextmanager
    def time(self, histogram_name: str):
        """Context manager observing the block's wall time."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.histogram(histogram_name).observe(time.monotonic() - start)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """A copy of the retained events, in order."""
        with self._lock:
            return list(self._events)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every counter, histogram, and event."""
        with self._lock:
            counters = {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            }
            gauges = {
                name: gauge.snapshot()
                for name, gauge in sorted(self._gauges.items())
            }
            histograms = {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            }
            events = list(self._events)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "events": events,
        }

    def render(self) -> str:
        """A short human-readable summary (the CLI prints this)."""
        snapshot = self.snapshot()
        lines = ["counters:"]
        for name, value in snapshot["counters"].items():
            lines.append(f"  {name:<32} {value}")
        if snapshot["gauges"]:
            lines.append("gauges (current / high water):")
            for name, data in snapshot["gauges"].items():
                lines.append(
                    f"  {name:<32} {data['value']} / {data['high_water']}"
                )
        if snapshot["histograms"]:
            lines.append("latency (seconds):")
            lines.append(
                f"  {'histogram':<32} {'count':>6} {'mean':>10} "
                f"{'p50':>8} {'p95':>8} {'max':>10}"
            )
            for name, data in snapshot["histograms"].items():
                maximum = data["max"] if data["max"] is not None else 0.0
                lines.append(
                    f"  {name:<32} {data['count']:>6} {data['mean']:>10.6f} "
                    f"{data['p50']:>8.4f} {data['p95']:>8.4f} {maximum:>10.6f}"
                )
        lines.append(f"events recorded: {len(snapshot['events'])}")
        return "\n".join(lines)
