"""Unit tests for the metrics registry (`repro.service.metrics`)."""

import json
import threading

import pytest

from repro.service.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    LatencyHistogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increment(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_monotone(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_thread_safe(self):
        counter = Counter()
        threads = [
            threading.Thread(
                target=lambda: [counter.increment() for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestLatencyHistogram:
    def test_count_mean_min_max(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(0.002)
        snap = hist.snapshot()
        assert snap["min"] == 0.001
        assert snap["max"] == 0.003

    def test_bucket_assignment(self):
        hist = LatencyHistogram(buckets=(0.01, 0.1))
        hist.observe(0.005)   # le_0.01
        hist.observe(0.05)    # le_0.1
        hist.observe(5.0)     # overflow
        snap = hist.snapshot()
        assert snap["buckets"] == {"le_0.01": 1, "le_0.1": 1}
        assert snap["overflow"] == 1

    def test_quantile_upper_bound(self):
        hist = LatencyHistogram(buckets=DEFAULT_BUCKETS)
        for _ in range(99):
            hist.observe(0.00015)
        hist.observe(20.0)
        assert hist.quantile(0.5) == 0.0002  # the 1-2-5 step above 0.15 ms
        assert hist.quantile(1.0) == 20.0  # max for the overflow bucket

    def test_p99_resolves_millisecond_latencies(self):
        # 1-5-10 buckets reported this p99 as 5 ms, 4.5x the truth.
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(0.0011)
        assert hist.quantile(0.99) <= 0.002

    def test_quantile_never_exceeds_max(self):
        hist = LatencyHistogram()
        for value in (0.0011, 0.0012, 0.0013):
            hist.observe(value)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) <= 0.0013

    def test_quantile_validation_and_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestMetricsRegistry:
    def test_counters_and_histograms_autocreate(self):
        metrics = MetricsRegistry()
        metrics.counter("a").increment()
        metrics.histogram("h").observe(0.01)
        assert metrics.counter("a") is metrics.counter("a")
        snap = metrics.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["histograms"]["h"]["count"] == 1

    def test_event_log_ordering_and_bound(self):
        metrics = MetricsRegistry(event_capacity=3)
        for index in range(5):
            metrics.record_event("tick", index=index)
        events = metrics.events
        assert len(events) == 3
        assert [event["index"] for event in events] == [2, 3, 4]
        assert [event["seq"] for event in events] == [3, 4, 5]

    def test_time_contextmanager(self):
        metrics = MetricsRegistry()
        with metrics.time("latency.block"):
            pass
        assert metrics.histogram("latency.block").count == 1

    def test_snapshot_is_json_ready(self):
        metrics = MetricsRegistry()
        metrics.counter("jobs.ok").increment()
        metrics.histogram("latency.GRepCheck1FD").observe(0.003)
        metrics.record_event("job", job_id="j1", status="ok")
        json.dumps(metrics.snapshot())  # must not raise

    def test_render_mentions_everything(self):
        metrics = MetricsRegistry()
        metrics.counter("jobs.ok").increment(2)
        metrics.histogram("latency.brute-force").observe(0.2)
        text = metrics.render()
        assert "jobs.ok" in text
        assert "latency.brute-force" in text
        assert "events recorded: 0" in text
