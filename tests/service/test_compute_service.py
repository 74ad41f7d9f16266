"""`RepairService.run_compute`: the compute jobs ride the full pipeline.

``repair`` and ``count`` jobs must get the same operational guarantees
as checks — result cache (in a disjoint fingerprint namespace), retry
with backoff, circuit breaker, the durable store, cancellation — without an
exception ever escaping ``run_compute``.
"""

import pytest

from repro.core import Fact, PriorityRelation, PrioritizingInstance
from repro.cqa import Atom, ConjunctiveQuery
from repro.exceptions import TransientWorkerError, UsageError
from repro.service import (
    ComputeJob,
    RepairService,
    ServiceConfig,
    SqliteStore,
    fingerprint_check_request,
)
from repro.service.policy import ComputeOutcome

from tests.helpers import single_fd_schema


def serial_service(**kwargs):
    config_fields = kwargs.pop("config_fields", {})
    config_fields.setdefault("executor", "serial")
    return RepairService(
        ServiceConfig(**config_fields), sleep=lambda _seconds: None, **kwargs
    )


@pytest.fixture
def problem():
    schema = single_fd_schema()
    f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    instance = schema.instance([f, g])
    return PrioritizingInstance(schema, instance, PriorityRelation([(f, g)]))


QUERY = ConjunctiveQuery((), (Atom("R", (1, "a")),))


class TestRepairJobs:
    def test_repair_job_round_trip(self, problem):
        service = serial_service()
        result = service.run_compute(
            ComputeJob("j1", problem, kind="repair", semantics="global")
        )
        assert result.status == "ok"
        assert result.kind == "repair"
        assert not result.cache_hit
        assert result.attempts == 1
        assert result.fingerprint
        kept = {
            (entry["relation"], tuple(entry["values"]))
            for entry in result.payload["repair"]
        }
        assert kept == {("R", (1, "a"))}
        assert result.payload["rounds"] == 1

    def test_verdict_shape(self, problem):
        service = serial_service()
        result = service.run_compute(ComputeJob("j1", problem))
        assert result.verdict() == {
            "job_id": "j1",
            "kind": "repair",
            "status": "ok",
            "semantics": "global",
            "payload": result.payload,
        }

    def test_second_submission_is_a_cache_hit(self, problem):
        service = serial_service()
        first = service.run_compute(ComputeJob("j1", problem))
        second = service.run_compute(ComputeJob("j2", problem))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.attempts == 0
        assert second.job_id == "j2"
        assert second.payload == first.payload
        assert service.metrics.counter("cache.hits").value == 1

    def test_semantics_and_seed_split_the_cache(self, problem):
        service = serial_service()
        service.run_compute(ComputeJob("j1", problem, semantics="global"))
        other = service.run_compute(
            ComputeJob("j2", problem, semantics="pareto")
        )
        reseeded = service.run_compute(ComputeJob("j3", problem, seed=5))
        assert not other.cache_hit
        assert not reseeded.cache_hit


class TestCountJobs:
    def test_count_job_round_trip(self, problem):
        service = serial_service()
        result = service.run_compute(
            ComputeJob("c1", problem, kind="count", query=QUERY)
        )
        assert result.status == "ok"
        assert result.kind == "count"
        assert result.payload["entailing"] == 1
        assert result.payload["total"] == 1
        assert result.payload["fraction"] == 1.0
        assert result.payload["exact"] is True

    def test_count_and_repair_keys_are_disjoint(self, problem):
        service = serial_service()
        service.run_compute(ComputeJob("j1", problem, kind="repair"))
        count = service.run_compute(
            ComputeJob("c1", problem, kind="count", query=QUERY)
        )
        assert not count.cache_hit

    def test_count_requires_a_query(self, problem):
        with pytest.raises(UsageError):
            ComputeJob("c1", problem, kind="count")

    def test_unknown_kind_rejected(self, problem):
        with pytest.raises(UsageError):
            ComputeJob("x1", problem, kind="classify")


class TestComputeFingerprints:
    def test_disjoint_from_check_namespace(self, problem):
        """A check on the same problem never collides with a compute."""
        service = serial_service()
        compute_key = service._compute_cache_key(ComputeJob("j1", problem))
        check_key = fingerprint_check_request(
            problem, problem.instance, "global", node_budget=None
        )
        assert compute_key != check_key


class TestErrorPaths:
    def test_bad_semantics_is_an_error_result_not_an_exception(
        self, problem
    ):
        service = serial_service()
        result = service.run_compute(
            ComputeJob("j1", problem, semantics="majority")
        )
        assert result.status == "error"
        assert "UsageError" in result.reason

    def test_error_results_are_not_cached(self, problem):
        service = serial_service()
        for job_id in ("j1", "j2"):
            result = service.run_compute(
                ComputeJob(job_id, problem, semantics="majority")
            )
            assert result.status == "error"
            assert not result.cache_hit
        assert service.metrics.counter("cache.misses").value == 2

    def test_cancel_event_short_circuits(self, problem):
        class AlwaysSet:
            def is_set(self):
                return True

        service = serial_service(cancel=AlwaysSet())
        result = service.run_compute(ComputeJob("j1", problem))
        assert result.status == "error"
        assert "cancelled" in result.reason
        assert service.metrics.counter("jobs.cancelled").value == 1


class TestRetryAndBreaker:
    def test_transient_failures_are_retried(self, problem):
        calls = []

        def flaky_runner(job, node_budget, timeout):
            calls.append(job.job_id)
            if len(calls) == 1:
                raise TransientWorkerError("socket wobble")
            return ComputeOutcome(
                status="ok", semantics=job.semantics, method="stub"
            )

        service = serial_service(compute_runner=flaky_runner)
        result = service.run_compute(ComputeJob("j1", problem))
        assert result.status == "ok"
        assert result.attempts == 2
        assert service.metrics.counter("jobs.retries").value == 1

    def test_persistent_transient_failure_becomes_error(self, problem):
        def dead_runner(job, node_budget, timeout):
            raise TransientWorkerError("always down")

        service = serial_service(
            compute_runner=dead_runner, config_fields={"max_retries": 2}
        )
        result = service.run_compute(ComputeJob("j1", problem))
        assert result.status == "error"
        assert result.attempts == 3
        assert "transient failure persisted" in result.reason

    def test_unexpected_crash_is_contained(self, problem):
        def broken_runner(job, node_budget, timeout):
            raise RuntimeError("attribute typo deep in a worker")

        service = serial_service(compute_runner=broken_runner)
        result = service.run_compute(ComputeJob("j1", problem))
        assert result.status == "error"
        assert "RuntimeError" in result.reason

    def test_breaker_fast_fails_a_dying_problem(self, problem):
        def broken_runner(job, node_budget, timeout):
            raise RuntimeError("dead worker")

        service = serial_service(
            compute_runner=broken_runner,
            config_fields={"breaker_threshold": 2, "max_retries": 0},
        )
        for job_id in ("j1", "j2"):
            service.run_compute(ComputeJob(job_id, problem))
        fast_failed = service.run_compute(ComputeJob("j3", problem))
        assert fast_failed.status == "error"
        assert "circuit breaker open" in fast_failed.reason
        assert service.metrics.counter("breaker.fast_fails").value >= 1


class TestStore:
    def test_compute_results_store_round_trip(self, problem, tmp_path):
        path = tmp_path / "compute.sqlite"
        with SqliteStore(path) as store:
            service = serial_service(store=store)
            repair = service.run_compute(ComputeJob("j1", problem))
            count = service.run_compute(
                ComputeJob("c1", problem, kind="count", query=QUERY)
            )
            assert service.metrics.counter("store.appended").value == 2
        # A fresh service over the reopened store answers both from it.
        with SqliteStore(path) as store:
            service = serial_service(store=store)
            warm_repair = service.run_compute(ComputeJob("j1", problem))
            warm_count = service.run_compute(
                ComputeJob("c1", problem, kind="count", query=QUERY)
            )
            assert service.metrics.counter("store.hits").value == 2
        assert warm_repair.cache_hit and warm_count.cache_hit
        assert (warm_repair.kind, warm_count.kind) == ("repair", "count")
        assert warm_repair.payload == repair.payload
        assert warm_count.payload == count.payload
        assert warm_repair.fingerprint == repair.fingerprint

    def test_error_results_are_not_stored(self, problem, tmp_path):
        with SqliteStore(tmp_path / "compute.sqlite") as store:
            service = serial_service(store=store)
            result = service.run_compute(
                ComputeJob("j1", problem, semantics="bad")
            )
            assert result.status == "error"
            assert len(store) == 0
            assert service.metrics.counter("store.appended").value == 0
