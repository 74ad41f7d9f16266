"""Unit tests for the resilience primitives and their service wiring.

Covers the seeded retry jitter (including the property that the serial
retry loop and the process-pool worker copy emit identical
attempt/delay sequences), the circuit-breaker state machine under a
fake clock, pool-supervisor accounting, and the optional 4-argument
runner seam.
"""

from __future__ import annotations

import pytest

from repro.exceptions import TransientWorkerError, UsageError
from repro.service import (
    CircuitBreaker,
    MetricsRegistry,
    RepairJob,
    RepairService,
    RetryPolicy,
    ServiceConfig,
    unit_interval,
)
from repro.service.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    PoolSupervisor,
    call_runner,
    runner_accepts_attempt,
)
from repro.service.service import _process_attempt


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestUnitInterval:
    def test_deterministic_and_in_range(self):
        values = [unit_interval(7, "job", k) for k in range(50)]
        assert values == [unit_interval(7, "job", k) for k in range(50)]
        assert all(0.0 <= value < 1.0 for value in values)

    def test_sensitive_to_every_part(self):
        base = unit_interval(0, "a", 1)
        assert base != unit_interval(1, "a", 1)
        assert base != unit_interval(0, "b", 1)
        assert base != unit_interval(0, "a", 2)


class TestRetryPolicy:
    def test_bound_is_capped_exponential(self):
        policy = RetryPolicy(0.5, 1.0)
        assert [policy.bound(k) for k in range(1, 5)] == [0.5, 1.0, 1.0, 1.0]

    def test_delay_jittered_below_bound(self):
        policy = RetryPolicy(0.05, 1.0, seed=3)
        for attempt in range(1, 8):
            delay = policy.delay("job-1", attempt)
            assert 0.0 <= delay < policy.bound(attempt)

    def test_delay_deterministic_per_seed(self):
        first = RetryPolicy(0.05, 1.0, seed=3)
        second = RetryPolicy(0.05, 1.0, seed=3)
        other = RetryPolicy(0.05, 1.0, seed=4)
        sequence = [first.delay("j", k) for k in range(1, 6)]
        assert sequence == [second.delay("j", k) for k in range(1, 6)]
        assert sequence != [other.delay("j", k) for k in range(1, 6)]

    def test_rejects_negative_parameters(self):
        with pytest.raises(UsageError):
            RetryPolicy(-0.1, 1.0)
        with pytest.raises(UsageError):
            RetryPolicy(0.1, -1.0)


class TestRetryLoopsAgree:
    """The serial retry loop and the process-worker copy must emit
    identical attempt/delay sequences for the same seed (same fault
    schedule, same jitter) — otherwise executor choice would change
    retry timing and fault-plan alignment."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("failures", [1, 2, 3])
    def test_sequences_identical(
        self, simple_problem, monkeypatch, seed, failures
    ):
        prioritizing, optimal, _ = simple_problem
        job = RepairJob("j-agree", prioritizing, optimal)

        def flaky(counter):
            def runner(job, node_budget, timeout, attempt):
                counter.append(attempt)
                if len(counter) <= failures:
                    raise TransientWorkerError(f"boom {len(counter)}")
                from repro.service.policy import execute_check

                return execute_check(
                    job.prioritizing, job.candidate, job.semantics,
                    job.method, node_budget, timeout,
                )

            return runner

        serial_attempts, serial_sleeps = [], []
        service = RepairService(
            ServiceConfig(
                executor="serial",
                max_retries=4,
                backoff_base=0.05,
                backoff_cap=1.0,
                backoff_seed=seed,
            ),
            runner=flaky(serial_attempts),
            sleep=serial_sleeps.append,
        )
        outcome, attempts, _ = service._attempt_with_retry(job)

        worker_attempts, worker_sleeps = [], []
        monkeypatch.setattr(
            "repro.service.service.time.sleep", worker_sleeps.append
        )
        worker_outcome, worker_attempt_count, _ = _process_attempt(
            job,
            node_budget=100_000,
            timeout=None,
            max_retries=4,
            backoff_base=0.05,
            backoff_cap=1.0,
            backoff_seed=seed,
            runner=flaky(worker_attempts),
        )

        assert serial_attempts == worker_attempts
        assert serial_sleeps == worker_sleeps
        assert attempts == worker_attempt_count
        assert outcome.status == worker_outcome.status == "ok"
        # One sleep per failed non-final attempt, none after the last.
        assert len(serial_sleeps) == attempts - 1

    def test_no_sleep_after_final_failed_attempt(self, simple_problem):
        prioritizing, optimal, _ = simple_problem
        job = RepairJob("j-exhaust", prioritizing, optimal)
        sleeps = []

        def always_fails(job, node_budget, timeout):
            raise TransientWorkerError("always")

        service = RepairService(
            ServiceConfig(executor="serial", max_retries=2),
            runner=always_fails,
            sleep=sleeps.append,
        )
        outcome, attempts, _ = service._attempt_with_retry(job)
        assert outcome.status == "error"
        assert outcome.worker_failure
        assert attempts == 3
        assert len(sleeps) == 2  # failed attempts 1 and 2 slept; 3 did not

    def test_attempt_base_shifts_global_attempt_index(self, simple_problem):
        prioritizing, optimal, _ = simple_problem
        job = RepairJob("j-base", prioritizing, optimal)
        seen = []

        def recording(job, node_budget, timeout, attempt):
            seen.append(attempt)
            from repro.service.policy import execute_check

            return execute_check(
                job.prioritizing, job.candidate, job.semantics, job.method,
                node_budget, timeout,
            )

        service = RepairService(
            ServiceConfig(executor="serial"), runner=recording
        )
        service._attempt_with_retry(job, attempt_base=3)
        assert seen == [4]


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = FakeClock()
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            threshold, reset, clock=clock, metrics=metrics
        )
        return breaker, clock, metrics

    def test_closed_until_threshold(self):
        breaker, _, metrics = self.make(threshold=3)
        for _ in range(2):
            assert breaker.allow("p")
            breaker.record("p", failure=True)
        assert breaker.state_of("p") == CLOSED
        assert breaker.allow("p")
        breaker.record("p", failure=True)
        assert breaker.state_of("p") == OPEN
        assert not breaker.allow("p")
        assert metrics.counter("breaker.open").value == 1

    def test_success_resets_consecutive_count(self):
        breaker, _, _ = self.make(threshold=2)
        breaker.record("p", failure=True)
        breaker.record("p", failure=False)
        breaker.record("p", failure=True)
        assert breaker.state_of("p") == CLOSED

    def test_half_open_probe_after_reset(self):
        breaker, clock, metrics = self.make(threshold=1, reset=10.0)
        breaker.record("p", failure=True)
        assert not breaker.allow("p")
        clock.advance(9.9)
        assert not breaker.allow("p")
        clock.advance(0.2)
        assert breaker.allow("p")  # the single half-open probe
        assert breaker.state_of("p") == HALF_OPEN
        assert not breaker.allow("p")  # probe in flight: nothing else
        breaker.record("p", failure=False)
        assert breaker.state_of("p") == CLOSED
        assert breaker.allow("p")
        assert metrics.counter("breaker.close").value == 1

    def test_failed_probe_reopens_and_restarts_timer(self):
        breaker, clock, _ = self.make(threshold=1, reset=10.0)
        breaker.record("p", failure=True)
        clock.advance(10.0)
        assert breaker.allow("p")
        breaker.record("p", failure=True)
        assert breaker.state_of("p") == OPEN
        clock.advance(5.0)
        assert not breaker.allow("p")  # timer restarted at re-open
        clock.advance(5.0)
        assert breaker.allow("p")

    def test_keys_are_independent(self):
        breaker, _, _ = self.make(threshold=1)
        breaker.record("p", failure=True)
        assert not breaker.allow("p")
        assert breaker.allow("q")

    def test_threshold_zero_disables(self):
        breaker, _, _ = self.make(threshold=0)
        assert not breaker.enabled
        for _ in range(10):
            breaker.record("p", failure=True)
            assert breaker.allow("p")


class TestBreakerServiceWiring:
    def test_worker_failures_trip_then_fast_fail(self, simple_problem):
        prioritizing, optimal, _ = simple_problem

        def always_fails(job, node_budget, timeout):
            raise TransientWorkerError("dead problem")

        service = RepairService(
            ServiceConfig(
                executor="serial",
                max_retries=0,
                breaker_threshold=2,
                breaker_reset_seconds=3600.0,
            ),
            runner=always_fails,
            sleep=lambda _s: None,
        )
        # Distinct node budgets keep the fingerprints distinct (no
        # in-batch dedup) while sharing the breaker's problem key.
        jobs = [
            RepairJob(
                f"j{k}", prioritizing, optimal, priority=-k,
                node_budget=1000 + k,
            )
            for k in range(5)
        ]
        report = service.run_batch(jobs)
        assert [r.status for r in report.results] == ["error"] * 5
        # Jobs 1-2 executed and tripped the breaker; 3-5 fast-failed.
        assert service.metrics.counter("breaker.open").value == 1
        assert service.metrics.counter("breaker.fast_fails").value == 3
        fast_failed = [r for r in report.results if r.attempts == 0]
        assert len(fast_failed) == 3
        assert all("circuit breaker" in r.reason for r in fast_failed)

    def test_deterministic_job_errors_never_trip(self, simple_problem):
        prioritizing, optimal, _ = simple_problem
        service = RepairService(
            ServiceConfig(
                executor="serial", breaker_threshold=1,
            ),
        )
        # Unknown semantics: a deterministic error on every job
        # (distinct budgets defeat in-batch dedup).
        jobs = [
            RepairJob(
                f"j{k}", prioritizing, optimal, semantics="bogus",
                node_budget=1000 + k,
            )
            for k in range(4)
        ]
        report = service.run_batch(jobs)
        assert all(r.status == "error" for r in report.results)
        assert service.metrics.counter("breaker.open").value == 0
        assert service.metrics.counter("breaker.fast_fails").value == 0

    def test_breaker_disabled_by_default_threshold_zero(
        self, simple_problem
    ):
        prioritizing, optimal, _ = simple_problem
        service = RepairService(
            ServiceConfig(executor="serial", breaker_threshold=0),
        )
        result = service.check(prioritizing, optimal)
        assert result.status == "ok"


class TestPoolSupervisor:
    def test_budget_accounting(self):
        metrics = MetricsRegistry()
        supervisor = PoolSupervisor(2, metrics=metrics)
        assert supervisor.can_restart()
        supervisor.record_restart(lost_jobs=3)
        assert supervisor.can_restart()
        supervisor.record_restart(lost_jobs=1)
        assert not supervisor.can_restart()
        assert metrics.counter("pool.restarts").value == 2
        assert metrics.counter("pool.lost_jobs").value == 4

    def test_zero_budget_never_restarts(self):
        assert not PoolSupervisor(0).can_restart()


class TestRunnerSeam:
    def test_three_arg_runner_detected(self):
        def legacy(job, node_budget, timeout):
            return "three"

        assert not runner_accepts_attempt(legacy)
        assert call_runner(legacy, False, None, None, None, 5) == "three"

    def test_four_arg_runner_detected(self):
        def modern(job, node_budget, timeout, attempt):
            return attempt

        assert runner_accepts_attempt(modern)
        assert call_runner(modern, True, None, None, None, 5) == 5

    def test_var_positional_counts_as_attempt_aware(self):
        def splat(*args):
            return args[-1]

        assert runner_accepts_attempt(splat)

    def test_unsignaturable_callable_defaults_to_legacy(self):
        assert not runner_accepts_attempt(dict.get)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_pool_restarts", -1),
            ("breaker_threshold", -1),
            ("breaker_reset_seconds", -0.5),
        ],
    )
    def test_negative_resilience_knobs_rejected(self, field, value):
        with pytest.raises(UsageError):
            ServiceConfig(**{field: value})

    def test_well_known_counters_present_in_snapshot(self, simple_problem):
        prioritizing, optimal, _ = simple_problem
        service = RepairService(ServiceConfig(executor="serial"))
        report = service.run_batch(
            [RepairJob("j1", prioritizing, optimal)]
        )
        counters = report.metrics["counters"]
        for name in (
            "breaker.open",
            "breaker.fast_fails",
            "pool.restarts",
            "pool.lost_jobs",
            "jobs.cancelled",
        ):
            assert name in counters, name
            assert counters[name] == 0
