"""`RepairService`: parallel, cached, observable batch repair checking.

The front-end the rest of the repo talks to.  A batch of
:class:`~repro.service.jobs.RepairJob` goes in; a
:class:`~repro.service.jobs.BatchReport` comes out, with one
:class:`~repro.service.jobs.JobResult` per job **in submission order**.

Pipeline per batch:

1. **Schedule** — jobs are ordered by descending ``priority`` (ties by
   submission order).
2. **Cache / store** — each job's canonical fingerprint is looked up
   first in the LRU result cache and then in the optional durable
   verdict store (:mod:`repro.service.store`); hits (including
   duplicates *within* the batch) never reach a worker.  The store is
   also how an interrupted batch resumes: re-running it over the same
   store serves every verdict the first run finished.
3. **Execute** — misses run on a ``concurrent.futures`` pool
   (``"thread"``, ``"process"``, or in-line ``"serial"``), through the
   degradation policy of :mod:`repro.service.policy`: tractable
   questions use the paper's polynomial checkers, coNP-hard questions
   use the budgeted improvement search and report ``degraded`` /
   ``timeout`` instead of hanging.  The pool is **supervised**: a dead
   worker (``BrokenProcessPool``) triggers a bounded number of pool
   rebuilds that re-dispatch the lost jobs; when the resurrection
   budget runs out the lost jobs become ``status="error"`` results —
   never an exception out of ``run_batch``.
4. **Retry** — a worker raising
   :class:`~repro.exceptions.TransientWorkerError` (or ``OSError``) is
   retried with capped exponential backoff under deterministic seeded
   full jitter (:class:`~repro.service.resilience.RetryPolicy`), up to
   ``ServiceConfig.max_retries`` times; permanent failures become
   ``status="error"`` results.  A per-problem
   :class:`~repro.service.resilience.CircuitBreaker` fast-fails jobs of
   a problem whose workers keep dying instead of burning the full
   retry budget on every remaining job.
5. **Observe** — counters, per-algorithm latency histograms, and a
   structured event log accumulate in a
   :class:`~repro.service.metrics.MetricsRegistry`; every freshly
   computed deterministic result is also written through to the store
   (``store.appended``).

Determinism contract: for any fixed batch and ``node_budget``, the
``verdict()`` of every result is identical across worker counts,
executor kinds, cache temperatures, and any injected fault schedule
that eventually lets a job complete (property-tested in
``tests/properties/test_service_properties.py`` and
``tests/service/test_chaos.py``).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.classification import classification_cache_info
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance
from repro.exceptions import TransientWorkerError, UsageError
from repro.service.cache import LRUCache
from repro.service.fingerprint import (
    fingerprint_check_request,
    fingerprint_compute_request,
    fingerprint_prioritizing,
)
from repro.service.jobs import (
    BatchReport,
    ComputeJob,
    ComputeResult,
    JobResult,
    RepairJob,
)
from repro.service.metrics import MetricsRegistry
from repro.service.policy import (
    ComputeOutcome,
    Outcome,
    execute_check,
    execute_count,
    execute_repair,
)
from repro.service.resilience import (
    CircuitBreaker,
    PoolSupervisor,
    RetryPolicy,
    call_runner,
    runner_accepts_attempt,
)
from repro.service.store import STORED_STATUSES

__all__ = ["ServiceConfig", "RepairService"]

#: Exceptions the retry loop treats as transient worker failures.
TRANSIENT_EXCEPTIONS = (TransientWorkerError, OSError)

#: Counters pre-registered at service construction so every metrics
#: snapshot (and ``write_metrics_json`` output) reports them, zero or
#: not — dashboards and the serve-batch summary line rely on presence.
_WELL_KNOWN_COUNTERS = (
    "breaker.open",
    "breaker.close",
    "breaker.fast_fails",
    "pool.restarts",
    "pool.lost_jobs",
    "jobs.cancelled",
)

#: A per-job execution unit in the pool path:
#: (submission position, job, cache key, prior dispatch count).
_PoolItem = Tuple[int, RepairJob, str, int]


def _default_runner(job: RepairJob, node_budget, timeout) -> Outcome:
    """Execute one job through the degradation policy (worker side)."""
    return execute_check(
        job.prioritizing,
        job.candidate,
        semantics=job.semantics,
        method=job.method,
        node_budget=node_budget,
        timeout=timeout,
    )


def _default_compute_runner(
    job: ComputeJob, node_budget, timeout
) -> ComputeOutcome:
    """Execute one compute job through the degradation policy."""
    if job.kind == "count":
        return execute_count(
            job.query,
            job.prioritizing,
            semantics=job.semantics,
            max_repairs=job.max_repairs,
        )
    return execute_repair(
        job.prioritizing,
        semantics=job.semantics,
        seed=job.seed,
        node_budget=node_budget,
        timeout=timeout,
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`RepairService`.

    Attributes
    ----------
    workers:
        Pool size for ``"thread"`` / ``"process"`` executors.
    executor:
        ``"serial"`` (run in the calling thread; the reference
        behaviour), ``"thread"`` (default; shares the in-process caches,
        overlaps well with cache hits), or ``"process"`` (true
        parallelism for CPU-bound batches; jobs must be picklable and
        non-picklable runners fall back to the default policy).
    cache_size:
        Result-cache capacity (0 disables result caching).
    default_timeout:
        Per-job wall-clock seconds when the job does not set one
        (None = no timeout).
    default_node_budget:
        Improvement-search node budget for coNP-hard jobs when the job
        does not set one (None = unbounded, not recommended for a
        service).
    max_retries:
        How many times a transiently-failing job is re-attempted.
    backoff_base / backoff_cap:
        Exponential backoff: the ``k``-th failed attempt sleeps a
        seeded full-jitter fraction of
        ``min(backoff_base * 2**(k-1), backoff_cap)`` seconds; there is
        no sleep after the final failed attempt.
    backoff_seed:
        Seed for the deterministic jitter (the delay for a given job
        and attempt is a pure function of this seed).
    max_pool_restarts:
        How many times a broken worker pool may be rebuilt per batch
        before the jobs lost to it are reported as ``error`` results.
    breaker_threshold:
        Consecutive worker-level failures on one problem that open its
        circuit (further jobs fast-fail as ``error`` without running);
        0 disables the breaker.  Note that with the breaker enabled an
        ``error``-storming problem may fast-fail jobs that a breaker-
        free run would have executed — the breaker trades that sliver
        of determinism for not burning the retry budget on every job of
        a dead problem.  Deterministic job errors (malformed input)
        never trip it.
    breaker_reset_seconds:
        How long an open circuit waits before admitting one half-open
        probe.
    """

    workers: int = 1
    executor: str = "thread"
    cache_size: int = 2048
    default_timeout: Optional[float] = None
    default_node_budget: Optional[int] = 100_000
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    backoff_seed: int = 0
    max_pool_restarts: int = 2
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        if self.executor not in ("serial", "thread", "process"):
            raise UsageError(
                f"executor must be serial/thread/process, got {self.executor!r}"
            )
        if self.max_retries < 0:
            raise UsageError("max_retries must be >= 0")
        if self.max_pool_restarts < 0:
            raise UsageError("max_pool_restarts must be >= 0")
        if self.breaker_threshold < 0:
            raise UsageError("breaker_threshold must be >= 0")
        if self.breaker_reset_seconds < 0:
            raise UsageError("breaker_reset_seconds must be >= 0")


class RepairService:
    """A batch repair-checking service over the paper's checkers.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig` (defaults are sensible for tests and
        small batches).
    metrics / cache:
        Injectable for sharing across services or asserting in tests.
    runner:
        The per-job execution function ``(job, node_budget, timeout) ->
        Outcome`` — fault-aware runners may take a 4th ``attempt``
        argument (the global 1-based attempt index, stable across
        retries and pool rebuilds); tests and the chaos harness inject
        flaky runners to exercise the retry and supervision paths.  The
        ``"process"`` executor ships the runner to workers when it is
        picklable and falls back to the default policy otherwise.
    sleep:
        The backoff sleep function (injectable so retry tests run
        instantly).
    clock:
        The monotonic clock used for durations and the circuit breaker
        (injectable for deterministic breaker tests and the chaos
        harness's skewed clocks).
    store:
        An optional durable verdict store (the sqlite tier of
        :mod:`repro.service.store`) consulted *under* the LRU cache: an
        LRU miss falls through to ``store.get(key)``, and a store hit
        warms the LRU and is served without recomputation
        (``store.hits``).  Freshly computed deterministic results are
        written through (``store.appended``).  Because store keys are
        the same canonical fingerprints as cache
        keys, a store file shared by many service processes — the
        fleet's workers — shares every answer across them and across
        restarts, and a batch re-run over the store of an interrupted
        run recomputes only what that run did not finish.  Store
        failures degrade the cache, never a verdict.
    cancel:
        An optional ``threading.Event``; once set, jobs that have not
        started yet finish as ``error`` results (``jobs.cancelled``)
        instead of executing, letting a signal handler drain a batch
        promptly while keeping the one-result-per-job contract.

    Examples
    --------
    >>> from repro.core import Fact, PriorityRelation, Schema
    >>> from repro.core.priority import PrioritizingInstance
    >>> from repro.service.jobs import RepairJob
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    >>> pri = PrioritizingInstance(
    ...     schema, schema.instance([f, g]), PriorityRelation([(f, g)])
    ... )
    >>> service = RepairService(ServiceConfig(executor="serial"))
    >>> report = service.run_batch(
    ...     [RepairJob("j1", pri, schema.instance([f]))]
    ... )
    >>> report.results[0].status, report.results[0].is_optimal
    ('ok', True)
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[LRUCache] = None,
        runner: Optional[Callable[..., Outcome]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        cancel: Optional[object] = None,
        compute_runner: Optional[Callable[..., ComputeOutcome]] = None,
        store: Optional[object] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.cache = cache if cache is not None else LRUCache(
            self.config.cache_size
        )
        self._runner = runner or _default_runner
        self._compute_runner = compute_runner or _default_compute_runner
        self._runner_takes_attempt = runner_accepts_attempt(self._runner)
        self._sleep = sleep
        self._clock = clock
        self._cancel = cancel
        self._retry = RetryPolicy(
            self.config.backoff_base,
            self.config.backoff_cap,
            self.config.backoff_seed,
        )
        self._breaker = CircuitBreaker(
            self.config.breaker_threshold,
            self.config.breaker_reset_seconds,
            clock=clock,
            metrics=self.metrics,
        )
        self.store = store
        for name in _WELL_KNOWN_COUNTERS:
            self.metrics.counter(name)
        if store is not None:
            for name in ("store.hits", "store.misses", "store.appended"):
                self.metrics.counter(name)

    # -- single-job convenience ----------------------------------------------------

    def check(
        self,
        prioritizing: PrioritizingInstance,
        candidate: Instance,
        semantics: str = "global",
        **job_fields,
    ) -> JobResult:
        """Check one candidate through the full service pipeline."""
        job = RepairJob(
            job_id="single",
            prioritizing=prioritizing,
            candidate=candidate,
            semantics=semantics,
            **job_fields,
        )
        return self.run_batch([job]).results[0]

    # -- single-job reentrant submission -------------------------------------------

    def run_job(self, job: RepairJob) -> JobResult:
        """Run one job through the cache → breaker → retry pipeline.

        The single-request front door the async daemon drives: unlike
        :meth:`run_batch` it holds no batch-wide state, so any number of
        threads may call it concurrently against one warm service — the
        result cache, circuit breaker, retry policy, metrics registry,
        and store are all individually thread-safe.  Each call
        lands in the same ``jobs.*`` counters and ``latency.*``
        histograms as a batch job, and freshly computed deterministic
        results feed the same cache and store.

        Two concurrent calls asking the same question may both compute
        it (there is no cross-request duplicate barrier — that is batch
        bookkeeping); both produce the identical verdict and the second
        write to the cache is a no-op refresh.
        """
        key = self._cache_key(job)
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.counter("cache.hits").increment()
            result = self._reissue(cached, job, key)
        else:
            self.metrics.counter("cache.misses").increment()
            stored = self._store_lookup(key)
            if stored is not None:
                result = self._reissue(stored, job, key)
            else:
                result = self._execute_one(job, key)
        self.metrics.counter(f"jobs.{result.status}").increment()
        return result

    def run_compute(self, job: ComputeJob) -> ComputeResult:
        """Run one compute job through the full service pipeline.

        The compute analogue of :meth:`run_job`: same cache (compute
        fingerprints live in a disjoint namespace from check
        fingerprints), same circuit breaker and retry policy, same
        store and metrics — so a daemon can serve ``repair`` and
        ``count`` requests with the exact operational guarantees of
        ``check`` requests.  Reentrant for the same reasons
        :meth:`run_job` is.
        """
        key = self._compute_cache_key(job)
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.counter("cache.hits").increment()
            result = self._reissue_compute(cached, job, key)
        else:
            self.metrics.counter("cache.misses").increment()
            stored = self._store_lookup(key)
            if stored is not None and "kind" in stored:
                result = self._reissue_compute(stored, job, key)
            else:
                result = self._execute_compute(job, key)
        self.metrics.counter(f"jobs.{result.status}").increment()
        return result

    # -- batch execution ------------------------------------------------------------

    def run_batch(self, jobs: Sequence[RepairJob]) -> BatchReport:
        """Run a batch; results come back in submission order."""
        batch_start = self._clock()
        ordered = sorted(
            enumerate(jobs), key=lambda pair: (-pair[1].priority, pair[0])
        )
        results: Dict[int, JobResult] = {}
        pending: List[Tuple[int, RepairJob, str]] = []
        first_by_key: Dict[str, int] = {}
        duplicates: List[Tuple[int, RepairJob, str]] = []

        for position, job in ordered:
            key = self._cache_key(job)
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.counter("cache.hits").increment()
                results[position] = self._reissue(cached, job, key)
                continue
            if key in first_by_key:
                # An in-batch duplicate: resolved after the first
                # occurrence executes, without spending a worker on it.
                duplicates.append((position, job, key))
            else:
                self.metrics.counter("cache.misses").increment()
                stored = self._store_lookup(key)
                if stored is not None:
                    # The durable tier already answered this (this
                    # process, an interrupted earlier run, or a fleet
                    # peer); the lookup warmed the LRU for in-batch
                    # duplicates.
                    results[position] = self._reissue(stored, job, key)
                    continue
                first_by_key[key] = position
                pending.append((position, job, key))

        if pending:
            if self.config.executor == "serial" or self.config.workers == 1:
                self._run_serial(pending, results)
            else:
                self._run_pool(pending, results)

        # Within-batch duplicates reuse the first occurrence's result
        # (a cache hit in every sense that matters: no work was done).
        for position, job, key in duplicates:
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.counter("cache.hits").increment()
                results[position] = self._reissue(cached, job, key)
            else:
                first = results[first_by_key[key]]
                results[position] = self._reissue(
                    first.to_dict(), job, key, from_cache=first.status
                    in STORED_STATUSES
                )

        ordered_results = [results[position] for position in range(len(jobs))]
        for result in ordered_results:
            self.metrics.counter(f"jobs.{result.status}").increment()
        self.metrics.record_event(
            "batch",
            jobs=len(jobs),
            duration=self._clock() - batch_start,
        )
        return BatchReport(
            results=ordered_results,
            metrics=self._metrics_snapshot(),
            cache_stats=self.cache.stats(),
        )

    # -- internals -------------------------------------------------------------------

    def _store_lookup(self, key: str) -> Optional[Dict]:
        """Consult the persistent tier after an LRU miss.

        A hit warms the LRU so repeats in this process are pure memory
        lookups; the store's own checksum verification guarantees a
        returned record is exactly what some service once computed.
        """
        if self.store is None:
            return None
        record = self.store.get(key)
        if record is None:
            self.metrics.counter("store.misses").increment()
            return None
        self.metrics.counter("store.hits").increment()
        self.cache.put(key, dict(record))
        return record

    def _store_put(self, key: str, result_dict: Dict) -> None:
        """Write one fresh deterministic result through to the store."""
        if self.store is not None and self.store.put(key, result_dict):
            self.metrics.counter("store.appended").increment()

    def _cache_key(self, job: RepairJob) -> str:
        return fingerprint_check_request(
            job.prioritizing,
            job.candidate,
            semantics=job.semantics,
            method=job.method,
            node_budget=self._budget_for(job),
        )

    def _problem_key(self, job: RepairJob) -> str:
        """The circuit-breaker key: the job's prioritizing instance."""
        return fingerprint_prioritizing(job.prioritizing)

    def _budget_for(self, job: RepairJob) -> Optional[int]:
        if job.node_budget is not None:
            return job.node_budget
        return self.config.default_node_budget

    def _timeout_for(self, job: RepairJob) -> Optional[float]:
        if job.timeout is not None:
            return job.timeout
        return self.config.default_timeout

    def _cancelled_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    def _cancelled_outcome(self, job: RepairJob) -> Outcome:
        self.metrics.counter("jobs.cancelled").increment()
        return Outcome(
            status="error",
            is_optimal=None,
            semantics=job.semantics,
            method="none",
            reason="batch cancelled before this job ran "
            "(shutdown signal received)",
        )

    def _fast_fail_outcome(self, job: RepairJob, problem_key: str) -> Outcome:
        self.metrics.counter("breaker.fast_fails").increment()
        self.metrics.record_event(
            "breaker_fast_fail", job_id=job.job_id, key=problem_key
        )
        return Outcome(
            status="error",
            is_optimal=None,
            semantics=job.semantics,
            method="none",
            reason=(
                f"circuit breaker open for this problem "
                f"({problem_key[:12]}…): consecutive worker failures "
                f"reached the threshold "
                f"({self.config.breaker_threshold})"
            ),
            worker_failure=True,
        )

    def _reissue(
        self,
        cached: Mapping,
        job: RepairJob,
        key: str,
        from_cache: bool = True,
    ) -> JobResult:
        return JobResult(
            job_id=job.job_id,
            status=cached["status"],
            is_optimal=cached["is_optimal"],
            semantics=cached["semantics"],
            method=cached["method"],
            reason=cached["reason"],
            cache_hit=from_cache,
            attempts=0,
            duration=0.0,
            fingerprint=key,
        )

    def _run_serial(
        self,
        pending: List[Tuple[int, RepairJob, str]],
        results: Dict[int, JobResult],
    ) -> None:
        """The serial executor: run each job in line, breaker-guarded."""
        for position, job, key in pending:
            results[position] = self._execute_one(job, key)

    def _execute_one(self, job: RepairJob, key: str) -> JobResult:
        """Cancel/breaker-guarded execution of one cache-missed job.

        The shared in-line execution path: both the serial batch
        executor and the reentrant :meth:`run_job` route through it, so
        single-request and batch traffic keep identical cancel, breaker,
        retry, and finish semantics.
        """
        if self._cancelled_requested():
            return self._finish(job, key, self._cancelled_outcome(job), 0, 0.0)
        problem_key = self._problem_key(job)
        if not self._breaker.allow(problem_key):
            return self._finish(
                job, key, self._fast_fail_outcome(job, problem_key), 0, 0.0
            )
        outcome, attempts, duration = self._attempt_with_retry(job)
        self._breaker.record(
            problem_key,
            failure=outcome.status == "error" and outcome.worker_failure,
        )
        return self._finish(job, key, outcome, attempts, duration)

    def _attempt_with_retry(
        self, job: RepairJob, attempt_base: int = 0
    ) -> Tuple[Outcome, int, float]:
        """Run one job with bounded retry; never raises.

        ``attempt_base`` counts dispatches already consumed elsewhere
        (pool rebuilds), so the global attempt index — which keys both
        the jitter schedule and any fault plan — keeps increasing across
        supervision boundaries.  Returns ``(outcome, attempts,
        duration)``.
        """
        budget = self._budget_for(job)
        timeout = self._timeout_for(job)
        start = self._clock()
        attempts = attempt_base
        while True:
            attempts += 1
            try:
                outcome = call_runner(
                    self._runner,
                    self._runner_takes_attempt,
                    job,
                    budget,
                    timeout,
                    attempts,
                )
                return outcome, attempts, self._clock() - start
            except TRANSIENT_EXCEPTIONS as exc:
                if attempts > self.config.max_retries:
                    outcome = Outcome(
                        status="error",
                        is_optimal=None,
                        semantics=job.semantics,
                        method="none",
                        reason=(
                            f"transient failure persisted after "
                            f"{attempts} attempt(s): {exc}"
                        ),
                        worker_failure=True,
                    )
                    return outcome, attempts, self._clock() - start
                delay = self._retry.delay(job.job_id, attempts)
                self.metrics.counter("jobs.retries").increment()
                self.metrics.record_event(
                    "retry",
                    job_id=job.job_id,
                    attempt=attempts,
                    delay=delay,
                    error=str(exc),
                )
                self._sleep(delay)
            # The documented supervision boundary: an arbitrary worker
            # crash must become a result, never escape the batch.
            except Exception as exc:  # noqa: BLE001  # repro-lint: ignore[RL007]
                outcome = Outcome(
                    status="error",
                    is_optimal=None,
                    semantics=job.semantics,
                    method="none",
                    reason=f"worker failed: {type(exc).__name__}: {exc}",
                    worker_failure=True,
                )
                return outcome, attempts, self._clock() - start

    def _finish(
        self, job: RepairJob, key: str, outcome: Outcome, attempts: int,
        duration: float,
    ) -> JobResult:
        result = JobResult(
            job_id=job.job_id,
            status=outcome.status,
            is_optimal=outcome.is_optimal,
            semantics=outcome.semantics,
            method=outcome.method,
            reason=outcome.reason,
            cache_hit=False,
            attempts=attempts,
            duration=duration,
            fingerprint=key,
        )
        if outcome.status in STORED_STATUSES:
            self.cache.put(key, result.to_dict())
            self._store_put(key, result.to_dict())
        self.metrics.histogram(f"latency.{outcome.method}").observe(duration)
        if outcome.status == "degraded":
            self.metrics.counter("jobs.degraded_routed").increment()
        self.metrics.record_event(
            "job",
            job_id=job.job_id,
            status=outcome.status,
            method=outcome.method,
            duration=duration,
            attempts=attempts,
        )
        return result

    # -- compute internals ----------------------------------------------------------

    def _compute_cache_key(self, job: ComputeJob) -> str:
        return fingerprint_compute_request(
            job.prioritizing,
            job.kind,
            semantics=job.semantics,
            seed=job.seed,
            node_budget=self._budget_for(job),
            query=job.query,
            max_repairs=job.max_repairs,
        )

    def _reissue_compute(
        self,
        cached: Mapping,
        job: ComputeJob,
        key: str,
        from_cache: bool = True,
    ) -> ComputeResult:
        return ComputeResult(
            job_id=job.job_id,
            kind=cached["kind"],
            status=cached["status"],
            semantics=cached["semantics"],
            method=cached["method"],
            payload=dict(cached["payload"]),
            reason=cached["reason"],
            cache_hit=from_cache,
            attempts=0,
            duration=0.0,
            fingerprint=key,
        )

    def _execute_compute(self, job: ComputeJob, key: str) -> ComputeResult:
        """Cancel/breaker-guarded execution of one compute cache miss."""
        if self._cancelled_requested():
            self.metrics.counter("jobs.cancelled").increment()
            outcome = ComputeOutcome(
                status="error",
                semantics=job.semantics,
                method="none",
                reason="batch cancelled before this job ran "
                "(shutdown signal received)",
            )
            return self._finish_compute(job, key, outcome, 0, 0.0)
        problem_key = self._problem_key(job)
        if not self._breaker.allow(problem_key):
            self.metrics.counter("breaker.fast_fails").increment()
            self.metrics.record_event(
                "breaker_fast_fail", job_id=job.job_id, key=problem_key
            )
            outcome = ComputeOutcome(
                status="error",
                semantics=job.semantics,
                method="none",
                reason=(
                    f"circuit breaker open for this problem "
                    f"({problem_key[:12]}…): consecutive worker failures "
                    f"reached the threshold "
                    f"({self.config.breaker_threshold})"
                ),
                worker_failure=True,
            )
            return self._finish_compute(job, key, outcome, 0, 0.0)
        outcome, attempts, duration = self._compute_attempt_with_retry(job)
        self._breaker.record(
            problem_key,
            failure=outcome.status == "error" and outcome.worker_failure,
        )
        return self._finish_compute(job, key, outcome, attempts, duration)

    def _compute_attempt_with_retry(
        self, job: ComputeJob
    ) -> Tuple[ComputeOutcome, int, float]:
        """Run one compute job with bounded retry; never raises."""
        budget = self._budget_for(job)
        timeout = self._timeout_for(job)
        start = self._clock()
        attempts = 0
        while True:
            attempts += 1
            try:
                outcome = self._compute_runner(job, budget, timeout)
                return outcome, attempts, self._clock() - start
            except TRANSIENT_EXCEPTIONS as exc:
                if attempts > self.config.max_retries:
                    outcome = ComputeOutcome(
                        status="error",
                        semantics=job.semantics,
                        method="none",
                        reason=(
                            f"transient failure persisted after "
                            f"{attempts} attempt(s): {exc}"
                        ),
                        worker_failure=True,
                    )
                    return outcome, attempts, self._clock() - start
                delay = self._retry.delay(job.job_id, attempts)
                self.metrics.counter("jobs.retries").increment()
                self.metrics.record_event(
                    "retry",
                    job_id=job.job_id,
                    attempt=attempts,
                    delay=delay,
                    error=str(exc),
                )
                self._sleep(delay)
            # The documented supervision boundary: a worker crash must
            # become a result, never escape the request.
            except Exception as exc:  # noqa: BLE001  # repro-lint: ignore[RL007]
                outcome = ComputeOutcome(
                    status="error",
                    semantics=job.semantics,
                    method="none",
                    reason=f"worker failed: {type(exc).__name__}: {exc}",
                    worker_failure=True,
                )
                return outcome, attempts, self._clock() - start

    def _finish_compute(
        self,
        job: ComputeJob,
        key: str,
        outcome: ComputeOutcome,
        attempts: int,
        duration: float,
    ) -> ComputeResult:
        result = ComputeResult(
            job_id=job.job_id,
            kind=job.kind,
            status=outcome.status,
            semantics=outcome.semantics,
            method=outcome.method,
            payload=outcome.payload,
            reason=outcome.reason,
            cache_hit=False,
            attempts=attempts,
            duration=duration,
            fingerprint=key,
        )
        if outcome.status in STORED_STATUSES:
            self.cache.put(key, result.to_dict())
            self._store_put(key, result.to_dict())
        self.metrics.histogram(f"latency.{outcome.method}").observe(duration)
        if outcome.status == "degraded":
            self.metrics.counter("jobs.degraded_routed").increment()
        self.metrics.record_event(
            "job",
            job_id=job.job_id,
            status=outcome.status,
            method=outcome.method,
            duration=duration,
            attempts=attempts,
        )
        return result

    def _process_pool_runner(self) -> Optional[Callable[..., Outcome]]:
        """The runner to ship to process workers (None = default policy).

        Closures cannot cross the process boundary; picklable runners
        (module-level functions, picklable callables like the chaos
        harness's ``FaultyRunner``) ride along, everything else falls
        back to the default policy exactly as before.
        """
        if self._runner is _default_runner:
            return None
        try:
            pickle.dumps(self._runner)
        except (pickle.PicklingError, TypeError, AttributeError):
            return None
        return self._runner

    def _run_pool(
        self,
        pending: List[Tuple[int, RepairJob, str]],
        results: Dict[int, JobResult],
    ) -> None:
        """The supervised pool executor.

        Submits every pending job to a worker pool and collects results;
        when the pool breaks (a worker process died), the jobs lost with
        it are re-dispatched to a rebuilt pool, up to
        ``max_pool_restarts`` rebuilds per batch.  Jobs still lost when
        the resurrection budget runs out become ``error`` results.
        """
        supervisor = PoolSupervisor(
            self.config.max_pool_restarts, metrics=self.metrics
        )
        remaining: List[_PoolItem] = [
            (position, job, key, 0) for position, job, key in pending
        ]
        while remaining:
            lost = self._pool_round(remaining, results)
            if not lost:
                return
            if not supervisor.can_restart():
                for position, job, key, attempt_base in lost:
                    outcome = Outcome(
                        status="error",
                        is_optimal=None,
                        semantics=job.semantics,
                        method="none",
                        reason=(
                            "worker process died and the pool-restart "
                            f"budget ({self.config.max_pool_restarts}) "
                            "is exhausted"
                        ),
                        worker_failure=True,
                    )
                    self._breaker.record(self._problem_key(job), failure=True)
                    results[position] = self._finish(
                        job, key, outcome, attempt_base + 1, 0.0
                    )
                return
            supervisor.record_restart(len(lost))
            # Each lost dispatch consumed one global attempt: fault
            # schedules and retry accounting must see it.
            remaining = [
                (position, job, key, attempt_base + 1)
                for position, job, key, attempt_base in lost
            ]

    def _pool_round(
        self,
        items: List[_PoolItem],
        results: Dict[int, JobResult],
    ) -> List[_PoolItem]:
        """One submit-and-collect round; returns the jobs lost to a
        broken pool (empty when the round fully resolved)."""
        pool_runner = (
            self._process_pool_runner()
            if self.config.executor == "process"
            else None
        )
        lost: List[_PoolItem] = []
        with self._make_pool() as pool:
            futures: Dict[Future, _PoolItem] = {}
            for item in items:
                position, job, key, attempt_base = item
                if self._cancelled_requested():
                    results[position] = self._finish(
                        job, key, self._cancelled_outcome(job), 0, 0.0
                    )
                    continue
                problem_key = self._problem_key(job)
                if not self._breaker.allow(problem_key):
                    results[position] = self._finish(
                        job, key, self._fast_fail_outcome(job, problem_key),
                        0, 0.0,
                    )
                    continue
                try:
                    if self.config.executor == "process":
                        future = pool.submit(
                            _process_attempt,
                            job,
                            self._budget_for(job),
                            self._timeout_for(job),
                            self.config.max_retries,
                            self.config.backoff_base,
                            self.config.backoff_cap,
                            self.config.backoff_seed,
                            attempt_base,
                            pool_runner,
                        )
                    else:
                        future = pool.submit(
                            self._attempt_with_retry, job, attempt_base
                        )
                except BrokenExecutor:
                    lost.append(item)
                    continue
                futures[future] = item
            for future, item in futures.items():
                position, job, key, attempt_base = item
                if self._cancelled_requested() and future.cancel():
                    results[position] = self._finish(
                        job, key, self._cancelled_outcome(job), 0, 0.0
                    )
                    continue
                timeout = self._timeout_for(job)
                try:
                    # The in-worker deadline is the primary timeout (it
                    # cancels the search cooperatively); this wait is a
                    # backstop with slack for queueing behind other jobs.
                    wait_for = (
                        None
                        if timeout is None
                        else timeout * (len(items) + 1) + 1.0
                    )
                    outcome, attempts, duration = future.result(wait_for)
                except FutureTimeoutError:
                    self.metrics.counter("jobs.pool_timeouts").increment()
                    results[position] = self._finish(
                        job,
                        key,
                        Outcome(
                            status="timeout",
                            is_optimal=None,
                            semantics=job.semantics,
                            method="none",
                            reason="job exceeded its wall-clock timeout "
                            "(abandoned by the coordinator)",
                        ),
                        attempts=1,
                        duration=wait_for or 0.0,
                    )
                    continue
                except BrokenExecutor:
                    # The worker serving (or queued to serve) this job
                    # died: hand it to the supervisor for re-dispatch.
                    lost.append(item)
                    continue
                except CancelledError:
                    results[position] = self._finish(
                        job, key, self._cancelled_outcome(job), 0, 0.0
                    )
                    continue
                # The documented supervision boundary: any pool-level
                # failure becomes a result, never escapes the batch.
                except Exception as exc:  # noqa: BLE001  # repro-lint: ignore[RL007]
                    results[position] = self._finish(
                        job,
                        key,
                        Outcome(
                            status="error",
                            is_optimal=None,
                            semantics=job.semantics,
                            method="none",
                            reason=f"executor failed: "
                            f"{type(exc).__name__}: {exc}",
                            worker_failure=True,
                        ),
                        attempts=1,
                        duration=0.0,
                    )
                    continue
                self._breaker.record(
                    self._problem_key(job),
                    failure=outcome.status == "error"
                    and outcome.worker_failure,
                )
                results[position] = self._finish(
                    job, key, outcome, attempts, duration
                )
        return lost

    def _make_pool(self):
        if self.config.executor == "process":
            return ProcessPoolExecutor(max_workers=self.config.workers)
        return ThreadPoolExecutor(max_workers=self.config.workers)

    def _metrics_snapshot(self) -> Dict:
        snapshot = self.metrics.snapshot()
        info = classification_cache_info()
        snapshot["classification_cache"] = {
            name: {
                "hits": cache_info.hits,
                "misses": cache_info.misses,
                "size": cache_info.currsize,
            }
            for name, cache_info in info.items()
        }
        snapshot["result_cache"] = self.cache.stats()
        if self.store is not None:
            snapshot["result_store"] = self.store.stats()
        return snapshot


def _process_attempt(
    job: RepairJob,
    node_budget: Optional[int],
    timeout: Optional[float],
    max_retries: int,
    backoff_base: float,
    backoff_cap: float,
    backoff_seed: int = 0,
    attempt_base: int = 0,
    runner: Optional[Callable[..., Outcome]] = None,
) -> Tuple[Outcome, int, float]:
    """The process-pool worker: runner plus in-worker retry.

    Module-level (picklable); mirrors ``_attempt_with_retry`` through
    the shared :class:`~repro.service.resilience.RetryPolicy`, so both
    loops produce identical attempt/delay sequences for the same seed
    (property-tested).  ``runner`` must be picklable (None runs the
    default policy — closures cannot cross the process boundary), and
    ``attempt_base`` carries the dispatches consumed by earlier pool
    incarnations of this job.
    """
    policy = RetryPolicy(backoff_base, backoff_cap, backoff_seed)
    run = runner if runner is not None else _default_runner
    takes_attempt = runner_accepts_attempt(run)
    start = time.monotonic()
    attempts = attempt_base
    while True:
        attempts += 1
        try:
            outcome = call_runner(
                run, takes_attempt, job, node_budget, timeout, attempts
            )
            return outcome, attempts, time.monotonic() - start
        except TRANSIENT_EXCEPTIONS as exc:
            if attempts > max_retries:
                outcome = Outcome(
                    status="error",
                    is_optimal=None,
                    semantics=job.semantics,
                    method="none",
                    reason=(
                        f"transient failure persisted after "
                        f"{attempts} attempt(s): {exc}"
                    ),
                    worker_failure=True,
                )
                return outcome, attempts, time.monotonic() - start
            time.sleep(policy.delay(job.job_id, attempts))
        # The documented supervision boundary (worker-process copy).
        except Exception as exc:  # noqa: BLE001  # repro-lint: ignore[RL007]
            outcome = Outcome(
                status="error",
                is_optimal=None,
                semantics=job.semantics,
                method="none",
                reason=f"worker failed: {type(exc).__name__}: {exc}",
                worker_failure=True,
            )
            return outcome, attempts, time.monotonic() - start
