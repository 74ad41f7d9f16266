"""The batch repair-checking service layer.

Everything the repo's entry points need to serve repair-checking
traffic at batch granularity:

* :class:`~repro.service.service.RepairService` — the front-end: a
  priority-ordered batch of jobs in, results + observability out, with
  a worker pool, per-job timeouts, bounded retry, an LRU result cache
  keyed by canonical fingerprints, and graceful degradation (budgeted
  improvement search) on the coNP-hard side of the dichotomies;
* :mod:`~repro.service.fingerprint` — canonical fingerprints of
  schemas, instances, priorities, and whole check requests;
* :mod:`~repro.service.cache` / :mod:`~repro.service.metrics` — the
  supporting LRU cache and counters/histograms/event-log registry;
* :mod:`~repro.service.batch_io` — JSON/CSV job files and JSONL
  results for the ``repro serve-batch`` CLI;
* :mod:`~repro.service.resilience` /
  :mod:`~repro.service.faults` — the fault-tolerance layer: seeded
  retry jitter, the per-problem circuit breaker, supervised-pool
  bookkeeping, and the deterministic fault-injection harness that
  tests all of it;
* :mod:`~repro.service.store` — the durable verdict store (WAL-mode
  sqlite synced on every commit, version-keyed checksummed rows,
  heal-on-open): the one persistent record of results, under the LRU,
  shared across worker processes, surviving their restarts, and the
  thing an interrupted ``serve-batch --store`` run resumes from.
"""

from repro.service.batch_io import (
    candidate_from_spec,
    load_batch_file,
    load_problem_from_csv_spec,
    write_metrics_json,
    write_results_jsonl,
)
from repro.service.cache import LRUCache
from repro.service.faults import (
    FaultPlan,
    FaultyRunner,
    FleetFaultPlan,
    SkewedClock,
    parse_fault_spec,
    parse_fleet_fault_spec,
)
from repro.service.fingerprint import (
    fingerprint_check_request,
    fingerprint_compute_request,
    fingerprint_instance,
    fingerprint_prioritizing,
    fingerprint_priority,
    fingerprint_schema,
)
from repro.service.jobs import (
    COMPUTE_KINDS,
    JOB_STATUSES,
    BatchReport,
    ComputeJob,
    ComputeResult,
    JobResult,
    RepairJob,
)
from repro.service.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.service.policy import (
    ComputeOutcome,
    Outcome,
    execute_check,
    execute_count,
    execute_repair,
    needs_degradation,
)
from repro.service.resilience import (
    CircuitBreaker,
    PoolSupervisor,
    RetryPolicy,
    unit_interval,
)
from repro.service.service import RepairService, ServiceConfig
from repro.service.store import STORED_STATUSES, SqliteStore

__all__ = [
    "RepairService",
    "ServiceConfig",
    "RepairJob",
    "JobResult",
    "ComputeJob",
    "ComputeResult",
    "BatchReport",
    "JOB_STATUSES",
    "COMPUTE_KINDS",
    "Outcome",
    "ComputeOutcome",
    "execute_check",
    "execute_count",
    "execute_repair",
    "needs_degradation",
    "LRUCache",
    "MetricsRegistry",
    "Counter",
    "LatencyHistogram",
    "fingerprint_schema",
    "fingerprint_instance",
    "fingerprint_priority",
    "fingerprint_prioritizing",
    "fingerprint_check_request",
    "fingerprint_compute_request",
    "load_batch_file",
    "load_problem_from_csv_spec",
    "candidate_from_spec",
    "write_results_jsonl",
    "write_metrics_json",
    "RetryPolicy",
    "CircuitBreaker",
    "PoolSupervisor",
    "unit_interval",
    "FaultPlan",
    "FaultyRunner",
    "FleetFaultPlan",
    "SkewedClock",
    "parse_fault_spec",
    "parse_fleet_fault_spec",
    "SqliteStore",
    "STORED_STATUSES",
]
