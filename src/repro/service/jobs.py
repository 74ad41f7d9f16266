"""Job and result datatypes for the batch repair-checking service.

A :class:`RepairJob` is one repair-checking question: a prioritizing
instance, a candidate subinstance, the semantics to check under, plus
scheduling knobs (priority, per-job timeout, search node budget).  A
:class:`JobResult` is the service's answer, which is deliberately richer
than a bare boolean:

``status``
    ``"ok"`` — the question was decided; ``is_optimal`` holds.
    ``"degraded"`` — the schema is on the coNP-hard side and the
    budgeted search exhausted its node budget; ``is_optimal`` is None.
    Deterministic for a fixed budget.
    ``"timeout"`` — the job hit its wall-clock timeout.
    ``"error"`` — the job input was malformed (e.g. the candidate is
    not a subinstance) or the worker failed permanently.

Results are comparable to direct checker calls through ``verdict()``,
which strips the operational fields (durations, attempts, cache flags)
down to what correctness tests should compare.

The compute pipeline (``repro.compute`` driven through the service) has
its own pair: a :class:`ComputeJob` asks the service to *construct* an
optimal repair (``kind="repair"``) or *count* the preferred repairs
entailing a query (``kind="count"``), and a :class:`ComputeResult`
carries the answer in a ``payload`` dict.  Compute results share the
check results' status vocabulary and store contract (``status``,
``fingerprint``, ``to_dict()``), so the result cache and the durable
verdict store treat both uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance
from repro.cqa.queries import ConjunctiveQuery

from repro.exceptions import MissingEntryError, UsageError

__all__ = [
    "JOB_STATUSES",
    "COMPUTE_KINDS",
    "RepairJob",
    "JobResult",
    "ComputeJob",
    "ComputeResult",
    "BatchReport",
]

#: Every status a job can finish with.
JOB_STATUSES = ("ok", "degraded", "timeout", "error")

#: The compute operations the service can run.
COMPUTE_KINDS = ("repair", "count")


@dataclass(frozen=True)
class RepairJob:
    """One repair-checking request.

    Parameters
    ----------
    job_id:
        Caller-chosen identifier, echoed on the result.
    prioritizing:
        The (possibly ccp) prioritizing instance the question is about.
        Jobs in one batch may share it (the common case, and the one the
        result cache exploits) or carry distinct instances.
    candidate:
        The subinstance to check.
    semantics:
        ``"global"``, ``"pareto"``, or ``"completion"``.
    method:
        Passed through to the checker for global semantics: ``"auto"``
        (dichotomy-guided, with budgeted-search degradation on the hard
        side), ``"search"``, ``"brute-force"``, or ``"paranoid"``.
    priority:
        Scheduling priority; higher runs first.  Ties run in submission
        order.
    timeout:
        Per-job wall-clock budget in seconds (None = service default).
    node_budget:
        Node budget for the improvement search on hard schemas
        (None = service default; the budget is part of the cache key).
    """

    job_id: str
    prioritizing: PrioritizingInstance
    candidate: Instance
    semantics: str = "global"
    method: str = "auto"
    priority: int = 0
    timeout: Optional[float] = None
    node_budget: Optional[int] = None


@dataclass(frozen=True)
class JobResult:
    """The service's answer to one :class:`RepairJob`."""

    job_id: str
    status: str
    is_optimal: Optional[bool]
    semantics: str
    method: str
    reason: str = ""
    cache_hit: bool = False
    attempts: int = 1
    duration: float = 0.0
    fingerprint: str = ""

    def verdict(self) -> Dict[str, Any]:
        """The correctness-relevant projection of this result.

        Two runs of the same batch must agree on every job's verdict —
        regardless of worker count, executor kind, or cache temperature.
        Operational fields (duration, attempts, cache_hit) may differ.
        """
        return {
            "job_id": self.job_id,
            "status": self.status,
            "is_optimal": self.is_optimal,
            "semantics": self.semantics,
        }

    def as_cached(self) -> "JobResult":
        """A copy marked as served from the result cache."""
        return replace(self, cache_hit=True, attempts=0, duration=0.0)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready rendering (one JSONL line per job)."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "is_optimal": self.is_optimal,
            "semantics": self.semantics,
            "method": self.method,
            "reason": self.reason,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "duration": self.duration,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class ComputeJob:
    """One compute request: construct an optimal repair or count.

    Parameters
    ----------
    job_id:
        Caller-chosen identifier, echoed on the result.
    prioritizing:
        The (possibly ccp) prioritizing instance to compute over.
    kind:
        ``"repair"`` — construct an optimal repair under ``semantics``;
        ``"count"`` — count the preferred repairs entailing ``query``.
    semantics:
        ``"global"``, ``"pareto"``, or ``"completion"`` for repair jobs;
        count jobs additionally accept ``"all"``.
    seed:
        Seed for the construction's tie-breaking RNG (part of the cache
        key: different seeds may construct different optimal repairs).
    timeout:
        Per-job wall-clock budget in seconds (None = service default).
    node_budget:
        Round budget for the anytime climb on the coNP-hard side
        (None = service default; part of the cache key).
    query:
        The query whose entailment count is wanted (count jobs only).
    max_repairs:
        Enumeration cap for count jobs that fall off the block-product
        fast path (None = unbounded).
    """

    job_id: str
    prioritizing: PrioritizingInstance
    kind: str = "repair"
    semantics: str = "global"
    seed: int = 0
    priority: int = 0
    timeout: Optional[float] = None
    node_budget: Optional[int] = None
    query: Optional[ConjunctiveQuery] = None
    max_repairs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in COMPUTE_KINDS:
            raise UsageError(
                f"kind must be one of {COMPUTE_KINDS}, got {self.kind!r}"
            )
        if self.kind == "count" and self.query is None:
            raise UsageError("a count job needs a query")


@dataclass(frozen=True)
class ComputeResult:
    """The service's answer to one :class:`ComputeJob`.

    ``payload`` carries the kind-specific answer: for ``repair`` jobs
    the constructed repair as a serialized fact list plus the number of
    improvement rounds; for ``count`` jobs the entailing/total counts
    and the entailment fraction.  The store-facing surface
    (``status`` in the stored vocabulary, a truthy ``fingerprint``,
    ``to_dict()``) matches :class:`JobResult`, so compute results ride
    the same cache and durable verdict store.
    """

    job_id: str
    kind: str
    status: str
    semantics: str
    method: str
    payload: Dict[str, Any] = field(default_factory=dict)
    reason: str = ""
    cache_hit: bool = False
    attempts: int = 1
    duration: float = 0.0
    fingerprint: str = ""

    def verdict(self) -> Dict[str, Any]:
        """The correctness-relevant projection of this result."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "semantics": self.semantics,
            "payload": self.payload,
        }

    def as_cached(self) -> "ComputeResult":
        """A copy marked as served from the result cache."""
        return replace(self, cache_hit=True, attempts=0, duration=0.0)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready rendering (one JSONL line per job)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "semantics": self.semantics,
            "method": self.method,
            "payload": self.payload,
            "reason": self.reason,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "duration": self.duration,
            "fingerprint": self.fingerprint,
        }


@dataclass
class BatchReport:
    """Everything a batch run produced: results plus observability."""

    results: List[JobResult]
    metrics: Dict[str, Any] = field(default_factory=dict)
    cache_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def status_counts(self) -> Dict[str, int]:
        """``{status: count}`` over the batch (absent statuses omitted)."""
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    @property
    def cache_hits(self) -> int:
        """How many results were served from the cache (including
        within-batch deduplication)."""
        return sum(1 for result in self.results if result.cache_hit)

    @property
    def ok(self) -> bool:
        """Whether no job finished with status ``"error"``."""
        return all(result.status != "error" for result in self.results)

    def by_id(self, job_id: str) -> JobResult:
        """The result for ``job_id`` (first match)."""
        for result in self.results:
            if result.job_id == job_id:
                return result
        raise MissingEntryError(job_id)
