"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the individual failure modes when they need to.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = [
    "ReproError",
    "UsageError",
    "MissingEntryError",
    "AttributePositionError",
    "SchemaError",
    "UnknownRelationError",
    "ArityError",
    "InvalidFDError",
    "InvalidPriorityError",
    "CyclicPriorityError",
    "CrossConflictPriorityError",
    "InconsistentInstanceError",
    "NotASubinstanceError",
    "IntractableSchemaError",
    "SearchBudgetExceededError",
    "TransientWorkerError",
    "WorkerCrashError",
    "QueryError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class UsageError(ReproError, ValueError):
    """An argument value is outside a function's documented domain.

    Derives from both :class:`ReproError` (so ``except ReproError``
    catches every library failure) and :class:`ValueError` (so callers
    treating bad arguments the builtin way keep working).
    """


class MissingEntryError(ReproError, KeyError):
    """A name is absent from a registry, catalog, or report.

    Derives from both :class:`ReproError` and :class:`KeyError`; note
    the :class:`KeyError` quirk that ``str()`` shows the repr of the
    message.
    """


class AttributePositionError(ReproError, IndexError):
    """An attribute position is outside a fact's ``1..arity`` range.

    Derives from both :class:`ReproError` and :class:`IndexError` (the
    paper's 1-based ``f[A]`` notation is still positional indexing).
    """


class SchemaError(ReproError):
    """A schema (signature plus FDs) is malformed."""


class UnknownRelationError(SchemaError):
    """A fact, FD, or query atom refers to a relation not in the signature."""

    def __init__(self, relation_name: str) -> None:
        super().__init__(f"unknown relation symbol: {relation_name!r}")
        self.relation_name = relation_name


class ArityError(SchemaError):
    """A tuple's width does not match the arity of its relation symbol."""

    def __init__(self, relation_name: str, expected: int, actual: int) -> None:
        super().__init__(
            f"relation {relation_name!r} has arity {expected}, "
            f"got a tuple of width {actual}"
        )
        self.relation_name = relation_name
        self.expected = expected
        self.actual = actual


class InvalidFDError(SchemaError):
    """A functional dependency refers to attributes outside ``1..arity``."""


class InvalidPriorityError(ReproError):
    """A priority relation violates the requirements of Section 2.3."""


class CyclicPriorityError(InvalidPriorityError):
    """The priority relation contains a cycle (it must be acyclic)."""

    def __init__(self, cycle: Iterable[Any]) -> None:
        super().__init__(f"priority relation has a cycle: {list(cycle)!r}")
        self.cycle = tuple(cycle)


class CrossConflictPriorityError(InvalidPriorityError):
    """A classical (non-ccp) priority relates two non-conflicting facts.

    Section 2.3 of the paper requires ``f > g`` only between conflicting
    facts; Section 7 relaxes this via *ccp-instances*.  Constructing a
    classical prioritizing instance with a cross-conflict edge raises this
    error; use ``ccp=True`` to opt into the relaxed setting.
    """


class InconsistentInstanceError(ReproError):
    """An operation requires a consistent instance but got conflicts."""


class NotASubinstanceError(ReproError):
    """A candidate repair contains facts outside the original instance."""


class IntractableSchemaError(ReproError):
    """A polynomial-time checker was requested for a coNP-hard schema.

    Raised by the dispatching checkers when the schema falls on the hard
    side of the dichotomy and the caller did not allow the exponential
    brute-force fallback.
    """


class SearchBudgetExceededError(ReproError):
    """The budgeted improvement search ran out of nodes or wall-clock.

    Raised by :func:`repro.core.checking.improvement_search.
    check_globally_optimal_search` when a ``node_budget`` or ``deadline``
    was given and exhausted before the search could decide the question.
    The exception reports how far the search got; callers such as the
    batch service translate it into an explicit ``degraded`` or
    ``timeout`` job status instead of an answer.
    """

    def __init__(
        self, kind: str, nodes_explored: int, budget: Optional[int] = None
    ) -> None:
        if kind == "deadline":
            message = (
                f"improvement search hit its deadline after exploring "
                f"{nodes_explored} node(s)"
            )
        else:
            message = (
                f"improvement search exhausted its node budget "
                f"({budget}) after exploring {nodes_explored} node(s)"
            )
        super().__init__(message)
        self.kind = kind
        self.nodes_explored = nodes_explored
        self.budget = budget


class TransientWorkerError(ReproError):
    """A repair-check worker failed in a retryable way.

    The batch service retries jobs that raise this (or an ``OSError``)
    with bounded exponential backoff; any other failure is reported as a
    permanent job error.  Custom runners raise it to signal "try again".
    """


class WorkerCrashError(TransientWorkerError):
    """A worker died (or simulated dying) mid-job.

    In a process pool a dead worker surfaces as a broken pool, which the
    supervised executor absorbs by rebuilding the pool and re-dispatching
    the lost jobs.  In thread/serial execution there is no process to
    kill, so the fault-injection harness (:mod:`repro.service.faults`)
    raises this instead; deriving from :class:`TransientWorkerError`
    makes the retry loop play the role the pool supervisor plays for
    real crashes.
    """


class QueryError(ReproError):
    """A conjunctive query is malformed (unsafe variables, bad arity...)."""


class ProtocolError(ReproError):
    """A wire request to the repair-checking daemon is malformed.

    Raised by :mod:`repro.server.protocol` while decoding a
    newline-delimited JSON request (unparseable JSON, unknown ``op``,
    missing or ill-typed fields, oversized line).  The daemon translates
    it into a structured ``bad-request`` error response on the same
    connection rather than dropping the client.
    """
