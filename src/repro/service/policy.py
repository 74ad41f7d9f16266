"""Execution policy: routing, degradation, and per-job outcomes.

:func:`execute_check` is the single function a worker runs for one job.
It reproduces the dispatcher's dichotomy-guided routing with one
deliberate difference: where :func:`~repro.core.checking.dispatcher.
check_globally_optimal` falls back to the *unbounded* brute force on the
coNP-hard side, the service routes hard questions to the **budgeted**
goal-directed improvement search and turns budget exhaustion into an
explicit ``degraded`` status (and deadline exhaustion into
``timeout``).  A service must answer in bounded time; "we could not
decide within the budget" is an answer, hanging is not.

Verdict compatibility: on every input where both finish, the budgeted
search and the dispatcher return the same ``is_optimal`` — the search is
complete and exact for every schema and both priority settings — so
batch results remain bit-identical to direct
:func:`check_globally_optimal` calls whenever the budget suffices.

Routing recap (mirrors the dispatcher):

* classical priorities — Theorem 3.1 tractable → polynomial checkers
  via the dispatcher; hard → budgeted search;
* ccp priorities — Theorem 7.1 tractable (primary-key or
  constant-attribute assignment) → polynomial ccp checkers; hard but
  conflict-only → classical routing; hard otherwise → budgeted search;
* ``pareto`` / ``completion`` semantics are PTIME for every schema, so
  they never degrade.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.compute import compute_optimal_repair, count_repairs_entailing
from repro.core.checking import (
    check_completion_optimal,
    check_globally_optimal,
    check_globally_optimal_search,
    check_pareto_optimal,
)
from repro.core.checking.dispatcher import _is_conflict_only
from repro.core.classification import classify_ccp_schema, classify_schema
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance
from repro.cqa.queries import ConjunctiveQuery
from repro.exceptions import ReproError, SearchBudgetExceededError
from repro.io import instance_to_list

__all__ = [
    "Outcome",
    "ComputeOutcome",
    "needs_degradation",
    "execute_check",
    "execute_repair",
    "execute_count",
]

#: Method label reported when the degradation policy could not decide.
DEGRADED_METHOD = "improvement-search"


@dataclass(frozen=True)
class Outcome:
    """What executing one check produced (no scheduling metadata).

    ``worker_failure`` distinguishes infrastructure-level ``error``
    outcomes (a worker crashed, retries exhausted, the pool broke) from
    deterministic job errors (malformed input): only the former say
    anything about the health of the problem's workers, so only they
    feed the per-problem circuit breaker in
    :mod:`repro.service.resilience`.
    """

    status: str
    is_optimal: Optional[bool]
    semantics: str
    method: str
    reason: str = ""
    worker_failure: bool = False


@dataclass(frozen=True)
class ComputeOutcome:
    """What executing one compute job produced (no scheduling metadata).

    The compute analogue of :class:`Outcome`: ``payload`` carries the
    kind-specific answer (a serialized repair, or entailment counts),
    and ``worker_failure`` plays the same circuit-breaker role.
    """

    status: str
    semantics: str
    method: str
    payload: Dict[str, Any] = field(default_factory=dict)
    reason: str = ""
    worker_failure: bool = False


def needs_degradation(prioritizing: PrioritizingInstance) -> bool:
    """Whether globally-optimal checking for this input is coNP-hard.

    True exactly when the dispatcher's ``auto`` route would reach the
    unbounded brute force: a classically-hard schema, or a ccp-hard
    schema whose priority is not conflict-only.  Classification verdicts
    are memoized per schema, so this is cheap on shared-schema batches.
    """
    if not prioritizing.is_ccp:
        return not classify_schema(prioritizing.schema).is_tractable
    if classify_ccp_schema(prioritizing.schema).is_tractable:
        return False
    if _is_conflict_only(prioritizing):
        return not classify_schema(prioritizing.schema).is_tractable
    return True


def execute_check(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    semantics: str = "global",
    method: str = "auto",
    node_budget: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Outcome:
    """Run one repair check under the service's degradation policy.

    Deterministic-by-construction outcomes (``ok``, ``degraded``,
    ``error``) depend only on the inputs and ``node_budget``; only
    ``timeout`` depends on the wall clock.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    try:
        if semantics == "pareto":
            result = check_pareto_optimal(prioritizing, candidate)
        elif semantics == "completion":
            result = check_completion_optimal(prioritizing, candidate)
        elif semantics == "global":
            if method == "search" or (
                method == "auto" and needs_degradation(prioritizing)
            ):
                result = check_globally_optimal_search(
                    prioritizing,
                    candidate,
                    node_budget=node_budget,
                    deadline=deadline,
                )
            else:
                result = check_globally_optimal(
                    prioritizing, candidate, method=method
                )
        else:
            return Outcome(
                status="error",
                is_optimal=None,
                semantics=semantics,
                method="none",
                reason=f"unknown semantics {semantics!r}",
            )
    except SearchBudgetExceededError as exc:
        status = "timeout" if exc.kind == "deadline" else "degraded"
        return Outcome(
            status=status,
            is_optimal=None,
            semantics=semantics,
            method=DEGRADED_METHOD,
            reason=str(exc),
        )
    except (ReproError, ValueError) as exc:
        # Malformed input (candidate outside the instance, bad method,
        # intractable-schema refusal...): a deterministic job error.
        return Outcome(
            status="error",
            is_optimal=None,
            semantics=semantics,
            method="none",
            reason=f"{type(exc).__name__}: {exc}",
        )
    return Outcome(
        status="ok",
        is_optimal=result.is_optimal,
        semantics=result.semantics,
        method=result.method,
        reason=result.reason,
    )


def execute_repair(
    prioritizing: PrioritizingInstance,
    semantics: str = "global",
    seed: int = 0,
    node_budget: Optional[int] = None,
    timeout: Optional[float] = None,
) -> ComputeOutcome:
    """Construct one optimal repair under the degradation policy.

    Mirrors :func:`execute_check`'s contract: classical priorities (and
    completion semantics) are answered exactly by the greedy
    construction; ccp global/pareto questions run the anytime
    improvement climb, which reports ``degraded`` with its best-so-far
    repair when the round budget runs out and ``timeout`` when the
    deadline does.  Malformed input is a deterministic ``error``.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    try:
        computed = compute_optimal_repair(
            prioritizing,
            semantics=semantics,
            rng=random.Random(seed),
            node_budget=node_budget,
            deadline=deadline,
        )
    except (ReproError, ValueError) as exc:
        return ComputeOutcome(
            status="error",
            semantics=semantics,
            method="none",
            reason=f"{type(exc).__name__}: {exc}",
        )
    return ComputeOutcome(
        status=computed.status,
        semantics=computed.semantics,
        method=computed.method,
        payload={
            "repair": instance_to_list(computed.repair),
            "rounds": computed.rounds,
        },
        reason=computed.reason,
    )


def execute_count(
    query: ConjunctiveQuery,
    prioritizing: PrioritizingInstance,
    semantics: str = "global",
    max_repairs: Optional[int] = None,
) -> ComputeOutcome:
    """Count the preferred repairs entailing ``query``.

    Routes through :func:`repro.compute.count_repairs_entailing`: the
    per-block product decomposition answers ground-atom counts on
    classical single-key relations in polynomial time, everything else
    enumerates (capped by ``max_repairs``, reported as ``degraded``
    when the cap is hit).  Malformed input (an unknown relation, a bad
    semantics) is a deterministic ``error``.
    """
    try:
        count = count_repairs_entailing(
            query,
            prioritizing,
            semantics=semantics,
            max_repairs=max_repairs,
        )
    except (ReproError, ValueError) as exc:
        return ComputeOutcome(
            status="error",
            semantics=semantics,
            method="none",
            reason=f"{type(exc).__name__}: {exc}",
        )
    return ComputeOutcome(
        status=count.status,
        semantics=count.semantics,
        method=count.method,
        payload={
            "entailing": count.entailing,
            "total": count.total,
            "fraction": count.fraction,
            "exact": count.exact,
        },
        reason=count.reason,
    )
