"""The top-level globally-optimal repair checker.

:func:`check_globally_optimal` routes a repair-checking instance to the
right algorithm:

* **classical priorities** — classify the schema per Theorem 3.1; when
  tractable, decompose per relation (Proposition 3.5) and run
  ``GRepCheck1FD`` or ``GRepCheck2Keys`` on each part; when coNP-hard,
  fall back to the exponential brute force (or raise, if the caller
  disallowed it);
* **ccp priorities** — classify per Theorem 7.1; when the schema is a
  primary-key assignment use the ``G_{J,I\\J}`` cycle test, when a
  constant-attribute assignment enumerate partition repairs; otherwise,
  if the priority happens to relate only conflicting facts the instance
  is re-interpreted classically (the semantics of Definition 2.4 do not
  depend on the ccp flag), and failing that the brute force runs.

The returned :class:`CheckResult` names the algorithm that decided the
question, so experiments can assert not just answers but code paths.
"""

from __future__ import annotations

from typing import Optional

from repro.core.checking.brute_force import (
    check_globally_optimal_brute_force,
    check_globally_optimal_paranoid,
)
from repro.core.checking.ccp_constant_attribute import (
    check_ccp_constant_attribute,
)
from repro.core.checking.ccp_primary_key import check_ccp_primary_key
from repro.core.checking.result import CheckResult
from repro.core.checking.single_fd import check_single_fd
from repro.core.checking.two_keys import check_two_keys
from repro.core.classification import (
    RelationClass,
    classify_ccp_schema,
    classify_schema,
)
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance
from repro.exceptions import (
    IntractableSchemaError,
    NotASubinstanceError,
    UsageError,
)

__all__ = ["check_globally_optimal"]


def check_globally_optimal(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    allow_brute_force: bool = True,
    method: str = "auto",
) -> CheckResult:
    """Decide whether ``candidate`` is a globally-optimal repair.

    Parameters
    ----------
    prioritizing:
        The (possibly ccp) prioritizing instance ``(I, ≻)``.
    candidate:
        The subinstance ``J`` to check.
    allow_brute_force:
        When the schema falls on the coNP-hard side of the applicable
        dichotomy, False makes the call raise
        :class:`IntractableSchemaError` instead of running the
        exponential search.
    method:
        ``"auto"`` (dichotomy-guided routing), ``"search"`` (the
        complete goal-directed improvement search — the practical
        checker for hard schemas), ``"brute-force"`` (repair
        enumeration), or ``"paranoid"`` (all-subsets search; tiny
        instances only).

    Examples
    --------
    >>> from repro.core import Schema, Fact, PriorityRelation
    >>> from repro.core import PrioritizingInstance
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    >>> pri = PrioritizingInstance(
    ...     schema, schema.instance([f, g]), PriorityRelation([(f, g)])
    ... )
    >>> result = check_globally_optimal(pri, schema.instance([f]))
    >>> result.is_optimal, result.method
    (True, 'GRepCheck1FD')
    """
    if method not in ("auto", "search", "brute-force", "paranoid"):
        raise UsageError(f"unknown method {method!r}")

    # The candidate-⊆-instance precondition is a malformed input for
    # *every* method, so it is validated here, once, before dispatching
    # (the individual checkers re-validate defensively via precheck, but
    # hoisting keeps the four methods' error behaviour identical).
    extra = candidate.facts - prioritizing.instance.facts
    if extra:
        raise NotASubinstanceError(
            f"candidate repair contains {len(extra)} fact(s) outside the "
            f"instance, e.g. {next(iter(extra))}"
        )

    if method == "brute-force":
        return check_globally_optimal_brute_force(prioritizing, candidate)
    if method == "paranoid":
        return check_globally_optimal_paranoid(prioritizing, candidate)
    if method == "search":
        from repro.core.checking.improvement_search import (
            check_globally_optimal_search,
        )

        return check_globally_optimal_search(prioritizing, candidate)

    if prioritizing.is_ccp:
        return _dispatch_ccp(prioritizing, candidate, allow_brute_force)
    return _dispatch_classical(prioritizing, candidate, allow_brute_force)


def _dispatch_classical(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    allow_brute_force: bool,
) -> CheckResult:
    verdict = classify_schema(prioritizing.schema)
    if not verdict.is_tractable:
        if not allow_brute_force:
            raise IntractableSchemaError(
                "globally-optimal repair checking is coNP-complete for "
                f"this schema (hard relations: {verdict.hard_relations}); "
                "pass allow_brute_force=True to run the exponential search"
            )
        return check_globally_optimal_brute_force(prioritizing, candidate)

    # Proposition 3.5: the candidate is globally optimal iff each of its
    # per-relation restrictions is.
    for relation_verdict in verdict.per_relation:
        name = relation_verdict.relation
        restricted = prioritizing.restrict_to_relation(name)
        restricted_candidate = restricted.instance.subinstance(
            fact for fact in candidate.relation(name)
        )
        if relation_verdict.kind is RelationClass.SINGLE_FD:
            result = check_single_fd(
                restricted,
                restricted_candidate,
                relation_verdict.witnesses[0],
            )
        else:
            key1, key2 = relation_verdict.witnesses
            result = check_two_keys(
                restricted, restricted_candidate, key1, key2
            )
        if not result.is_optimal:
            return CheckResult(
                is_optimal=False,
                semantics="global",
                method=result.method,
                improvement=_lift_improvement(candidate, name, result),
                reason=f"relation {name}: {result.reason}",
            )
    methods = {
        "GRepCheck1FD"
        if v.kind is RelationClass.SINGLE_FD
        else "GRepCheck2Keys"
        for v in verdict.per_relation
    }
    method = methods.pop() if len(methods) == 1 else "per-relation"
    return CheckResult(is_optimal=True, semantics="global", method=method)


def _lift_improvement(
    candidate: Instance, relation_name: str, result: CheckResult
) -> Optional[Instance]:
    """Lift a per-relation improvement back to the full signature.

    Replaces the candidate's facts of ``relation_name`` with the
    restricted improvement's facts; by the argument behind Proposition
    3.5, the lifted instance is a global improvement of the candidate.
    """
    if result.improvement is None:
        return None
    kept = candidate.facts - candidate.relation(relation_name)
    # Both fact sets come from instances already validated against this
    # signature (the restriction shares its relation symbol), so the
    # trusted path applies.
    return Instance._from_validated(
        candidate.signature, kept | result.improvement.facts
    )


def _dispatch_ccp(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    allow_brute_force: bool,
) -> CheckResult:
    verdict = classify_ccp_schema(prioritizing.schema)
    if verdict.is_primary_key_assignment:
        return check_ccp_primary_key(prioritizing, candidate)
    if verdict.is_constant_attribute_assignment:
        return check_ccp_constant_attribute(prioritizing, candidate)

    # The schema is ccp-hard, but the concrete priority may still be
    # conflict-only, in which case the classical dichotomy applies (the
    # optimality semantics is identical; only the allowed inputs differ).
    if _is_conflict_only(prioritizing):
        # _is_conflict_only just established the classical invariant
        # edge by edge, so the trusted path applies; the conflict index
        # is over the same (schema, I) and is reused as-is.
        classical = PrioritizingInstance._from_validated(
            prioritizing.schema,
            prioritizing.instance,
            prioritizing.priority,
            ccp=False,
            conflict_index=prioritizing.conflict_index,
        )
        return _dispatch_classical(classical, candidate, allow_brute_force)

    if not allow_brute_force:
        raise IntractableSchemaError(
            "ccp globally-optimal repair checking is coNP-complete for "
            "this schema (neither a primary-key nor a constant-attribute "
            "assignment); pass allow_brute_force=True to run the "
            "exponential search"
        )
    return check_globally_optimal_brute_force(prioritizing, candidate)


def _is_conflict_only(prioritizing: PrioritizingInstance) -> bool:
    """Whether every priority edge relates conflicting facts."""
    index = prioritizing.conflict_index
    return all(
        worse in index.conflicts_of(better)
        for better, worse in prioritizing.priority.edges
    )
