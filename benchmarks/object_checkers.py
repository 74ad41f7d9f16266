"""The object-path checkers, kept as the large-tier perf comparator.

Until the checkers ran on the bitset core alone, ``check_single_fd``,
``check_two_keys`` and ``check_pareto_optimal`` each had a second
execution over ``Fact``/``frozenset`` sets and the object
:class:`~repro.core.conflicts.ConflictIndex`.  Those object bodies live
on here, unchanged, together with the two helpers only they used
(:func:`_blocks` and :func:`is_global_improvement_sets`), so that
``bench_core_fastpaths.py --tier large`` keeps measuring the bitset core
against the same object code under the same 3x geomean floor.

Nothing under ``src/`` imports this module; it is a benchmark-only
baseline, not a supported checker.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

from repro.core.checking.result import CheckResult
from repro.core.checking.two_keys import build_swap_graph
from repro.core.checking.validation import precheck
from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.improvements import find_pareto_improvement
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance, PriorityRelation

__all__ = [
    "check_single_fd_object",
    "check_two_keys_object",
    "check_pareto_optimal_object",
    "is_global_improvement_sets",
]


def is_global_improvement_sets(
    added: Collection[Fact],
    removed: Collection[Fact],
    priority: PriorityRelation,
) -> bool:
    """The global-improvement condition on a symmetric difference.

    ``added`` is ``J' \\ J`` and ``removed`` is ``J \\ J'`` for a
    candidate ``J' = (J \\ removed) ∪ added``; both must be disjoint
    from each other for the test to mean what Definition 2.4 says.
    This is the allocation-free form the checkers evaluate per probed
    swap, materializing an :class:`Instance` only on success.
    """
    if not added and not removed:
        return False  # J' = J is never an improvement
    for lost in removed:
        if priority.improvers_of(lost).isdisjoint(added):
            return False
    return True


def _blocks(
    instance: Instance, fd: FD
) -> Dict[Tuple, Dict[Tuple, List[Fact]]]:
    """Group the facts of ``instance`` by (lhs-value, rhs-value)."""
    lhs_sorted = fd.lhs_sorted
    rhs_sorted = fd.rhs_sorted
    grouped: Dict[Tuple, Dict[Tuple, List[Fact]]] = {}
    for fact in instance:
        lhs_value = fact.project(lhs_sorted)
        rhs_value = fact.project(rhs_sorted)
        grouped.setdefault(lhs_value, {}).setdefault(rhs_value, []).append(
            fact
        )
    return grouped


def check_single_fd_object(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    fd: FD,
) -> CheckResult:
    """``GRepCheck1FD`` at block granularity over the object index."""
    _METHOD = "GRepCheck1FD"
    failure = precheck(prioritizing, candidate, "global", _METHOD)
    if failure is not None:
        return failure
    if fd.is_trivial():
        # No conflicts are possible, so the only repair is I itself and
        # precheck has already confirmed maximality (hence J = I).
        return CheckResult(is_optimal=True, semantics="global", method=_METHOD)
    instance = prioritizing.instance
    priority = prioritizing.priority
    candidate_facts = candidate.facts
    for lhs_value, by_rhs in _blocks(instance, fd).items():
        kept_blocks = [
            (rhs_value, facts)
            for rhs_value, facts in by_rhs.items()
            if any(fact in candidate_facts for fact in facts)
        ]
        if not kept_blocks:
            continue
        # J is consistent, so exactly one rhs-block per lhs-group holds
        # candidate facts.
        (kept_rhs, kept_facts), = kept_blocks
        removed = [fact for fact in kept_facts if fact in candidate_facts]
        for rhs_value, added in by_rhs.items():
            if rhs_value == kept_rhs:
                continue
            if is_global_improvement_sets(added, removed, priority):
                swap = candidate.replace_facts(removed, added)
                return CheckResult(
                    is_optimal=False,
                    semantics="global",
                    method=_METHOD,
                    improvement=swap,
                    reason=(
                        f"the block swap at lhs value {lhs_value!r} to rhs "
                        f"value {rhs_value!r} is a global improvement"
                    ),
                )
    return CheckResult(is_optimal=True, semantics="global", method=_METHOD)


def check_two_keys_object(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    key1: FD,
    key2: FD,
) -> CheckResult:
    """``GRepCheck2Keys`` (Figure 4) over the object index."""
    _METHOD = "GRepCheck2Keys"
    failure = precheck(prioritizing, candidate, "global", _METHOD)
    if failure is not None:
        return failure
    pareto = find_pareto_improvement(prioritizing, candidate)
    if pareto is not None:
        return CheckResult(
            is_optimal=False,
            semantics="global",
            method=_METHOD,
            improvement=pareto,
            reason="a Pareto improvement exists",
        )
    for first, second, label in (
        (key1.lhs, key2.lhs, "G12"),
        (key2.lhs, key1.lhs, "G21"),
    ):
        graph = build_swap_graph(prioritizing, candidate, first, second)
        cycle = graph.find_cycle()
        if cycle is not None:
            improvement = graph.cycle_to_improvement(cycle, candidate)
            return CheckResult(
                is_optimal=False,
                semantics="global",
                method=_METHOD,
                improvement=improvement,
                reason=f"the swap graph {label} has a cycle (Lemma 4.4)",
            )
    return CheckResult(is_optimal=True, semantics="global", method=_METHOD)


def check_pareto_optimal_object(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
) -> CheckResult:
    """The single-swap Pareto check over the object index."""
    _METHOD = "single-swap"
    failure = precheck(prioritizing, candidate, "pareto", _METHOD)
    if failure is not None:
        return failure
    improvement = find_pareto_improvement(prioritizing, candidate)
    if improvement is not None:
        return CheckResult(
            is_optimal=False,
            semantics="pareto",
            method=_METHOD,
            improvement=improvement,
            reason="a single-swap Pareto improvement exists",
        )
    return CheckResult(is_optimal=True, semantics="pareto", method=_METHOD)
