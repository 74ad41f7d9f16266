"""A complete, goal-directed search for global improvements.

On the coNP-hard side of the dichotomies the library still has to answer
repair-checking queries; enumerating *all* repairs (the
:mod:`~repro.core.checking.brute_force` baseline) dies as soon as the
conflict graph has one large component, even when the actual witness
improvement is small.  This module implements a branch-and-propagate
search over *partial improvements* that is complete (it finds a global
improvement iff one exists) and, on structured instances such as the
Lemma 5.2 gadgets, explores only the certificate-shaped part of the
search space.

Search state
------------
``added``
    Facts of ``I \\ J`` committed to the improvement.
``removed``
    Facts of ``J`` evicted so far — exactly the facts of ``J``
    conflicting with ``added`` (eviction is never speculative: removing
    a fact without a conflicting addition only makes the improvement
    condition harder to satisfy, so minimal improvements never do it).
``pending``
    Evicted facts not yet dominated by an addition; the search branches
    on *which improver of a pending fact to add next*.

Completeness: let ``J*`` be a global improvement with added set ``A*``.
Seeding with any ``g ∈ A*`` and, at every branch, choosing the improver
that ``A*`` uses, keeps ``added ⊆ A*`` and ``pending`` inside the evicted
set of ``J*``; since every branch point enumerates all improvers, this
path exists in the tree, and it terminates with ``pending = ∅`` — at
which point ``(J \\ removed) ∪ added`` is itself a global improvement
(possibly smaller than ``J*``).  Visited ``added``-sets are memoized, so
the search also terminates on "no" instances (worst-case exponential, as
it must be unless P = NP).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.core.checking.result import CheckResult
from repro.core.checking.validation import precheck_bitset
from repro.core.instance import Instance
from repro.core.interning import iter_bits, popcount
from repro.core.priority import PrioritizingInstance
from repro.exceptions import SearchBudgetExceededError

__all__ = ["find_global_improvement", "check_globally_optimal_search"]

_METHOD = "improvement-search"

#: How many search nodes to expand between wall-clock deadline checks.
_DEADLINE_STRIDE = 64


class _BitsetSearcher:
    """The branch-and-propagate search over ``added`` bitmasks.

    State sets are masks over the interned fact ids: per-outsider
    evicted/conflicting masks are one ``&`` against the precomputed
    global conflict masks, the "already dominated" test is
    ``improvers[fid] & added``, and memoized states are plain ints.
    Seeds and improvers are tried in ascending id order, which is
    ``str`` order by construction of the interner, so the search (and
    hence budget exhaustion) is deterministic.
    """

    def __init__(
        self,
        prioritizing: PrioritizingInstance,
        candidate: Instance,
        node_budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes_explored = 0
        core = prioritizing.bitset_core
        self.core = core
        candidate_mask = core.candidate(candidate.facts).mask()
        self.candidate_mask = candidate_mask
        self.outsiders_mask = core.interner.full_mask & ~candidate_mask
        conflict_masks = core.index.conflict_masks()
        self.evicts: Dict[int, int] = {}
        self.outsider_conflicts: Dict[int, int] = {}
        for fid in iter_bits(self.outsiders_mask):
            self.evicts[fid] = conflict_masks[fid] & candidate_mask
            self.outsider_conflicts[fid] = (
                conflict_masks[fid] & self.outsiders_mask
            )
        self.improvers: List[int] = core.priority.improvers_masks()
        self.visited: Set[int] = set()

    def _charge_node(self) -> None:
        self.nodes_explored += 1
        if (
            self.node_budget is not None
            and self.nodes_explored > self.node_budget
        ):
            raise SearchBudgetExceededError(
                "nodes", self.nodes_explored, self.node_budget
            )
        if (
            self.deadline is not None
            and self.nodes_explored % _DEADLINE_STRIDE == 0
            and time.monotonic() > self.deadline
        ):
            raise SearchBudgetExceededError("deadline", self.nodes_explored)

    def improvers_outside(self, fid: int) -> int:
        return self.improvers[fid] & self.outsiders_mask

    def search(self) -> Optional[int]:
        """An added-mask completing to a global improvement, or None."""
        for seed in iter_bits(self.outsiders_mask):
            result = self._extend(1 << seed)
            if result is not None:
                return result
        return None

    def _extend(self, added: int) -> Optional[int]:
        if added in self.visited:
            return None
        self.visited.add(added)
        self._charge_node()
        removed = 0
        for outsider in iter_bits(added):
            removed |= self.evicts[outsider]
        pending = [
            fid
            for fid in iter_bits(removed)
            if not self.improvers[fid] & added
        ]
        if not pending:
            return added
        # Branch on the improvers of one pending fact (any choice keeps
        # completeness; picking the most constrained one prunes best).
        target = min(
            pending, key=lambda fid: popcount(self.improvers_outside(fid))
        )
        for improver in iter_bits(self.improvers_outside(target)):
            bit = 1 << improver
            if added & bit:
                continue
            if self.outsider_conflicts[improver] & added:
                continue  # would make `added` inconsistent
            result = self._extend(added | bit)
            if result is not None:
                return result
        return None


def find_global_improvement(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Optional[Instance]:
    """A global improvement of the repair ``candidate``, or None.

    Assumes ``candidate`` is a repair (run
    :func:`~repro.core.checking.validation.precheck_bitset` first, or
    use :func:`check_globally_optimal_search`).  Complete for every
    schema and for both classical and ccp priorities.

    ``node_budget`` bounds the number of search nodes expanded and
    ``deadline`` (a :func:`time.monotonic` timestamp) bounds wall-clock
    time; exhausting either raises
    :class:`~repro.exceptions.SearchBudgetExceededError`.  With both
    left at None the search is unbounded (and complete).
    """
    searcher = _BitsetSearcher(prioritizing, candidate, node_budget, deadline)
    added_mask = searcher.search()
    if added_mask is None:
        return None
    removed_mask = 0
    for outsider in iter_bits(added_mask):
        removed_mask |= searcher.evicts[outsider]
    interner = searcher.core.interner
    return candidate.replace_facts(
        interner.facts_of(removed_mask), interner.facts_of(added_mask)
    )


def check_globally_optimal_search(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> CheckResult:
    """Globally-optimal repair checking via the improvement search.

    Exact on every schema.  Exponential in the worst case (the problem
    is coNP-complete on the hard schemas), but goal-directed: the search
    explores partial certificates instead of whole repairs, which makes
    it the practical checker for hard schemas whose improvements are
    small or highly structured.

    With a ``node_budget`` or ``deadline`` the search becomes the
    *budgeted* checker the batch service degrades to on the coNP-hard
    side: it either decides the question within the budget or raises
    :class:`~repro.exceptions.SearchBudgetExceededError` — it never
    silently returns a wrong answer.  Budget exhaustion is a
    deterministic function of the input and the budget (the deadline, of
    course, is not).
    """
    failure, _ = precheck_bitset(prioritizing, candidate, "global", _METHOD)
    if failure is not None:
        return failure
    improvement = find_global_improvement(
        prioritizing, candidate, node_budget, deadline
    )
    if improvement is not None:
        return CheckResult(
            is_optimal=False,
            semantics="global",
            method=_METHOD,
            improvement=improvement,
            reason="the certificate search found a global improvement",
        )
    return CheckResult(is_optimal=True, semantics="global", method=_METHOD)
