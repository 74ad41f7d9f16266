"""``GRepCheck1FD`` — globally-optimal repair checking under a single FD.

Implements Section 4.1 / Figure 2 of the paper, for a single-relation
schema whose FDs are equivalent to one FD ``A → B``.  The equivalence
matters: conflicting pairs (hence consistency of subinstances) are
identical between ``Δ|R`` and its single-FD witness, so the algorithm may
work entirely with the witness.

The algorithm's engine is the *block swap* ``J[f ↔ g]`` (Example 4.1):
for conflicting ``f ∈ J`` and ``g ∈ I \\ J`` (they agree on ``A``,
disagree on ``B``), remove from ``J`` every fact agreeing with ``f`` on
``A ∪ B`` and add every fact of ``I`` agreeing with ``g`` on ``A ∪ B``.
The result is always consistent, and Lemma 4.2 shows that if *any* global
improvement exists then some block swap is one — so testing every
conflicting pair decides optimality.

The literal paper loop tests every conflicting *pair* ``(f, g)``, but the
swap depends only on the pair of blocks (all facts of a block produce the
same swap), so :func:`check_single_fd` iterates over blocks; the
pair-level loop is kept as :func:`check_single_fd_literal` for the
fidelity tests and the ablation benchmark.
"""

from __future__ import annotations

from repro.core.checking.result import CheckResult
from repro.core.checking.validation import precheck_bitset, precheck_fresh
from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.improvements import is_global_improvement
from repro.core.instance import Instance
from repro.core.interning import iter_bits
from repro.core.priority import PrioritizingInstance

__all__ = ["check_single_fd", "check_single_fd_literal", "block_swap"]

_METHOD = "GRepCheck1FD"


def block_swap(
    instance: Instance,
    candidate: Instance,
    fd: FD,
    fact_in: Fact,
    fact_out: Fact,
) -> Instance:
    """The paper's ``J[f ↔ g]`` (Section 4.1).

    ``fact_in`` (the paper's ``f``) must belong to ``candidate``;
    ``fact_out`` (the paper's ``g``) agrees with it on ``fd.lhs`` and
    disagrees on ``fd.rhs``.  Removes from ``candidate`` all facts
    agreeing with ``fact_in`` on ``lhs ∪ rhs`` and adds all facts of
    ``instance`` agreeing with ``fact_out`` on ``lhs ∪ rhs``.
    """
    span = fd.span_sorted
    removed = [
        fact for fact in candidate if fact.agrees_with(fact_in, span)
    ]
    added = [
        fact for fact in instance if fact.agrees_with(fact_out, span)
    ]
    return candidate.replace_facts(removed, added)


def check_single_fd(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    fd: FD,
) -> CheckResult:
    """``GRepCheck1FD`` at block granularity (Figure 2, optimized).

    Parameters
    ----------
    prioritizing:
        The classical prioritizing instance ``(I, ≻)`` over a
        single-relation schema.
    candidate:
        The subinstance ``J`` to check.
    fd:
        The single FD ``A → B`` that ``Δ|R`` is equivalent to (produced
        by :func:`repro.core.classification.equivalent_single_fd`).

    For each lhs-group containing candidate facts, and each rhs-value of
    that group other than the candidate's, the corresponding block swap
    is tested for being a global improvement.  The block partition is
    the precompiled :class:`~repro.core.bitset_index._FDLayout` of
    ``fd``, so the test is one ``improvers_local & added`` word-op per
    removed fact — the facts entering a swap are always in a different
    rhs-block than the kept one, hence outside the consistent candidate,
    so the symmetric difference is known without building the swap
    instance; the witness ``Instance`` is materialized only for the swap
    that succeeds.
    """
    failure, view = precheck_bitset(prioritizing, candidate, "global", _METHOD)
    if failure is not None:
        return failure
    if fd.is_trivial():
        # No conflicts are possible, so the only repair is I itself and
        # precheck has already confirmed maximality (hence J = I).
        return CheckResult(is_optimal=True, semantics="global", method=_METHOD)
    core = prioritizing.bitset_core
    layout = core.layout_for(fd)
    improvers = core.priority.improvers_local(layout)
    kept, kept_rhs, _ = view.kept_for(layout)
    fact_of = core.interner.fact_of
    for group in range(layout.group_count):
        removed_mask = kept[group]
        if not removed_mask:
            continue
        members = layout.group_members[group]
        subs = layout.group_rhs_subs[group]
        if len(subs) < 2:
            continue
        kept_sub = kept_rhs[group]
        removed_ids = [members[local] for local in iter_bits(removed_mask)]
        for sub, added_mask in enumerate(subs):
            if sub == kept_sub:
                continue
            if all(
                improvers[fid] & added_mask for fid in removed_ids
            ):
                swap = candidate.replace_facts(
                    [fact_of(fid) for fid in removed_ids],
                    [
                        fact_of(members[local])
                        for local in iter_bits(added_mask)
                    ],
                )
                lhs_value = layout.group_lhs_values[group]
                rhs_value = layout.group_rhs_values[group][sub]
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


def check_single_fd_literal(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    fd: FD,
) -> CheckResult:
    """``GRepCheck1FD`` exactly as printed in Figure 2.

    Loops over all conflicting pairs ``f ∈ J``, ``g ∈ I \\ J`` and tests
    whether ``J[f ↔ g]`` is a global improvement of ``J``.  Kept for
    fidelity testing and for the block-vs-pair ablation benchmark; uses
    the per-call :func:`precheck_fresh` so its cost profile matches the
    pre-fast-path implementation end to end.
    """
    failure = precheck_fresh(
        prioritizing, candidate, "global", _METHOD + "-literal"
    )
    if failure is not None:
        return failure
    instance = prioritizing.instance
    priority = prioritizing.priority
    outsiders = instance.facts - candidate.facts
    for fact_in in candidate:
        for fact_out in outsiders:
            if not fd.is_conflict(  # repro-lint: ignore[RL009]
                fact_in, fact_out
            ):
                continue
            swap = block_swap(instance, candidate, fd, fact_in, fact_out)
            if is_global_improvement(swap, candidate, priority):
                return CheckResult(
                    is_optimal=False,
                    semantics="global",
                    method=_METHOD + "-literal",
                    improvement=swap,
                    reason=f"J[{fact_in} <-> {fact_out}] improves J",
                )
    return CheckResult(
        is_optimal=True, semantics="global", method=_METHOD + "-literal"
    )
