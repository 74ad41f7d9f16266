"""Oracle conformance: every checker must match the definitional oracle.

:mod:`repro.testing.oracle` re-derives optimal-repair checking from the
paper's definitions by exhaustive subset enumeration, sharing no code
with the production checkers.  These tests drive both sides with
generated problems — seeded loops that *count* at least
:data:`CASES_PER_CHECKER` (problem, candidate) cases per checker, plus
hypothesis properties for free-form fuzzing — and demand zero
divergence.  Candidates deliberately include inconsistent, non-maximal,
and empty subsets, not just repairs: the precheck path is part of the
contract.

This suite is what caught the completion-checker's forced-orientation
bug (greedy domination must include transitively forced completions,
not just raw ≻-edges) — keep it ruthless.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fact, PrioritizingInstance, PriorityRelation
from repro.core.checking import (
    brute_force_completion_check,
    check_completion_optimal,
    check_globally_optimal,
    check_globally_optimal_brute_force,
    check_globally_optimal_search,
    check_pareto_optimal,
    check_single_fd,
    check_two_keys,
)
from repro.core.classification import equivalent_single_fd, equivalent_two_keys
from repro.core.repairs import enumerate_repairs
from repro.exceptions import CyclicPriorityError, NotASubinstanceError
from repro.testing import oracle_check, oracle_optimal_repairs
from repro.workloads.priorities import (
    random_ccp_priority,
    random_conflict_priority,
)

from tests.helpers import (
    hard_schema,
    make_instance,
    make_pri,
    rows,
    single_fd_schema,
    two_keys_schema,
)

#: Every checker must survive at least this many generated cases.
CASES_PER_CHECKER = 200

#: Generation caps: small enough for the exponential oracle, large
#: enough that maximality, blocks, and priority chains all show up.
MAX_FACTS = 5
ALPHABET = 3


def _random_problem(rng, schema, arity, ccp=False):
    """One random prioritizing instance, or None when the sampled
    priority happens to be cyclic (the caller just resamples)."""
    n = rng.randint(1, MAX_FACTS)
    facts = list(
        {
            Fact("R", tuple(rng.randint(0, ALPHABET - 1) for _ in range(arity)))
            for _ in range(n)
        }
    )
    instance = schema.instance(facts)
    if ccp:
        priority = random_ccp_priority(
            schema, instance, cross_probability=0.25, seed=rng.randint(0, 10**6)
        )
        return PrioritizingInstance(schema, instance, priority, ccp=True)
    conflicts = [
        (f, g)
        for f, g in itertools.combinations(facts, 2)
        if not schema.is_consistent(schema.instance([f, g]))
    ]
    edges = []
    for f, g in conflicts:
        roll = rng.random()
        if roll < 0.4:
            edges.append((f, g))
        elif roll < 0.8:
            edges.append((g, f))
    try:
        return PrioritizingInstance(schema, instance, PriorityRelation(edges))
    except CyclicPriorityError:
        return None


def _all_subsets(prioritizing):
    facts = sorted(prioritizing.instance.facts, key=str)
    schema = prioritizing.schema
    for mask in range(1 << len(facts)):
        yield schema.instance(
            [fact for bit, fact in enumerate(facts) if mask >> bit & 1]
        )


def _conform(checker, semantics, schema_builder, arity, seed, ccp=False):
    """Drive ``checker`` against the oracle until the case quota is met."""
    rng = random.Random(seed)
    schema = schema_builder()
    cases = 0
    trials = 0
    while cases < CASES_PER_CHECKER:
        trials += 1
        assert trials < 500, "generator failed to reach the case quota"
        prioritizing = _random_problem(rng, schema, arity, ccp=ccp)
        if prioritizing is None:
            continue
        for candidate in _all_subsets(prioritizing):
            expected = oracle_check(prioritizing, candidate, semantics)
            actual = bool(checker(prioritizing, candidate))
            assert actual == expected, (
                sorted(map(str, prioritizing.instance)),
                sorted(
                    (str(a), str(b))
                    for a, b in prioritizing.priority.edges
                ),
                sorted(map(str, candidate)),
                semantics,
                actual,
                expected,
            )
            cases += 1
    assert cases >= CASES_PER_CHECKER


# -- seeded quotas, one per checker --------------------------------------------------


def _single_fd_checker():
    witness = equivalent_single_fd(single_fd_schema().fds_for("R"))
    return lambda pri, candidate: check_single_fd(pri, candidate, witness)


def _two_keys_checker():
    key1, key2 = equivalent_two_keys(two_keys_schema().fds_for("R"))
    return lambda pri, candidate: check_two_keys(pri, candidate, key1, key2)


def test_single_fd_checker_conforms():
    _conform(_single_fd_checker(), "global", single_fd_schema, 2, seed=101)


def test_two_keys_checker_conforms():
    _conform(_two_keys_checker(), "global", two_keys_schema, 2, seed=202)


def test_dispatcher_conforms_on_tractable_schemas():
    _conform(check_globally_optimal, "global", single_fd_schema, 2, seed=303)
    _conform(check_globally_optimal, "global", two_keys_schema, 2, seed=304)


def test_dispatcher_conforms_on_hard_schema():
    # The hard side of Theorem 3.1: the dispatcher falls back to the
    # improvement search / brute force; the oracle doesn't care.
    _conform(check_globally_optimal, "global", hard_schema, 3, seed=404)


def test_dispatcher_conforms_on_ccp_instances():
    _conform(
        check_globally_optimal, "global", single_fd_schema, 2,
        seed=505, ccp=True,
    )


def test_brute_force_conforms():
    _conform(
        check_globally_optimal_brute_force, "global",
        single_fd_schema, 2, seed=606,
    )


def test_improvement_search_conforms_on_hard_schema():
    _conform(
        check_globally_optimal_search, "global", hard_schema, 3, seed=707
    )


def test_pareto_checker_conforms():
    _conform(check_pareto_optimal, "pareto", single_fd_schema, 2, seed=808)
    _conform(check_pareto_optimal, "pareto", hard_schema, 3, seed=809)


def test_completion_checker_conforms():
    _conform(
        check_completion_optimal, "completion", two_keys_schema, 2, seed=909
    )
    _conform(
        check_completion_optimal, "completion", hard_schema, 3, seed=910
    )


def test_completion_brute_force_conforms():
    _conform(
        brute_force_completion_check, "completion",
        two_keys_schema, 2, seed=111,
    )


def test_completion_forced_orientation_regression():
    """The exact counterexample the oracle caught: orienting d ≻' c
    would close the cycle c ≻ b ≻ d ≻' c, so every completion has
    c ≻' d and {a, d} is improvable — not completion-optimal."""
    schema = two_keys_schema()
    a, b = Fact("R", (0, 0)), Fact("R", (0, 1))
    c, d = Fact("R", (1, 1)), Fact("R", (2, 1))
    prioritizing = make_pri(schema, [a, b, c, d], [(a, b), (b, d), (c, b)])
    candidate = schema.instance([a, d])
    assert not oracle_check(prioritizing, candidate, "completion")
    assert not check_completion_optimal(prioritizing, candidate)
    assert not brute_force_completion_check(prioritizing, candidate)
    # {a, c} is the improvement every completion admits.
    better = schema.instance([a, c])
    assert check_completion_optimal(prioritizing, better)


# -- hypothesis fuzzing, both sides of the dichotomy ---------------------------------


@settings(max_examples=25, deadline=None)
@given(rows(2, max_rows=MAX_FACTS), st.integers(min_value=0, max_value=10))
def test_hypothesis_tractable_side_agrees_with_oracle(data, seed):
    schema = single_fd_schema()
    instance = make_instance(schema, data)
    priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    single_fd = _single_fd_checker()
    for candidate in enumerate_repairs(schema, instance):
        expected = oracle_check(prioritizing, candidate, "global")
        assert bool(single_fd(prioritizing, candidate)) == expected
        assert bool(check_globally_optimal(prioritizing, candidate)) == expected


@settings(max_examples=25, deadline=None)
@given(rows(2, max_rows=MAX_FACTS), st.integers(min_value=0, max_value=10))
def test_hypothesis_two_keys_agrees_with_oracle(data, seed):
    schema = two_keys_schema()
    instance = make_instance(schema, data)
    priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    two_keys = _two_keys_checker()
    for candidate in enumerate_repairs(schema, instance):
        expected = oracle_check(prioritizing, candidate, "global")
        assert bool(two_keys(prioritizing, candidate)) == expected


@settings(max_examples=15, deadline=None)
@given(rows(3, max_rows=MAX_FACTS), st.integers(min_value=0, max_value=10))
def test_hypothesis_hard_side_agrees_with_oracle(data, seed):
    schema = hard_schema()
    instance = make_instance(schema, data)
    priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    for candidate in enumerate_repairs(schema, instance):
        expected = oracle_check(prioritizing, candidate, "global")
        assert bool(check_globally_optimal(prioritizing, candidate)) == expected
        assert (
            bool(check_globally_optimal_search(prioritizing, candidate))
            == expected
        )


# -- edge-of-contract parity ---------------------------------------------------------


def test_not_a_subinstance_raises_on_both_sides():
    schema = single_fd_schema()
    f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    stray = Fact("R", (9, "z"))
    prioritizing = make_pri(schema, [f, g], [(f, g)])
    outside = schema.instance([f, stray])
    with pytest.raises(NotASubinstanceError):
        oracle_check(prioritizing, outside, "global")
    with pytest.raises(NotASubinstanceError):
        check_globally_optimal(prioritizing, outside)


# -- the backend-parity seeds, held to the oracle ------------------------------------
#
# These (checker, schema, seed, ccp) cases once compared two executions
# of each checker; with one execution left they count
# >= CASES_PER_CHECKER cases against the oracle alone, adding fresh
# seeds to every quota above (pareto and completion on the hard schema
# and the dispatcher on ccp instances included).


def test_single_fd_backends_agree():
    _conform(_single_fd_checker(), "global", single_fd_schema, 2, seed=1101)


def test_two_keys_backends_agree():
    _conform(_two_keys_checker(), "global", two_keys_schema, 2, seed=1202)


def test_pareto_backends_agree():
    _conform(check_pareto_optimal, "pareto", single_fd_schema, 2, seed=1808)
    _conform(check_pareto_optimal, "pareto", hard_schema, 3, seed=1809)


def test_completion_backends_agree():
    _conform(
        check_completion_optimal, "completion", two_keys_schema, 2, seed=1909
    )
    _conform(
        check_completion_optimal, "completion", hard_schema, 3, seed=1910
    )


def test_improvement_search_backends_agree():
    _conform(
        check_globally_optimal_search, "global", hard_schema, 3, seed=1707
    )


def test_dispatcher_backends_agree():
    _conform(check_globally_optimal, "global", single_fd_schema, 2, seed=1303)
    _conform(check_globally_optimal, "global", two_keys_schema, 2, seed=1304)
    _conform(
        check_globally_optimal, "global", single_fd_schema, 2,
        seed=1505, ccp=True,
    )


@settings(max_examples=25, deadline=None)
@given(rows(2, max_rows=MAX_FACTS), st.integers(min_value=0, max_value=10))
def test_hypothesis_backend_equivalence_tractable(data, seed):
    """Free-form fuzz: every semantics' checker decides every subset
    exactly as the definitional oracle does, on the tractable side."""
    schema = two_keys_schema()
    instance = make_instance(schema, data)
    priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    for candidate in _all_subsets(prioritizing):
        for checker, semantics in (
            (check_globally_optimal, "global"),
            (check_pareto_optimal, "pareto"),
            (check_completion_optimal, "completion"),
        ):
            assert bool(checker(prioritizing, candidate)) == oracle_check(
                prioritizing, candidate, semantics
            )


@settings(max_examples=15, deadline=None)
@given(rows(3, max_rows=MAX_FACTS), st.integers(min_value=0, max_value=10))
def test_hypothesis_backend_equivalence_hard_side(data, seed):
    schema = hard_schema()
    instance = make_instance(schema, data)
    priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    for candidate in enumerate_repairs(schema, instance):
        assert bool(
            check_globally_optimal_search(prioritizing, candidate)
        ) == oracle_check(prioritizing, candidate, "global")


def test_not_a_subinstance_raises_on_both_backends():
    # The Pareto checker's own precheck (not the dispatcher's hoisted
    # guard) must reject a candidate with facts outside the instance.
    schema = single_fd_schema()
    f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    stray = Fact("R", (9, "z"))
    prioritizing = make_pri(schema, [f, g], [(f, g)])
    outside = schema.instance([f, stray])
    with pytest.raises(NotASubinstanceError):
        check_pareto_optimal(prioritizing, outside)


def test_oracle_repair_enumeration_matches_checkers():
    """Cross-check the oracle's own enumeration: the optimal repairs it
    lists are exactly the subsets each checker accepts."""
    rng = random.Random(42)
    schema = two_keys_schema()
    seen = 0
    while seen < 20:
        prioritizing = _random_problem(rng, schema, 2)
        if prioritizing is None:
            continue
        seen += 1
        optimal = set(oracle_optimal_repairs(prioritizing, "global"))
        accepted = {
            frozenset(candidate.facts)
            for candidate in _all_subsets(prioritizing)
            if check_globally_optimal(prioritizing, candidate)
        }
        assert optimal == accepted
