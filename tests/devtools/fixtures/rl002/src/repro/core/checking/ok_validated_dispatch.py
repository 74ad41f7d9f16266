"""RL002 near-miss set: validation, delegation, and private helpers."""

from repro.core.checking.validation import precheck, precheck_bitset
from repro.exceptions import NotASubinstanceError


def check_with_precheck(prioritizing, candidate):
    precheck(prioritizing, candidate)
    return _check_kernel(prioritizing, candidate)


def check_with_bitset_precheck(prioritizing, candidate):
    failure, _ = precheck_bitset(prioritizing, candidate, "global", "m")
    return failure or _check_kernel(prioritizing, candidate)


def check_with_manual_guard(prioritizing, candidate):
    if not candidate.facts() <= prioritizing.instance.facts():
        raise NotASubinstanceError("candidate is not a subinstance")
    return _check_kernel(prioritizing, candidate)


def check_by_delegation(prioritizing, candidate):
    return check_with_precheck(prioritizing, candidate)


def check_whole_instance(prioritizing):
    return True


def _check_kernel(prioritizing, candidate):
    return candidate.facts() <= prioritizing.instance.facts()
