"""RL002 — every public checker entry point validates its candidate.

PR 1 made ``NotASubinstanceError`` the uniform malformed-input signal
across all dispatcher methods: a candidate with facts outside ``I`` is
an *error*, never a "not optimal" verdict.  The batch service and the
CQA layer rely on that contract to distinguish bad requests from
negative answers — a checker that skips the validation would misreport
garbage candidates as verdicts and poison the result cache (the cache
key includes the candidate, so a wrong verdict is replayed forever).

The rule checks every public module-level ``check_*`` function in
``src/repro/core/checking/`` that takes a ``candidate`` parameter and
requires its body to validate before use, by any of the accepted means:

* calling :func:`repro.core.checking.validation.precheck`, its
  bitset-core twin ``precheck_bitset`` (which raises the same
  ``NotASubinstanceError`` on stray facts), or the retained
  ``precheck_fresh`` baseline,
* raising ``NotASubinstanceError`` itself,
* calling ``.subinstance(...)`` (which validates membership), or
* delegating to another ``check_*`` entry point (which then validates).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.asthelpers import call_name, terminal_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register

__all__ = ["DispatchValidationRule"]

_VALIDATOR_CALLS = frozenset(
    {"precheck", "precheck_bitset", "precheck_fresh", "subinstance"}
)


def _validates(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is None:
                continue
            if name in _VALIDATOR_CALLS:
                return True
            if name.startswith("check_"):
                return True
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            raised = (
                call_name(exc) if isinstance(exc, ast.Call)
                else terminal_name(exc)
            )
            if raised == "NotASubinstanceError":
                return True
    return False


@register
class DispatchValidationRule(Rule):
    code = "RL002"
    name = "dispatch-validation"
    summary = (
        "public check_* entry points must validate candidate ⊆ I "
        "(precheck or NotASubinstanceError) before use"
    )
    rationale = (
        "The service layer's cache keys include the candidate; an entry "
        "point that answers instead of raising on a non-subinstance "
        "poisons cached verdicts for the coNP-hard schemas of Thm 3.1."
    )
    scopes = ("src/repro/core/checking/",)

    def check(self, ctx) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_") or not node.name.startswith("check"):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "candidate" not in names:
                continue
            if not _validates(node):
                yield self.finding(
                    ctx,
                    node,
                    f"public checker {node.name}() uses its candidate "
                    f"without subinstance validation (call precheck or "
                    f"raise NotASubinstanceError)",
                )
