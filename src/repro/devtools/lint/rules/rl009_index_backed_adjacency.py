"""RL009 — checkers use the carried conflict index, not raw adjacency.

The columnar core work (DESIGN.md §13) made conflict adjacency a
*carried* artifact: a :class:`~repro.core.priority.PrioritizingInstance`
caches both the object :class:`~repro.core.conflicts.ConflictIndex` and
the :class:`~repro.core.bitset_index.BitsetCore`, so every checker that
receives one already has per-fact adjacency in O(1).  A checker that
nevertheless rebuilds adjacency from scratch — constructing a fresh
index, calling a one-shot ``repro.core.conflicts`` convenience wrapper,
or hand-rolling per-fact ``frozenset`` neighbour sets out of raw
``fd.is_conflict`` pair tests — silently restores the quadratic scans
the fast paths removed.

There is no execution selector for the rule to protect any more (the
tractable checkers, the Pareto and completion checks, and the
improvement search run on the bitset core only).  The rule stays
active because the ccp checkers, the brute-force checkers, and the
retained ``*_fresh``/``*_literal`` baselines still receive a carrier,
and a rebuilt index there is the same regression.

The rule checks every function in ``src/repro/core/checking/`` that
receives an index carrier (a parameter named ``prioritizing``,
``index``, ``conflict_index``, or ``core``) and flags, inside its body:

* ``ConflictIndex(...)`` / ``BitsetConflictIndex(...)`` construction
  (the carrier already holds one),
* calls to the one-shot module helpers ``facts_conflicting_with``,
  ``conflict_graph``, ``conflicting_pairs``, ``naive_conflicting_pairs``
  (each builds and throws away a full index), and
* direct ``is_conflict(...)`` pair tests (hand-rolled adjacency).

Deliberate per-call rebuilds — the ``*_fresh`` ablation baselines and
the Figure-faithful ``*_literal`` checkers, whose whole point is to
cost what the pre-fast-path code cost — carry inline
``# repro-lint: ignore[RL009]`` justifications.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.devtools.lint.asthelpers import call_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register

__all__ = ["IndexBackedAdjacencyRule"]

#: Parameter names that carry a cached conflict index into a function.
_CARRIERS = frozenset({"prioritizing", "index", "conflict_index", "core"})

#: Index constructors: rebuilding one discards the carried cache.
_INDEX_CONSTRUCTORS = frozenset({"ConflictIndex", "BitsetConflictIndex"})

#: One-shot repro.core.conflicts wrappers that build a throwaway index.
_ONE_SHOT_HELPERS = frozenset(
    {
        "facts_conflicting_with",
        "conflict_graph",
        "conflicting_pairs",
        "naive_conflicting_pairs",
    }
)

#: The raw pairwise FD primitive; loops over it are hand-rolled adjacency.
_PAIRWISE = frozenset({"is_conflict"})


def _parameter_names(func: ast.AST) -> Set[str]:
    args = func.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


@register
class IndexBackedAdjacencyRule(Rule):
    code = "RL009"
    name = "index-backed-adjacency"
    summary = (
        "checkers holding a conflict-index carrier must not rebuild "
        "raw per-fact adjacency (fresh index, one-shot helper, or "
        "is_conflict pair loop)"
    )
    rationale = (
        "PrioritizingInstance caches both conflict indexes; a checker "
        "that reconstructs adjacency restores the quadratic scans the "
        "shared indexes removed."
    )
    scopes = ("src/repro/core/checking/",)

    def check(self, ctx) -> Iterator[Finding]:
        flagged: Set[int] = set()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _CARRIERS.isdisjoint(_parameter_names(func)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call) or id(node) in flagged:
                    continue
                name = call_name(node)
                if name in _INDEX_CONSTRUCTORS:
                    message = (
                        f"fresh {name}(...) inside a checker that already "
                        f"carries a conflict index; use the cached "
                        f"prioritizing.conflict_index / .bitset_core"
                    )
                elif name in _ONE_SHOT_HELPERS:
                    message = (
                        f"one-shot {name}(...) builds a throwaway index; "
                        f"query the carried ConflictIndex/BitsetCore "
                        f"instead"
                    )
                elif name in _PAIRWISE:
                    message = (
                        "raw is_conflict(...) pair test hand-rolls "
                        "adjacency; use the carried index's conflicts_of/"
                        "conflicts_of_in"
                    )
                else:
                    continue
                flagged.add(id(node))
                yield self.finding(ctx, node, message)
