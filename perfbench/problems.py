"""Seeded request streams for the serving workloads, and their reference answers.

Every request is built from the benchmark's ``--seed``; the program under test
only ever sees the generated wire documents.  Reference answers come from the
library's public checking/computing functions run in-process with the same
node budget the daemon uses, and :func:`verdict` projects a daemon response and
a reference onto the same comparable tuple.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.compute import compute_optimal_repair, count_repairs_entailing
from repro.core import PrioritizingInstance, Schema
from repro.core.checking import check_globally_optimal, check_globally_optimal_search
from repro.core.repairs import greedy_repair
from repro.cqa.queries import query_from_dict
from repro.exceptions import SearchBudgetExceededError
from repro.hardness.schemas import S1
from repro.io import instance_to_list, prioritizing_to_dict
from repro.service.batch_io import candidate_from_spec
from repro.service.policy import needs_degradation
from repro.workloads.generators import random_instance_with_conflicts
from repro.workloads.priorities import random_conflict_priority

#: Node budget sent with every request (and used for every reference).
BUDGET = 2000

SINGLE_FD = Schema.single_relation(["1 -> 2"], relation="R", arity=2)
TWO_KEYS = Schema.single_relation(["1 -> 2", "2 -> 1"], relation="K", arity=2)

#: The cold mix cycles through these (schema, facts, ops) shapes in order, so
#: every seed offers the same composition and only the contents change.  All
#: sizes stay below the 1024-fact ``auto`` backend threshold.
COLD_SHAPES: Tuple[Tuple[str, int, Tuple[str, ...]], ...] = (
    ("single_fd", 10, ("check", "repair", "count")),
    ("two_keys", 40, ("check", "repair")),
    ("single_fd", 80, ("check", "repair", "count")),
    ("s1", 12, ("check",)),
    ("single_fd", 160, ("check", "repair", "count")),
    ("two_keys", 120, ("check", "repair")),
    ("single_fd", 200, ("check", "repair")),
    ("s1", 24, ("check",)),
)

_SCHEMAS = {"single_fd": SINGLE_FD, "two_keys": TWO_KEYS, "s1": S1}


def make_problem(kind: str, size: int, seed: int) -> PrioritizingInstance:
    """One seeded prioritizing instance of ``kind`` with about ``size`` facts."""
    schema = _SCHEMAS[kind]
    instance = random_instance_with_conflicts(schema, size, 0.7, seed=seed)
    priority = random_conflict_priority(schema, instance, seed=seed)
    return PrioritizingInstance(schema, instance, priority)


def _requests_for(
    prioritizing: PrioritizingInstance, ops: Tuple[str, ...], seed: int
) -> List[Dict[str, Any]]:
    """The wire requests (without ``id``) asking ``ops`` about one problem."""
    document = prioritizing_to_dict(prioritizing)
    rng = random.Random(seed)
    facts = instance_to_list(prioritizing.instance)
    requests = []
    for op in ops:
        if op == "check":
            # Odd seeds ask about a random repair (usually improvable, so
            # the checker stops at a witness); even seeds about a repair
            # built in priority order (usually optimal, so the checker
            # must rule every improvement out).
            prefer = _priority_order(prioritizing) if seed % 2 == 0 else None
            candidate = greedy_repair(
                prioritizing.schema, prioritizing.instance, rng=rng,
                prefer=prefer,
            )
            index = {
                (entry["relation"], tuple(entry["values"])): position
                for position, entry in enumerate(facts)
            }
            spec = sorted(
                index[(fact.relation, fact.values)] for fact in candidate.facts
            )
            requests.append(
                {"op": "check", "problem": document, "candidate": spec,
                 "budget": BUDGET}
            )
        elif op == "repair":
            requests.append(
                {"op": "repair", "problem": document, "seed": seed % 1000,
                 "budget": BUDGET}
            )
        else:
            entry = facts[rng.randrange(len(facts))]
            query = {
                "head": [],
                "body": [{"relation": entry["relation"],
                          "terms": [{"const": v} for v in entry["values"]]}],
            }
            requests.append({"op": "count", "problem": document, "query": query})
    return requests


def _priority_order(prioritizing: PrioritizingInstance) -> List:
    """The facts in a topological order of the priority, best first."""
    priority = prioritizing.priority
    remaining = sorted(prioritizing.instance.facts, key=str)
    order: List = []
    while remaining:
        left = set(remaining)
        top = [f for f in remaining if left.isdisjoint(priority.improvers_of(f))]
        order += top
        remaining = [f for f in remaining if f not in set(top)]
    return order


def hot_pool(seed: int, problems: int = 10) -> List[Tuple[Dict, PrioritizingInstance]]:
    """``problems`` small single-FD problems, each asked check, repair and count."""
    pool = []
    for index in range(problems):
        problem_seed = seed * 1000 + index
        prioritizing = make_problem("single_fd", 12, problem_seed)
        for request in _requests_for(
            prioritizing, ("check", "repair", "count"), problem_seed
        ):
            pool.append((request, prioritizing))
    return pool


def cold_stream(
    seed: int, count: int, start: int = 0
) -> List[Tuple[Dict, PrioritizingInstance]]:
    """Requests ``start .. start+count`` of the seed's cold stream.

    Request ``i`` carries problem ``i`` and nothing else does, so no request
    repeats a problem an earlier one carried.
    """
    stream = []
    for index in range(start, start + count):
        kind, size, ops = COLD_SHAPES[index % len(COLD_SHAPES)]
        problem_seed = seed * 1_000_003 + index
        prioritizing = make_problem(kind, size, problem_seed)
        op = ops[(index // len(COLD_SHAPES)) % len(ops)]
        stream += [
            (request, prioritizing)
            for request in _requests_for(prioritizing, (op,), problem_seed)
        ]
    return stream


# -- reference answers ---------------------------------------------------------------


def reference(request: Dict[str, Any], prioritizing: PrioritizingInstance) -> Tuple:
    """The expected verdict of ``request``, from the public library functions."""
    op = request["op"]
    if op == "check":
        candidate = candidate_from_spec(prioritizing, request["candidate"])
        if needs_degradation(prioritizing):
            try:
                result = check_globally_optimal_search(
                    prioritizing, candidate, node_budget=request.get("budget")
                )
            except SearchBudgetExceededError:
                return ("check", "degraded", None)
        else:
            result = check_globally_optimal(prioritizing, candidate)
        return ("check", "ok", result.is_optimal)
    if op == "repair":
        computed = compute_optimal_repair(
            prioritizing,
            semantics="global",
            rng=random.Random(request["seed"]),
            node_budget=request.get("budget"),
        )
        return ("repair", computed.status, _fact_rows(instance_to_list(computed.repair)))
    count = count_repairs_entailing(
        query_from_dict(request["query"]), prioritizing, semantics="global"
    )
    return ("count", count.status, (count.entailing, count.total, count.exact))


def _fact_rows(rows: List[Dict[str, Any]]) -> Tuple:
    return tuple(sorted((row["relation"], tuple(row["values"])) for row in rows))


def verdict(op: str, result: Dict[str, Any]) -> Tuple:
    """Project a daemon ``result`` object onto :func:`reference`'s shape."""
    status = result.get("status")
    if op == "check":
        return ("check", status, result.get("is_optimal"))
    payload = result.get("payload") or {}
    if op == "repair":
        return ("repair", status, _fact_rows(payload.get("repair", [])))
    return ("count", status,
            (payload.get("entailing"), payload.get("total"), payload.get("exact")))
