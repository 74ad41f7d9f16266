"""Command-line interface for the :mod:`repro` library.

Subcommands
-----------
``repro classify "R:3; 1 -> 2; 2 -> 3"``
    Classify a schema under Theorem 3.1 and Theorem 7.1 and print both
    verdicts with witnesses.
``repro demo``
    Replay the paper's running example end to end.
``repro gadget --nodes 4 --edges 0,1 1,2 2,3 3,0``
    Build the Lemma 5.2 gadget for a graph, run the checker, and report
    whether the encoded Hamiltonian-cycle answer matches Held–Karp.
``repro hard-schemas``
    Print the classification of the paper's ten anchor schemas.
``repro clean problem.json --out cleaned.json``
    Load a JSON cleaning problem (see :mod:`repro.io`), produce a
    preferred repair, certify it, and optionally write the result.
``repro repair problem.json --semantics pareto --out repair.json``
    Construct an optimal repair directly through
    :func:`repro.compute.compute_optimal_repair`: exact greedy
    construction on the tractable side, the anytime improvement climb
    (``--budget`` / ``--timeout``) on the coNP-hard side, certified by
    the corresponding checker before printing.
``repro explain "R:3; 1 -> 2; 2 -> 3"``
    Prose classification of a schema under both theorems.
``repro stats problem.json``
    Profile a problem's conflict and priority structure.
``repro serve-batch jobs.json --out results.jsonl --workers 4``
    Run a batch of repair-check jobs through the
    :class:`~repro.service.RepairService` (worker pool, result cache,
    budgeted degradation on coNP-hard schemas) and write JSONL results
    plus a metrics summary.  Job files are JSON or CSV (see
    :mod:`repro.service.batch_io` for the formats).  ``--store
    run.sqlite`` writes every finished deterministic result to the
    durable verdict store; after an interruption (Ctrl-C or a hard
    kill), re-running with the same ``--store`` serves the stored
    results and recomputes only the rest.  ``--chaos
    "seed=3,transient=0.3,crash=0.1"`` injects a deterministic fault
    schedule (see :mod:`repro.service.faults`) for resilience drills.
``repro serve --socket /tmp/repro.sock`` / ``repro serve --port 7464``
    Run the persistent async repair-checking daemon: one warm
    :class:`~repro.service.RepairService` behind a unix or TCP socket
    speaking newline-delimited JSON (``check``, ``repair``, ``count``,
    ``classify``, ``ping``, ``stats``, ``drain`` — see
    :mod:`repro.server.protocol`).
    Admission control rejects work beyond ``--max-inflight`` +
    ``--queue-limit`` with explicit ``overloaded`` errors; SIGINT or
    SIGTERM drains gracefully (in-flight checks finish and reach the
    ``--store``, a final metrics snapshot is printed).
``repro workload generate|inject|check|repair|e2e``
    The TPC-H-scale workload pipeline (:mod:`repro.workloads.tpch`,
    :mod:`repro.workloads.injection`, :mod:`repro.engine.streaming`):
    ``generate`` writes clean ``.tbl`` tables at a scale factor and
    seed; ``inject`` additionally corrupts them at a seeded rate and
    writes the conflict manifest; ``check`` streams a written workload
    through the sqlite loader and cross-checks the discovered conflicts
    against the manifest; ``repair`` computes and certifies an optimal
    repair of the conflict kernel under the manifest's two-tier
    priority; ``e2e`` runs the whole pipeline in one pass without
    touching disk for the tables.
``repro lint --format json src``
    Run the project-invariant AST linter (rules RL001-RL008; see
    :mod:`repro.devtools.lint` and ``docs/lint_rules.md``); all
    arguments are forwarded to ``python -m repro.devtools.lint``.

Schema syntax: ``<Rel>:<arity>[, <Rel>:<arity> ...]; <fd>; <fd>; ...``
with FDs in the paper's shorthand, e.g. ``R: {1,2} -> 3``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.classification import classify_ccp_schema, classify_schema

from repro.exceptions import UsageError
from repro.io import parse_schema_spec

__all__ = ["main", "parse_schema_spec"]


def _cmd_classify(args: argparse.Namespace) -> int:
    schema = parse_schema_spec(args.schema)
    print(classify_schema(schema).describe())
    print()
    print(classify_ccp_schema(schema).describe())
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    from repro.core.checking import check_globally_optimal, check_pareto_optimal
    from repro.workloads.scenarios import running_example

    example = running_example()
    prioritizing = example.prioritizing
    print("Running example (Figure 1):", prioritizing)
    print(classify_schema(example.schema).describe())
    for name, candidate in [
        ("J1", example.j1),
        ("J2", example.j2),
        ("J3", example.j3),
        ("J4", example.j4),
    ]:
        globally = check_globally_optimal(prioritizing, candidate)
        pareto = check_pareto_optimal(prioritizing, candidate)
        print(
            f"{name}: globally-optimal={globally.is_optimal} "
            f"pareto-optimal={pareto.is_optimal}"
        )
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    from repro.core.checking import check_globally_optimal_search
    from repro.hardness.hamiltonian import UndirectedGraph, has_hamiltonian_cycle
    from repro.hardness.hc_reduction import build_hamiltonian_gadget

    edges = []
    for token in args.edges or []:
        u, _, v = token.partition(",")
        edges.append((int(u), int(v)))
    graph = UndirectedGraph(args.nodes, edges)
    gadget = build_hamiltonian_gadget(graph)
    expected = has_hamiltonian_cycle(graph)
    result = check_globally_optimal_search(
        gadget.prioritizing, gadget.repair
    )
    print(f"graph: {args.nodes} nodes, {len(edges)} edges")
    print(f"gadget instance: {len(gadget.prioritizing.instance)} facts")
    print(f"Held-Karp says Hamiltonian: {expected}")
    print(f"checker says J globally-optimal: {result.is_optimal}")
    agree = expected != result.is_optimal
    print("reduction agrees:", agree)
    if result.improvement is not None:
        print(
            "extracted cycle:",
            gadget.cycle_from_improvement(result.improvement),
        )
    return 0 if agree else 1


def _cmd_hard_schemas(_: argparse.Namespace) -> int:
    from repro.hardness.schemas import CCP_HARD_SCHEMAS, HARD_SCHEMAS

    print("Theorem 3.1 anchors (Example 3.4):")
    for index, schema in HARD_SCHEMAS.items():
        verdict = classify_schema(schema)
        print(f"  S{index}: tractable={verdict.is_tractable}")
    print("Theorem 7.1 anchors (Section 7.3):")
    for letter, schema in CCP_HARD_SCHEMAS.items():
        verdict = classify_ccp_schema(schema)
        print(f"  S{letter}: ccp-tractable={verdict.is_tractable}")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    from repro.core.checking import check_globally_optimal
    from repro.engine import RepairManager
    from repro.io import (
        instance_to_list,
        load_prioritizing_instance,
    )

    prioritizing = load_prioritizing_instance(args.problem)
    manager = RepairManager(prioritizing)
    cleaned = manager.clean(seed=args.seed)
    result = check_globally_optimal(prioritizing, cleaned)
    print(
        f"loaded {len(prioritizing.instance)} facts, "
        f"{len(prioritizing.priority)} priorities"
    )
    print(f"cleaned instance keeps {len(cleaned)} facts")
    print(f"certified globally-optimal: {result.is_optimal} "
          f"(algorithm: {result.method})")
    if args.out:
        import json

        Path(args.out).write_text(
            json.dumps(instance_to_list(cleaned), indent=2)
        )
        print(f"wrote {args.out}")
    return 0 if result.is_optimal else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    import json
    import random

    from repro.compute import compute_optimal_repair
    from repro.core.checking import (
        check_completion_optimal,
        check_globally_optimal,
        check_pareto_optimal,
    )
    from repro.exceptions import ReproError
    from repro.io import instance_to_list, load_prioritizing_instance

    prioritizing = load_prioritizing_instance(args.problem)
    try:
        computed = compute_optimal_repair(
            prioritizing,
            semantics=args.semantics,
            rng=random.Random(args.seed),
            node_budget=args.budget,
            deadline=None,
        )
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(
        f"loaded {len(prioritizing.instance)} facts, "
        f"{len(prioritizing.priority)} priorities "
        f"(ccp={prioritizing.is_ccp})"
    )
    print(
        f"computed {args.semantics}-optimal repair: status={computed.status} "
        f"method={computed.method} rounds={computed.rounds}"
    )
    if computed.reason:
        print(f"  {computed.reason}")
    print(f"repair keeps {len(computed.repair)} facts")
    certified = None
    if computed.status == "ok":
        checker = {
            "global": check_globally_optimal,
            "pareto": check_pareto_optimal,
            "completion": check_completion_optimal,
        }[args.semantics]
        try:
            certified = checker(prioritizing, computed.repair).is_optimal
        except UsageError as exc:
            print(f"certification unavailable: {exc}")
        else:
            print(f"certified {args.semantics}-optimal: {certified}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(instance_to_list(computed.repair), indent=2)
        )
        print(f"wrote {args.out}")
    if computed.status != "ok":
        return 2
    return 0 if certified in (True, None) else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.explain import (
        explain_ccp_classification,
        explain_classification,
    )

    schema = parse_schema_spec(args.schema)
    print(explain_classification(schema))
    print()
    print(explain_ccp_classification(schema))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis import instance_statistics, priority_statistics
    from repro.io import load_prioritizing_instance

    prioritizing = load_prioritizing_instance(args.problem)
    stats = instance_statistics(prioritizing.schema, prioritizing.instance)
    pstats = priority_statistics(prioritizing)
    print(f"facts:                 {stats.fact_count}")
    print(f"conflicting pairs:     {stats.conflict_count}")
    print(f"conflict rate:         {stats.conflict_rate:.2f}")
    print(f"conflict components:   {stats.component_count} "
          f"(largest: {stats.largest_component})")
    print(f"priority edges:        {pstats['edge_count']:.0f}")
    print(f"orientation rate:      {pstats['orientation_rate']:.2f}")
    print(f"cross-conflict edges:  {pstats['cross_conflict_edges']:.0f}")
    return 0


def _open_store(args: argparse.Namespace, stack, command: str):
    """The ``--store`` verdict store entered on ``stack`` (None without
    ``--store``); reports on stderr when opening healed a corrupt file."""
    if not args.store:
        return None
    from repro.service import SqliteStore

    store = stack.enter_context(SqliteStore(args.store))
    if store.healed:
        print(
            f"repro {command}: store {args.store} was corrupt; "
            "quarantined and recreated",
            file=sys.stderr,
        )
    return store


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    import contextlib
    import signal
    import threading

    from repro.io import load_prioritizing_instance
    from repro.service import (
        RepairService,
        ServiceConfig,
        load_batch_file,
        parse_fault_spec,
        write_metrics_json,
        write_results_jsonl,
    )

    prioritizing = None
    if args.problem:
        prioritizing = load_prioritizing_instance(args.problem)
    prioritizing, jobs = load_batch_file(args.jobs, prioritizing)

    runner = None
    if args.chaos:
        from repro.service import FaultyRunner

        runner = FaultyRunner(plan=parse_fault_spec(args.chaos))

    cancel = threading.Event()

    def _request_shutdown(signum, _frame):
        # First signal: drain gracefully (unstarted jobs become error
        # results, the store keeps every finished one).  A second
        # signal falls through to the default handler.
        cancel.set()
        signal.signal(signum, signal.SIG_DFL)
        print(
            f"received {signal.Signals(signum).name}: finishing in-flight "
            "jobs (signal again to force quit)",
            file=sys.stderr,
        )

    with contextlib.ExitStack() as stack:
        store = _open_store(args, stack, "serve-batch")
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous = signal.signal(signum, _request_shutdown)
            stack.callback(signal.signal, signum, previous)
        service = RepairService(
            ServiceConfig(
                workers=args.workers,
                executor=args.executor,
                cache_size=args.cache_size,
                default_timeout=args.timeout,
                default_node_budget=args.budget,
                max_pool_restarts=args.max_pool_restarts,
                breaker_threshold=args.breaker_threshold,
                breaker_reset_seconds=args.breaker_reset,
            ),
            runner=runner,
            cancel=cancel,
            store=store,
        )
        report = service.run_batch(jobs)
    counts = report.status_counts
    print(
        f"ran {len(report.results)} job(s) on {args.workers} "
        f"{args.executor} worker(s): "
        + ", ".join(
            f"{counts.get(status, 0)} {status}"
            for status in ("ok", "degraded", "timeout", "error")
        )
    )
    print(
        f"cache: {report.cache_hits} result(s) served from cache "
        f"(hit rate {report.cache_stats['hit_rate']:.2f} over the "
        f"service lifetime)"
    )
    counters = report.metrics.get("counters", {})
    print(
        "resilience: "
        f"{counters.get('store.hits', 0)} from the store, "
        f"{counters.get('store.appended', 0)} stored, "
        f"{counters.get('breaker.open', 0)} breaker open(s), "
        f"{counters.get('breaker.fast_fails', 0)} fast-fail(s), "
        f"{counters.get('pool.restarts', 0)} pool restart(s), "
        f"{counters.get('jobs.cancelled', 0)} cancelled"
    )
    if args.out:
        write_results_jsonl(report, args.out)
        print(f"wrote results to {args.out}")
    if args.metrics_out:
        write_metrics_json(report, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    print(service.metrics.render())
    if cancel.is_set():
        if args.store:
            print(
                "interrupted: finished results are in the store; re-run "
                f"with the same --store {args.store} to finish the "
                "remaining jobs",
                file=sys.stderr,
            )
        return 130
    return 0 if report.ok else 1


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import tempfile

    from repro.server import FleetConfig, FleetSupervisor
    from repro.service import parse_fleet_fault_spec

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-fleet-")
    plan = (
        parse_fleet_fault_spec(args.fleet_chaos) if args.fleet_chaos else None
    )
    supervisor = FleetSupervisor(
        FleetConfig(
            workers=args.workers,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            state_dir=state_dir,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            cache_size=args.cache_size,
            default_timeout=args.timeout,
            default_node_budget=args.budget,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_seconds=args.breaker_reset,
            worker_chaos=args.chaos,
            store=args.store,
            fault_plan=plan,
        )
    )

    def _announce(address):
        print(f"repro serve: listening on {address}", flush=True)
        print(
            f"repro serve: fleet of {args.workers} workers, "
            f"state in {state_dir}",
            flush=True,
        )

    stats = supervisor.run(on_ready=_announce)
    counters = stats["counters"]
    print(
        "repro serve: drained cleanly — "
        f"{counters.get('fleet.dispatched', 0)} dispatched, "
        f"{counters.get('fleet.redispatched', 0)} re-dispatched, "
        f"{counters.get('fleet.worker_deaths', 0)} worker death(s), "
        f"{counters.get('fleet.restarts', 0)} restart(s), "
        f"{counters.get('fleet.connections', 0)} connection(s) over "
        f"{stats['uptime']:.1f}s"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib

    from repro.server import RepairServer, ServerConfig
    from repro.service import RepairService, ServiceConfig, parse_fault_spec

    if args.workers > 1:
        return _cmd_serve_fleet(args)

    runner = None
    if args.chaos:
        from repro.service import FaultyRunner

        runner = FaultyRunner(plan=parse_fault_spec(args.chaos))

    with contextlib.ExitStack() as stack:
        store = _open_store(args, stack, "serve")
        service = RepairService(
            ServiceConfig(
                cache_size=args.cache_size,
                default_timeout=args.timeout,
                default_node_budget=args.budget,
                breaker_threshold=args.breaker_threshold,
                breaker_reset_seconds=args.breaker_reset,
            ),
            runner=runner,
            store=store,
        )
        server = RepairServer(
            service,
            ServerConfig(
                socket_path=args.socket,
                host=args.host,
                port=args.port,
                max_inflight=args.max_inflight,
                queue_limit=args.queue_limit,
            ),
        )

        def _announce(address):
            print(f"repro serve: listening on {address}", flush=True)

        stats = server.run(on_ready=_announce)
    counters = stats["counters"]
    print(
        "repro serve: drained cleanly — "
        f"{counters.get('server.accepted', 0)} accepted, "
        f"{counters.get('server.rejected_overload', 0)} rejected "
        f"(overload), "
        f"{counters.get('server.bad_requests', 0)} bad request(s), "
        f"{counters.get('server.connections', 0)} connection(s) over "
        f"{stats['uptime']:.1f}s"
    )
    print(service.metrics.render())
    return 0


# -- the TPC-H-scale workload pipeline ---------------------------------------


def _workload_store(args: argparse.Namespace):
    """A streaming store at ``--store`` (default: in-memory sqlite)."""
    from repro.engine.streaming import StreamingInstanceStore
    from repro.workloads.tpch import tpch_schema

    return StreamingInstanceStore(
        tpch_schema(), path=args.store or ":memory:"
    )


def _workload_ingest_dir(store, directory: Path) -> Dict[str, int]:
    """Ingest every ``<relation>.tbl`` under ``directory``; counts per
    relation, in sorted order."""
    from repro.workloads.tpch import TPCH_RELATIONS, converters_for

    counts: Dict[str, int] = {}
    for relation in sorted(TPCH_RELATIONS):
        path = directory / f"{relation}.tbl"
        if path.exists():
            counts[relation] = store.ingest_tbl(
                relation, path, converters_for(relation)
            )
    if not counts:
        raise UsageError(f"no .tbl tables found under {directory}")
    return counts


def _workload_manifest(directory: Path):
    from repro.workloads.injection import InjectionManifest

    path = directory / "manifest.json"
    if not path.exists():
        return None
    return InjectionManifest.from_json(path.read_text())


def _workload_cross_check(store, manifest) -> Dict[str, Any]:
    """The manifest conformance verdict: the loader's SQL-side conflict
    pairs must be exactly the manifest's injected pairs."""
    found = store.conflict_pairs()
    expected = manifest.conflict_pairs()
    return {
        "manifest_conflicts": len(manifest),
        "found_conflict_pairs": len(found),
        "pairs_match_manifest": found == expected,
        "missing_pairs": len(expected - found),
        "unexpected_pairs": len(found - expected),
    }


def _workload_certifier(semantics: str):
    from repro.core.checking import (
        check_completion_optimal,
        check_globally_optimal,
        check_pareto_optimal,
    )

    return {
        "global": check_globally_optimal,
        "pareto": check_pareto_optimal,
        "completion": check_completion_optimal,
    }[semantics]


def _workload_report(report: Dict[str, Any], args: argparse.Namespace) -> None:
    import json

    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if getattr(args, "json", None):
        Path(args.json).write_text(text + "\n")
        print(f"wrote {args.json}", file=sys.stderr)


def _cmd_workload_generate(args: argparse.Namespace) -> int:
    from repro.workloads.tpch import generate_tables, write_tbl

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables = generate_tables(args.sf, args.seed, args.relations or None)
    counts = {}
    for relation in sorted(tables):
        counts[relation] = write_tbl(
            tables[relation](), out / f"{relation}.tbl"
        )
    _workload_report(
        {
            "action": "generate",
            "scale_factor": args.sf,
            "seed": args.seed,
            "out": str(out),
            "rows": counts,
        },
        args,
    )
    return 0


def _cmd_workload_inject(args: argparse.Namespace) -> int:
    from repro.workloads.injection import (
        InjectedConflict,
        InjectionManifest,
        iter_injected_rows,
    )
    from repro.workloads.tpch import generate_tables, tpch_schema, write_tbl

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schema = tpch_schema()
    tables = generate_tables(args.sf, args.seed, args.relations or None)
    fds = {
        relation: next(
            fd for fd in sorted(schema.fds_for(relation).fds, key=str)
            if not fd.is_trivial()
        )
        for relation in tables
    }
    # Single pass per relation: the corrupted stream goes straight to
    # disk while its sink collects the manifest entries — the injector
    # never materializes a table.
    counts: Dict[str, int] = {}
    conflicts: List[InjectedConflict] = []
    for relation in sorted(tables):
        sink: List[InjectedConflict] = []
        counts[relation] = write_tbl(
            iter_injected_rows(
                relation,
                fds[relation],
                tables[relation](),
                args.rate,
                args.seed,
                sink,
            ),
            out / f"{relation}.tbl",
        )
        conflicts.extend(sink)
    manifest = InjectionManifest(
        rate=args.rate,
        seed=args.seed,
        relations=tuple(sorted(tables)),
        conflicts=conflicts,
    )
    (out / "manifest.json").write_text(manifest.to_json())
    _workload_report(
        {
            "action": "inject",
            "scale_factor": args.sf,
            "seed": args.seed,
            "rate": args.rate,
            "out": str(out),
            "rows": counts,
            "injected_conflicts": len(manifest),
            "conflicts_by_relation": manifest.counts_by_relation(),
        },
        args,
    )
    return 0


def _cmd_workload_check(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    manifest = _workload_manifest(directory)
    with _workload_store(args) as store:
        counts = _workload_ingest_dir(store, directory)
        report: Dict[str, Any] = {
            "action": "check",
            "dir": str(directory),
            "rows": counts,
            "facts": store.fact_count(),
            "consistent": store.is_consistent(),
            "violating_groups": store.conflict_summary(),
        }
        ok = True
        if manifest is None:
            report["manifest"] = None
            ok = report["consistent"]
        else:
            cross = _workload_cross_check(store, manifest)
            report["manifest"] = cross
            ok = cross["pairs_match_manifest"]
        report["ok"] = ok
    _workload_report(report, args)
    return 0 if ok else 1


def _cmd_workload_repair(args: argparse.Namespace) -> int:
    import random as random_module

    from repro.compute import compute_optimal_repair
    from repro.workloads.injection import tiered_prioritizing

    directory = Path(args.dir)
    manifest = _workload_manifest(directory)
    if manifest is None:
        raise UsageError(
            f"{directory} has no manifest.json — `repro workload repair` "
            "repairs injected workloads (run `repro workload inject`)"
        )
    with _workload_store(args) as store:
        _workload_ingest_dir(store, directory)
        kernel = store.conflict_kernel()
        prioritizing = tiered_prioritizing(store.schema, kernel, manifest)
        computed = compute_optimal_repair(
            prioritizing,
            semantics=args.semantics,
            rng=random_module.Random(args.seed),
        )
        certified = _workload_certifier(args.semantics)(
            prioritizing, computed.repair
        )
        expected = kernel.facts - manifest.injected_facts()
        report = {
            "action": "repair",
            "dir": str(directory),
            "facts": store.fact_count(),
            "kernel_facts": len(kernel.facts),
            "semantics": args.semantics,
            "repair_keeps": len(computed.repair),
            "status": computed.status,
            "method": computed.method,
            "certified_optimal": certified.is_optimal,
            "repair_is_all_trusted": computed.repair.facts == expected,
        }
        ok = (
            computed.status == "ok"
            and certified.is_optimal
            and report["repair_is_all_trusted"]
        )
        report["ok"] = ok
    _workload_report(report, args)
    return 0 if ok else 1


def _cmd_workload_e2e(args: argparse.Namespace) -> int:
    """Generate → inject → load → check → repair, no table files."""
    import random as random_module

    from repro.compute import compute_optimal_repair
    from repro.workloads.injection import (
        InjectedConflict,
        InjectionManifest,
        iter_injected_rows,
        tiered_prioritizing,
    )
    from repro.workloads.tpch import generate_tables, tpch_schema

    schema = tpch_schema()
    tables = generate_tables(args.sf, args.seed, args.relations or None)
    conflicts: List[InjectedConflict] = []
    with _workload_store(args) as store:
        counts: Dict[str, int] = {}
        for relation in sorted(tables):
            fd = next(
                fd for fd in sorted(schema.fds_for(relation).fds, key=str)
                if not fd.is_trivial()
            )
            sink: List[InjectedConflict] = []
            counts[relation] = store.ingest_rows(
                relation,
                iter_injected_rows(
                    relation, fd, tables[relation](), args.rate,
                    args.seed, sink,
                ),
            )
            conflicts.extend(sink)
        manifest = InjectionManifest(
            rate=args.rate,
            seed=args.seed,
            relations=tuple(sorted(tables)),
            conflicts=conflicts,
        )
        cross = _workload_cross_check(store, manifest)
        kernel = store.conflict_kernel()
        prioritizing = tiered_prioritizing(schema, kernel, manifest)
        computed = compute_optimal_repair(
            prioritizing,
            semantics=args.semantics,
            rng=random_module.Random(args.seed),
        )
        certified = _workload_certifier(args.semantics)(
            prioritizing, computed.repair
        )
        expected = kernel.facts - manifest.injected_facts()
        report = {
            "action": "e2e",
            "scale_factor": args.sf,
            "seed": args.seed,
            "rate": args.rate,
            "rows": counts,
            "facts": store.fact_count(),
            "consistent": store.is_consistent(),
            "manifest": cross,
            "kernel_facts": len(kernel.facts),
            "semantics": args.semantics,
            "repair_keeps": len(computed.repair),
            "certified_optimal": certified.is_optimal,
            "repair_is_all_trusted": computed.repair.facts == expected,
        }
        ok = (
            cross["pairs_match_manifest"]
            and computed.status == "ok"
            and certified.is_optimal
            and report["repair_is_all_trusted"]
        )
        report["ok"] = ok
    _workload_report(report, args)
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Preferred repairs and their complexity dichotomies "
        "(Fagin, Kimelfeld, Kolaitis; PODS 2015).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify = subparsers.add_parser(
        "classify", help="classify a schema under both dichotomies"
    )
    classify.add_argument(
        "schema",
        help='e.g. "R:3; 1 -> 2; 2 -> 3" or "R:2, S:2; R: 1 -> 2; S: {} -> 1"',
    )
    classify.set_defaults(handler=_cmd_classify)

    demo = subparsers.add_parser("demo", help="replay the running example")
    demo.set_defaults(handler=_cmd_demo)

    gadget = subparsers.add_parser(
        "gadget", help="run the Lemma 5.2 Hamiltonian-cycle gadget"
    )
    gadget.add_argument("--nodes", type=int, required=True)
    gadget.add_argument(
        "--edges", nargs="*", help='edges as "u,v" tokens', default=[]
    )
    gadget.set_defaults(handler=_cmd_gadget)

    hard = subparsers.add_parser(
        "hard-schemas", help="classify the paper's ten anchor schemas"
    )
    hard.set_defaults(handler=_cmd_hard_schemas)

    clean = subparsers.add_parser(
        "clean", help="clean a JSON problem file into a preferred repair"
    )
    clean.add_argument("problem", help="path to a repro.io problem JSON")
    clean.add_argument("--out", help="write the cleaned facts here")
    clean.add_argument("--seed", type=int, default=0)
    clean.set_defaults(handler=_cmd_clean)

    repair = subparsers.add_parser(
        "repair",
        help="construct an optimal repair for a JSON problem file",
        description="Construct a globally-/Pareto-/completion-optimal "
        "repair directly (repro.compute): exact greedy construction "
        "whenever the priority is classical, the budgeted anytime "
        "improvement climb on hard ccp inputs (best-so-far repair with "
        "status=degraded when the budget runs out).",
    )
    repair.add_argument("problem", help="path to a repro.io problem JSON")
    repair.add_argument(
        "--semantics",
        choices=["global", "pareto", "completion"],
        default="global",
    )
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument(
        "--budget",
        type=int,
        default=None,
        help="improvement-round budget for the anytime climb on hard "
        "ccp inputs (None = unbounded)",
    )
    repair.add_argument("--out", help="write the repair's facts here")
    repair.set_defaults(handler=_cmd_repair)

    explain = subparsers.add_parser(
        "explain", help="prose classification under both theorems"
    )
    explain.add_argument("schema", help="schema spec (see classify)")
    explain.set_defaults(handler=_cmd_explain)

    stats = subparsers.add_parser(
        "stats", help="profile a JSON problem's conflict structure"
    )
    stats.add_argument("problem", help="path to a repro.io problem JSON")
    stats.set_defaults(handler=_cmd_stats)

    serve = subparsers.add_parser(
        "serve-batch",
        help="run a batch of repair-check jobs through the service layer",
    )
    serve.add_argument(
        "jobs", help="job file: .json (may embed the problem) or CSV rows"
    )
    serve.add_argument(
        "--problem",
        help="repro.io problem JSON (overrides the job file's problem; "
        "required for CSV job files)",
    )
    serve.add_argument("--out", help="write per-job JSONL results here")
    serve.add_argument(
        "--metrics-out", help="write the metrics snapshot JSON here"
    )
    serve.add_argument("--workers", type=int, default=1)
    serve.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default="thread",
    )
    serve.add_argument("--cache-size", type=int, default=2048)
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-job wall-clock timeout in seconds",
    )
    serve.add_argument(
        "--budget",
        type=int,
        default=100000,
        help="default improvement-search node budget for coNP-hard jobs",
    )
    serve.add_argument(
        "--store",
        help="durable verdict store (WAL-mode sqlite, synced per "
        "result): finished results survive Ctrl-C and kill -9, and "
        "re-running with the same store recomputes only the rest",
    )
    serve.add_argument(
        "--chaos",
        metavar="SPEC",
        help="inject a deterministic fault schedule, e.g. "
        '"seed=3,transient=0.3,crash=0.1,slow=0.2,slow-ms=20,'
        'max-faults=2" (see repro.service.faults)',
    )
    serve.add_argument(
        "--max-pool-restarts",
        type=int,
        default=2,
        help="pool rebuilds allowed per batch after worker deaths",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive worker failures that open a problem's "
        "circuit breaker (0 disables)",
    )
    serve.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="seconds an open circuit waits before a half-open probe",
    )
    serve.set_defaults(handler=_cmd_serve_batch)

    daemon = subparsers.add_parser(
        "serve",
        help="run the persistent async repair-checking daemon",
        description="Keep one warm RepairService behind a socket "
        "speaking newline-delimited JSON (ops: check, repair, count, "
        "classify, ping, stats, drain; see repro.server.protocol).  "
        "Drains gracefully "
        "on SIGINT/SIGTERM: in-flight jobs finish and reach the store, "
        "and a final metrics snapshot is printed.",
    )
    transport = daemon.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--socket", help="listen on this unix-domain socket path"
    )
    transport.add_argument(
        "--port",
        type=int,
        help="listen on this TCP port (0 picks an ephemeral port, "
        "announced on stdout)",
    )
    daemon.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (with --port; default 127.0.0.1)",
    )
    daemon.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="repair checks executing concurrently (worker threads)",
    )
    daemon.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admitted checks allowed to wait for a worker; beyond "
        "max-inflight + queue-limit, checks are rejected as overloaded",
    )
    daemon.add_argument("--cache-size", type=int, default=2048)
    daemon.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-check wall-clock timeout in seconds "
        "(requests may override per check)",
    )
    daemon.add_argument(
        "--budget",
        type=int,
        default=100000,
        help="default improvement-search node budget for coNP-hard "
        "checks (requests may override per check)",
    )
    daemon.add_argument(
        "--store",
        help="durable verdict store (WAL-mode sqlite, synced per "
        "result) under the LRU cache: cache hits survive daemon "
        "restarts and are shared by every process opening the same "
        "file (a torn store is healed on open)",
    )
    daemon.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run a supervised fleet of N daemon workers behind this "
        "socket: problems are consistent-hashed across workers, crashed "
        "workers restart under seeded backoff, and in-flight requests "
        "fail over at most once (1 = a single plain daemon)",
    )
    daemon.add_argument(
        "--state-dir",
        help="fleet scratch directory for worker sockets and logs, the "
        "shared store, and the fleet-state snapshot (default: a "
        "temporary directory; implies --workers > 1 layouts)",
    )
    daemon.add_argument(
        "--fleet-chaos",
        metavar="SPEC",
        help="inject deterministic fleet-level faults, e.g. "
        '"kill=1@5,wedge=2@3x4" (SIGKILL worker 1 at its 5th dispatch; '
        "wedge worker 2's heartbeat for 4 beats starting at beat 3); "
        "used by the fleet chaos drills",
    )
    daemon.add_argument(
        "--chaos",
        metavar="SPEC",
        help="inject a deterministic fault schedule (see "
        "repro.service.faults); used by the resilience drills",
    )
    daemon.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive worker failures that open a problem's "
        "circuit breaker (0 disables)",
    )
    daemon.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="seconds an open circuit waits before a half-open probe",
    )
    daemon.set_defaults(handler=_cmd_serve)

    workload = subparsers.add_parser(
        "workload",
        help="generate, corrupt, load, and repair TPC-H-scale workloads",
        description="The TPC-H-scale workload pipeline: a synthetic "
        "benchmark-shaped generator (repro.workloads.tpch), a seeded "
        "FD-violation injector with a full conflict manifest "
        "(repro.workloads.injection), and the sqlite-backed streaming "
        "loader (repro.engine.streaming) that checks and repairs the "
        "result in bounded memory.",
    )
    workload_actions = workload.add_subparsers(
        dest="workload_action", required=True
    )

    def _workload_common(sub, needs_rate: bool) -> None:
        sub.add_argument(
            "--sf",
            type=float,
            default=0.01,
            help="scale factor (1.0 ~ 10^6 lineitem rows; default 0.01)",
        )
        sub.add_argument("--seed", type=int, default=0)
        if needs_rate:
            sub.add_argument(
                "--rate",
                type=float,
                default=0.01,
                help="per-row injection probability in [0, 1)",
            )
        sub.add_argument(
            "--relations",
            nargs="*",
            default=None,
            help="restrict to these relations (default: all eight)",
        )

    w_generate = workload_actions.add_parser(
        "generate", help="write clean .tbl tables"
    )
    _workload_common(w_generate, needs_rate=False)
    w_generate.add_argument("--out", required=True, help="output directory")
    w_generate.add_argument("--json", help="also write the report JSON here")
    w_generate.set_defaults(handler=_cmd_workload_generate)

    w_inject = workload_actions.add_parser(
        "inject",
        help="write corrupted .tbl tables plus the conflict manifest",
    )
    _workload_common(w_inject, needs_rate=True)
    w_inject.add_argument("--out", required=True, help="output directory")
    w_inject.add_argument("--json", help="also write the report JSON here")
    w_inject.set_defaults(handler=_cmd_workload_inject)

    w_check = workload_actions.add_parser(
        "check",
        help="stream a written workload through the loader and "
        "cross-check its conflicts against the manifest",
    )
    w_check.add_argument("dir", help="directory holding .tbl tables")
    w_check.add_argument(
        "--store",
        help="back the streaming loader with this sqlite file "
        "(default: in-memory)",
    )
    w_check.add_argument("--json", help="also write the report JSON here")
    w_check.set_defaults(handler=_cmd_workload_check)

    w_repair = workload_actions.add_parser(
        "repair",
        help="compute and certify an optimal repair of the conflict "
        "kernel under the manifest's two-tier priority",
    )
    w_repair.add_argument("dir", help="directory holding .tbl + manifest")
    w_repair.add_argument(
        "--semantics",
        choices=["global", "pareto", "completion"],
        default="global",
    )
    w_repair.add_argument("--seed", type=int, default=0)
    w_repair.add_argument(
        "--store", help="sqlite file for the loader (default: in-memory)"
    )
    w_repair.add_argument("--json", help="also write the report JSON here")
    w_repair.set_defaults(handler=_cmd_workload_repair)

    w_e2e = workload_actions.add_parser(
        "e2e",
        help="generate, inject, load, check, and repair in one pass "
        "without table files",
    )
    _workload_common(w_e2e, needs_rate=True)
    w_e2e.add_argument(
        "--semantics",
        choices=["global", "pareto", "completion"],
        default="global",
    )
    w_e2e.add_argument(
        "--store", help="sqlite file for the loader (default: in-memory)"
    )
    w_e2e.add_argument("--json", help="also write the report JSON here")
    w_e2e.set_defaults(handler=_cmd_workload_e2e)

    lint = subparsers.add_parser(
        "lint",
        help="run the project-invariant AST linter (rules RL001-RL008)",
        add_help=False,
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments passed through to repro.devtools.lint "
        "(use 'repro lint --help' to list them)",
    )
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Forwarded before argparse sees the flags: argparse.REMAINDER only
    # captures from the first positional on, which would reject leading
    # options like `repro lint --format json`.
    if arguments and arguments[0] == "lint":
        from repro.devtools.lint import main as lint_main

        return lint_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
