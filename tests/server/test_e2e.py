"""End-to-end daemon drills: real ``repro serve`` subprocesses.

The daemon is booted exactly as an operator would boot it (``python -m
repro.cli serve``), its announce line is parsed for the ephemeral port,
and real blocking :class:`RepairClient` connections drive it — many
concurrently, through overload, and through a SIGTERM arriving with
work in flight.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import Fact, PriorityRelation
from repro.core.priority import PrioritizingInstance
from repro.io import prioritizing_from_dict, prioritizing_to_dict
from repro.server import RepairClient
from repro.service import RepairJob, RepairService, SqliteStore
from repro.service.batch_io import candidate_from_spec

from tests.helpers import single_fd_schema, subprocess_env, verdict_of

pytestmark = pytest.mark.slow

ANNOUNCE = re.compile(r"repro serve: listening on \('127\.0\.0\.1', (\d+)\)")

N_CLIENTS = 8
CHECKS_PER_CLIENT = 4


def boot_daemon(*extra: str) -> subprocess.Popen:
    """Start ``repro serve`` on an ephemeral port; wait for the announce."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            *extra,
        ],
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_port(process: subprocess.Popen) -> int:
    line = process.stdout.readline()
    match = ANNOUNCE.match(line)
    assert match, f"unexpected announce line: {line!r}"
    return int(match.group(1))


def shut_down(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.communicate()


def fact_spec(key, value):
    """An order-independent wire candidate entry (not an index)."""
    return {"relation": "R", "values": [key, value]}


def serve_problem():
    """A single-FD problem with two conflict blocks plus a loner fact.

    Every candidate in :func:`candidate_specs` has exactly one possible
    witness under this shape, so result ``reason`` strings are
    reproducible across processes regardless of hash seed — the
    byte-identical comparison below needs that.
    """
    schema = single_fd_schema()
    facts = [
        Fact("R", (0, "a")),
        Fact("R", (0, "b")),
        Fact("R", (1, "a")),
        Fact("R", (1, "b")),
        Fact("R", (2, "a")),
    ]
    edges = [
        (Fact("R", (0, "a")), Fact("R", (0, "b"))),
        (Fact("R", (1, "a")), Fact("R", (1, "b"))),
    ]
    prioritizing = PrioritizingInstance(
        schema, schema.instance(facts), PriorityRelation(edges)
    )
    return prioritizing, prioritizing_to_dict(prioritizing)


#: The globally optimal repair of :func:`serve_problem`.
OPTIMAL_SPEC = [fact_spec(0, "a"), fact_spec(1, "a"), fact_spec(2, "a")]


def candidate_specs():
    """Candidates with unique witnesses: a repair, an improvable repair,
    an inconsistent set, and a non-maximal set."""
    return [
        OPTIMAL_SPEC,
        # Only block 0 took the dominated fact: one improving swap.
        [fact_spec(0, "b"), fact_spec(1, "a"), fact_spec(2, "a")],
        # Exactly one conflicting pair.
        [fact_spec(0, "a"), fact_spec(0, "b"), fact_spec(2, "a")],
        # Exactly one addable fact: the loner R(2, 'a').
        [fact_spec(0, "a"), fact_spec(1, "a")],
    ]


def expected_verdicts():
    """What ``run_batch`` says about the same jobs, as verdict slices.

    The problem round-trips through its wire document exactly as the
    daemon sees it, so even witness tie-breaks (which depend on fact
    order) must come out byte-identical.
    """
    _, document = serve_problem()
    prioritizing = prioritizing_from_dict(document)
    service = RepairService()
    jobs = [
        RepairJob(
            job_id=f"spec{index}",
            prioritizing=prioritizing,
            candidate=candidate_from_spec(prioritizing, spec),
            semantics="global",
        )
        for index, spec in enumerate(candidate_specs())
    ]
    report = service.run_batch(jobs)
    return {
        result.job_id: verdict_of(result.to_dict())
        for result in report.results
    }


def test_concurrent_clients_agree_with_run_batch():
    process = boot_daemon()
    try:
        port = wait_for_port(process)
        _, problem = serve_problem()
        specs = candidate_specs()

        def client_session(client_index):
            verdicts = {}
            with RepairClient(port=port, timeout=60) as client:
                assert client.ping()["pong"] is True
                for check_index in range(CHECKS_PER_CLIENT):
                    spec_index = (
                        client_index + check_index
                    ) % len(specs)
                    response = client.check(
                        problem,
                        specs[spec_index],
                        request_id=f"c{client_index}-{check_index}",
                        job_id=f"spec{spec_index}",
                    )
                    assert response["ok"], response
                    verdicts[f"spec{spec_index}"] = verdict_of(
                        response["result"]
                    )
            return verdicts

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            sessions = list(
                pool.map(client_session, range(N_CLIENTS))
            )

        expected = expected_verdicts()
        for verdicts in sessions:
            for job_id, verdict in verdicts.items():
                assert verdict == expected[job_id]

        with RepairClient(port=port, timeout=60) as client:
            stats = client.stats()["stats"]
            # 8 clients x 4 checks over 4 distinct questions: the warm
            # cache answered everything after the first four.
            assert stats["counters"]["server.connections"] >= N_CLIENTS
            assert stats["counters"]["cache.misses"] == len(specs)
            assert stats["counters"]["cache.hits"] == (
                N_CLIENTS * CHECKS_PER_CLIENT - len(specs)
            )
            response = client.drain()
            assert response["draining"] is True
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "drained cleanly" in stdout
    finally:
        shut_down(process)


def test_sigterm_mid_load_drains_and_exits_zero(tmp_path):
    store_path = tmp_path / "serve.sqlite"
    process = boot_daemon(
        "--chaos",
        "seed=1,slow=1.0,slow-ms=300,max-faults=1",
        "--store",
        str(store_path),
    )
    try:
        port = wait_for_port(process)
        _, problem = serve_problem()
        with RepairClient(port=port, timeout=60) as client:
            client.send(
                {
                    "op": "check",
                    "id": "inflight",
                    "problem": problem,
                    "candidate": OPTIMAL_SPEC,
                }
            )
            # Let the slow job get admitted, then ask for shutdown.
            time.sleep(0.15)
            process.send_signal(signal.SIGTERM)
            # The drain finishes the in-flight job: its response still
            # arrives on this connection before the daemon exits.
            response = client.recv()
            assert response["id"] == "inflight"
            assert response["ok"], response
            assert response["result"]["is_optimal"] is True
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "drained cleanly" in stdout
        assert "1 accepted" in stdout
        # The in-flight job's verdict reached the store on the way out.
        with SqliteStore(store_path) as store:
            assert len(store) == 1
            record = store.get(response["result"]["fingerprint"])
        assert record["job_id"] == "inflight"
        assert record["is_optimal"] is True
    finally:
        shut_down(process)


def test_overload_is_an_explicit_answer_not_a_hang():
    process = boot_daemon(
        "--chaos",
        "seed=1,slow=1.0,slow-ms=500,max-faults=1",
        "--max-inflight",
        "1",
        "--queue-limit",
        "0",
    )
    try:
        port = wait_for_port(process)
        _, problem = serve_problem()
        pipelined = 4
        with RepairClient(port=port, timeout=30) as client:
            # One slow worker, zero queue: pipelining several distinct
            # checks guarantees rejections.  Every request gets an
            # answer within the socket timeout — nothing ever hangs.
            for index in range(pipelined):
                client.send(
                    {
                        "op": "check",
                        "id": f"j{index}",
                        "problem": problem,
                        "candidate": OPTIMAL_SPEC,
                        "budget": 10_000 + index,
                    }
                )
            responses = [client.recv() for _ in range(pipelined)]
            accepted = [r for r in responses if r["ok"]]
            rejected = [r for r in responses if not r["ok"]]
            assert len(accepted) + len(rejected) == pipelined
            assert accepted, responses
            assert rejected, "capacity 1 never rejected 4 pipelined checks"
            for response in rejected:
                assert response["error"]["code"] == "overloaded"
                assert "retry" in response["error"]["message"]
            stats = client.stats()["stats"]
            assert (
                stats["counters"]["server.rejected_overload"]
                == len(rejected)
            )
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert f"{len(rejected)} rejected (overload)" in stdout
    finally:
        shut_down(process)


def test_readme_quickstart_client_works_as_documented():
    """The five-line client snippet from the README, verbatim shape."""
    process = boot_daemon()
    try:
        port = wait_for_port(process)
        _, problem = serve_problem()
        with RepairClient(port=port) as client:
            response = client.check(problem, candidate=OPTIMAL_SPEC)
            assert response["ok"]
            assert response["result"]["is_optimal"] is True
    finally:
        shut_down(process)
