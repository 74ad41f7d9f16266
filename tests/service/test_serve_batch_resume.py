"""Kill-and-resume drills for ``repro serve-batch --store``.

Real subprocesses, real signals: a serve-batch run (slowed by the chaos
harness so the parent can interrupt mid-batch) is stopped with SIGINT
(graceful drain) or SIGKILL (hard death, no cleanup), and a re-run over
the same store must serve exactly the stored results, recompute only the
rest, and produce the same final JSONL as a never-interrupted run.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import Fact, PriorityRelation, Schema
from repro.core.priority import PrioritizingInstance
from repro.io import prioritizing_to_dict
from repro.service import SqliteStore

from tests.helpers import subprocess_env, tear_last_commit, verdict_projection

#: Every first attempt sleeps 60 ms: slow enough for the parent to
#: interrupt mid-batch, fast enough for CI.
CHAOS = "seed=1,slow=1.0,slow-ms=60,max-faults=1"

N_JOBS = 24


def write_jobs_file(path: Path) -> None:
    schema = Schema.single_relation(["1 -> 2"], arity=2)
    f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    prioritizing = PrioritizingInstance(
        schema, schema.instance([f, g]), PriorityRelation([(f, g)])
    )
    jobs = [
        {
            "id": f"j{index:02d}",
            # Alternate candidates; distinct budgets keep every
            # fingerprint distinct so each job really executes.
            "candidate": [index % 2],
            "budget": 10_000 + index,
        }
        for index in range(N_JOBS)
    ]
    path.write_text(
        json.dumps(
            {"problem": prioritizing_to_dict(prioritizing), "jobs": jobs}
        )
    )


def serve_batch(jobs_file: Path, out: Path, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve-batch",
            str(jobs_file),
            "--executor",
            "serial",
            "--chaos",
            CHAOS,
            "--out",
            str(out),
            *extra,
        ],
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def stored_rows(path: Path) -> int:
    """Rows a fresh opener can read (a short-lived store, closed again)."""
    with SqliteStore(path) as store:
        return len(store)


def wait_for_rows(path: Path, minimum: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and stored_rows(path) >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"store never reached {minimum} rows within {timeout}s"
    )


@pytest.mark.slow
@pytest.mark.parametrize("kill_signal", [signal.SIGINT, signal.SIGKILL])
def test_kill_and_resume_recomputes_only_unstored(tmp_path, kill_signal):
    jobs_file = tmp_path / "jobs.json"
    write_jobs_file(jobs_file)
    db = tmp_path / "run.sqlite"

    # --- the run that dies mid-batch -----------------------------------
    interrupted = serve_batch(
        jobs_file, tmp_path / "interrupted.jsonl", "--store", str(db)
    )
    try:
        wait_for_rows(db, minimum=3)
        interrupted.send_signal(kill_signal)
        stdout, stderr = interrupted.communicate(timeout=60)
    finally:
        if interrupted.poll() is None:
            interrupted.kill()
            interrupted.communicate()

    if kill_signal == signal.SIGINT:
        assert interrupted.returncode == 130
        assert "re-run with the same --store" in stderr
        stored = stored_rows(db)
    else:
        assert interrupted.returncode == -signal.SIGKILL
        # Count what the kill left, on a copy (opening the original
        # would checkpoint its WAL away)...
        intact = tmp_path / "intact"
        intact.mkdir()
        for name in (db.name, f"{db.name}-wal"):
            shutil.copy(tmp_path / name, intact / name)
        before_tear = stored_rows(intact / db.name)
        assert 3 <= before_tear < N_JOBS
        # ...then tear the last committed frame, the worst case a hard
        # kill mid-write leaves: WAL recovery must drop exactly that row.
        tear_last_commit(Path(f"{db}-wal"))
        stored = stored_rows(db)
        assert stored == before_tear - 1
    assert 2 <= stored < N_JOBS  # died mid-batch, the store survived

    # --- resume: the same command over the same store -------------------
    resumed_out = tmp_path / "resumed.jsonl"
    metrics_out = tmp_path / "metrics.json"
    resume = serve_batch(
        jobs_file, resumed_out, "--store", str(db),
        "--metrics-out", str(metrics_out),
    )
    _, stderr = resume.communicate(timeout=120)
    assert resume.returncode == 0, stderr

    counters = json.loads(metrics_out.read_text())["counters"]
    assert counters["store.hits"] == stored
    # Only the unstored jobs were recomputed...
    assert counters["store.misses"] == N_JOBS - stored
    # ...and they were stored in turn: the store now covers the batch.
    assert counters["store.appended"] == N_JOBS - stored
    assert stored_rows(db) == N_JOBS

    # --- equality with a never-interrupted run --------------------------
    reference_out = tmp_path / "reference.jsonl"
    reference = serve_batch(jobs_file, reference_out)
    _, ref_stderr = reference.communicate(timeout=120)
    assert reference.returncode == 0, ref_stderr
    assert verdict_projection(resumed_out) == verdict_projection(
        reference_out
    )
