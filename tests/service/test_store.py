"""The durable verdict store: durability, healing, and service wiring.

:class:`~repro.service.store.SqliteStore` is the one crash-surviving
record of results, under the LRU cache.  These tests cover its contract
directly (round trips, refusal of non-deterministic statuses,
checksum-guarded reads, synced commits, a torn or half-written WAL
tail, heal-on-open for a torn file, version-keyed rows) and its integration with
:class:`~repro.service.RepairService` (a fresh service instance over the
same store answers warm, a batch over a partial store recomputes only
the rest, the LRU is re-warmed from the store, a failing write never
costs a verdict, and metrics count the tier's traffic).
"""

from __future__ import annotations

import json
import shutil
import sqlite3

import pytest

import repro.service.store as store_module
from repro.exceptions import UsageError
from repro.service import (
    STORED_STATUSES,
    RepairJob,
    RepairService,
    ServiceConfig,
    SqliteStore,
)
from repro.service.policy import Outcome, execute_check

from tests.helpers import simple_problem_bundle, single_fd_schema, tear_last_commit


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "results.sqlite"


class TestStoreContract:
    def test_round_trip_returns_equal_document(self, store_path):
        with SqliteStore(store_path) as store:
            document = {"status": "ok", "is_optimal": True, "reason": "x"}
            assert store.put("fp-1", document) is True
            assert store.get("fp-1") == document
            assert len(store) == 1

    def test_survives_reopen(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok", "is_optimal": False})
        with SqliteStore(store_path) as reopened:
            assert reopened.get("fp-1")["is_optimal"] is False
            assert reopened.healed is False

    def test_miss_returns_none_and_counts(self, store_path):
        with SqliteStore(store_path) as store:
            assert store.get("absent") is None
            assert store.stats()["misses"] == 1
            assert store.stats()["hits"] == 0

    @pytest.mark.parametrize("status", ["timeout", "error", "failed", "crashed", None])
    def test_refuses_non_deterministic_statuses(self, store_path, status):
        with SqliteStore(store_path) as store:
            assert store.put("fp-1", {"status": status}) is False
            assert len(store) == 0

    def test_stored_statuses_match_cacheable_set(self):
        assert STORED_STATUSES == frozenset({"ok", "degraded"})

    def test_checksum_mismatch_drops_row(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok", "is_optimal": True})
        # Tamper with the payload behind the store's back.
        connection = sqlite3.connect(store_path)
        connection.execute(
            "UPDATE results SET payload = ?",
            (json.dumps({"status": "ok", "is_optimal": False}),),
        )
        connection.commit()
        connection.close()
        with SqliteStore(store_path) as store:
            assert store.get("fp-1") is None
            assert store.stats()["dropped"] == 1
            assert len(store) == 0  # the corrupt row is gone for good

    def test_tampered_status_is_not_served(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok"})
        connection = sqlite3.connect(store_path)
        bad = json.dumps({"status": "timeout"}, sort_keys=True)
        import hashlib

        connection.execute(
            "UPDATE results SET payload = ?, checksum = ?",
            (bad, hashlib.sha256(bad.encode()).hexdigest()),
        )
        connection.commit()
        connection.close()
        with SqliteStore(store_path) as store:
            assert store.get("fp-1") is None
            assert store.stats()["dropped"] == 1

    def test_torn_file_healed_on_open(self, store_path):
        store_path.write_bytes(b"this is not a sqlite database\x00\xff" * 64)
        with SqliteStore(store_path) as store:
            assert store.healed is True
            assert store.stats()["healed"] is True
            # The damaged bytes are quarantined, not destroyed.
            quarantine = store_path.with_name(store_path.name + ".corrupt")
            assert quarantine.exists()
            assert b"not a sqlite database" in quarantine.read_bytes()
            # And the fresh store works immediately.
            assert store.put("fp-1", {"status": "ok"}) is True
            assert store.get("fp-1") == {"status": "ok"}

    def test_healthy_open_does_not_heal(self, store_path):
        with SqliteStore(store_path) as store:
            assert store.healed is False

    def test_closed_store_raises(self, store_path):
        store = SqliteStore(store_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(UsageError):
            store.get("fp-1")
        with pytest.raises(UsageError):
            store.put("fp-1", {"status": "ok"})
        assert len(store) == 0

    def test_put_overwrites(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok", "attempts": 1})
            store.put("fp-1", {"status": "ok", "attempts": 2})
            assert store.get("fp-1")["attempts"] == 2
            assert len(store) == 1

    def test_commits_are_synced(self, store_path):
        # synchronous=FULL: the WAL is fsync-ed at every commit, so a
        # put that returned True survives power loss, not just a kill.
        with SqliteStore(store_path) as store:
            (level,) = store._connection.execute(
                "PRAGMA synchronous"
            ).fetchone()
            assert level == 2  # FULL

    def test_torn_wal_tail_loses_only_the_torn_row(
        self, store_path, tmp_path
    ):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok"})
            store.put("fp-2", {"status": "degraded"})
            # What a hard kill leaves on disk: the database and its
            # un-checkpointed WAL, copied while the writer is still open.
            crashed = tmp_path / "crashed"
            crashed.mkdir()
            for name in (store_path.name, f"{store_path.name}-wal"):
                shutil.copy(tmp_path / name, crashed / name)
        tear_last_commit(crashed / f"{store_path.name}-wal")
        with SqliteStore(crashed / store_path.name) as recovered:
            assert recovered.healed is False
            assert recovered.get("fp-1") == {"status": "ok"}
            assert recovered.get("fp-2") is None  # the torn commit
            # ...and the recovered store keeps accepting writes.
            assert recovered.put("fp-2", {"status": "degraded"}) is True
            assert len(recovered) == 2


    def test_round_trip_both_stored_statuses(self, store_path):
        with SqliteStore(store_path) as store:
            assert store.put("fp-1", {"status": "ok", "is_optimal": True})
            assert store.put("fp-2", {"status": "degraded", "is_optimal": None})
            assert store.stats()["puts"] == 2
        with SqliteStore(store_path) as store:
            assert store.get("fp-1")["status"] == "ok"
            assert store.get("fp-2")["status"] == "degraded"
            assert store.stats()["dropped"] == 0

    def test_reopen_adds_rows(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok"})
        with SqliteStore(store_path) as store:
            assert store.put("fp-2", {"status": "ok"}) is True
        with SqliteStore(store_path) as store:
            assert store.get("fp-1") == {"status": "ok"}
            assert store.get("fp-2") == {"status": "ok"}
            assert len(store) == 2

    def test_put_after_context_exit_raises(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok"})
        with pytest.raises(UsageError):
            store.put("fp-2", {"status": "ok"})
        with SqliteStore(store_path) as reopened:
            # The write made before the close is kept; nothing after it.
            assert reopened.get("fp-1") == {"status": "ok"}
            assert len(reopened) == 1

    def test_latest_put_wins_across_reopen(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok"})
            store.put("fp-1", {"status": "degraded"})
        with SqliteStore(store_path) as store:
            assert store.get("fp-1")["status"] == "degraded"
            assert len(store) == 1

    def test_corrupt_row_dropped_others_served(self, store_path):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok", "is_optimal": True})
            store.put("fp-2", {"status": "ok", "is_optimal": True})
        # Flip one row's payload so its checksum no longer matches.
        connection = sqlite3.connect(store_path)
        connection.execute(
            "UPDATE results SET payload = ? WHERE fingerprint LIKE ?",
            (json.dumps({"status": "ok", "is_optimal": False}), "%:fp-2"),
        )
        connection.commit()
        connection.close()
        with SqliteStore(store_path) as store:
            assert store.get("fp-1") == {"status": "ok", "is_optimal": True}
            assert store.get("fp-2") is None
            assert store.stats()["dropped"] == 1
            assert len(store) == 1

    def test_wrong_shape_rows_are_not_served(self, store_path):
        import hashlib

        bad_payloads = {
            "fp-list": json.dumps(["not", "a", "dict"]),
            "fp-json": "{not json",
            "fp-error": json.dumps({"status": "error"}),
        }
        with SqliteStore(store_path) as store:
            for key in bad_payloads:
                store.put(key, {"status": "ok"})
        # Valid checksums over payloads the store must still refuse.
        connection = sqlite3.connect(store_path)
        for key, payload in bad_payloads.items():
            connection.execute(
                "UPDATE results SET payload = ?, checksum = ? "
                "WHERE fingerprint LIKE ?",
                (payload, hashlib.sha256(payload.encode()).hexdigest(),
                 f"%:{key}"),
            )
        connection.commit()
        connection.close()
        with SqliteStore(store_path) as store:
            assert [store.get(key) for key in bad_payloads] == [None] * 3
            assert store.stats()["dropped"] == 3
            assert len(store) == 0

    def test_half_written_wal_frame_keeps_committed_rows(
        self, store_path, tmp_path
    ):
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok"})
            store.put("fp-2", {"status": "degraded"})
            crashed = tmp_path / "crashed"
            crashed.mkdir()
            for name in (store_path.name, f"{store_path.name}-wal"):
                shutil.copy(tmp_path / name, crashed / name)
        # A hard kill in the middle of writing the next frame.
        with open(crashed / f"{store_path.name}-wal", "ab") as handle:
            handle.write(b"\x00\x00\x00\x02torn frame" * 8)
        with SqliteStore(crashed / store_path.name) as recovered:
            assert recovered.healed is False
            assert recovered.get("fp-1") == {"status": "ok"}
            assert recovered.get("fp-2") == {"status": "degraded"}
            assert recovered.put("fp-3", {"status": "ok"}) is True
            assert len(recovered) == 3

class TestVerdictVersion:
    """Rows written by code that decided verdicts differently are never
    served: the version is part of every row key."""

    def test_row_from_another_version_is_a_miss(
        self, store_path, monkeypatch
    ):
        current = store_module.VERDICT_VERSION
        monkeypatch.setattr(store_module, "VERDICT_VERSION", current + 1)
        with SqliteStore(store_path) as store:
            store.put("fp-1", {"status": "ok", "is_optimal": False})
        monkeypatch.setattr(store_module, "VERDICT_VERSION", current)
        with SqliteStore(store_path) as store:
            assert store.get("fp-1") is None
            assert store.stats()["misses"] == 1

    def test_service_recomputes_a_row_from_another_version(
        self, store_path, monkeypatch
    ):
        prioritizing, optimal, _ = simple_problem_bundle(single_fd_schema())
        job = RepairJob("j1", prioritizing, optimal)
        current = store_module.VERDICT_VERSION
        monkeypatch.setattr(store_module, "VERDICT_VERSION", current - 1)
        with SqliteStore(store_path) as store:
            RepairService(ServiceConfig(), store=store).run_job(job)
        monkeypatch.setattr(store_module, "VERDICT_VERSION", current)
        calls = []
        with SqliteStore(store_path) as store:
            service = RepairService(
                ServiceConfig(), store=store, runner=counting_runner(calls)
            )
            result = service.run_job(job)
            counters = service.metrics.snapshot()["counters"]
        assert calls == ["j1"]
        assert result.cache_hit is False
        assert result.is_optimal is True
        assert counters["store.hits"] == 0
        assert counters["store.appended"] == 1


def counting_runner(calls):
    """The default check policy, recording each job it really runs."""

    def runner(job, node_budget, timeout):
        calls.append(job.job_id)
        return execute_check(
            job.prioritizing, job.candidate, job.semantics, job.method,
            node_budget, timeout,
        )

    return runner


class TestResumeFromStore:
    """A batch over the store of an earlier (interrupted) run serves what
    that run finished and recomputes only the rest."""

    def _jobs(self, simple_problem):
        prioritizing, optimal, non_optimal = simple_problem
        return [
            RepairJob("j1", prioritizing, optimal),
            RepairJob("j2", prioritizing, non_optimal),
        ]

    def _serial(self, store, **kwargs):
        return RepairService(
            ServiceConfig(executor="serial"), store=store, **kwargs
        )

    def test_stored_jobs_skip_recomputation(self, simple_problem, store_path):
        jobs = self._jobs(simple_problem)
        with SqliteStore(store_path) as store:
            first = self._serial(store)
            baseline = first.run_batch(jobs)
            assert first.metrics.counter("store.appended").value == 2
        calls = []
        with SqliteStore(store_path) as store:
            resumed = self._serial(store, runner=counting_runner(calls))
            report = resumed.run_batch(jobs)
        assert calls == []  # nothing recomputed
        assert resumed.metrics.counter("store.hits").value == 2
        assert [r.verdict() for r in report.results] == [
            r.verdict() for r in baseline.results
        ]
        assert all(r.cache_hit for r in report.results)

    def test_partial_store_recomputes_the_rest(
        self, simple_problem, store_path
    ):
        jobs = self._jobs(simple_problem)
        with SqliteStore(store_path) as store:
            self._serial(store).run_batch(jobs[:1])
        calls = []
        with SqliteStore(store_path) as store:
            resumed = self._serial(store, runner=counting_runner(calls))
            report = resumed.run_batch(jobs)
            assert len(store) == 2  # the recomputed job was stored too
        assert calls == ["j2"]
        counters = resumed.metrics.snapshot()["counters"]
        assert counters["store.hits"] == 1
        assert counters["store.misses"] == 1
        assert counters["store.appended"] == 1
        assert [r.status for r in report.results] == ["ok", "ok"]
        assert report.results[0].cache_hit
        assert not report.results[1].cache_hit

    def test_store_hit_warms_cache_for_in_batch_duplicates(
        self, simple_problem, store_path
    ):
        prioritizing, optimal, _ = simple_problem
        job = RepairJob("j1", prioritizing, optimal)
        with SqliteStore(store_path) as store:
            self._serial(store).run_batch([job])
        with SqliteStore(store_path) as store:
            resumed = self._serial(store)
            report = resumed.run_batch(
                [job, RepairJob("j1-dup", prioritizing, optimal)]
            )
        assert all(r.cache_hit for r in report.results)
        assert resumed.metrics.counter("store.hits").value == 1
        assert resumed.metrics.counter("cache.hits").value == 1

    def test_put_sqlite_error_absorbed(self, simple_problem, store_path):
        prioritizing, optimal, _ = simple_problem
        with SqliteStore(store_path) as store:
            # Every INSERT now fails inside sqlite (a full disk or a
            # read-only file looks the same to the store).
            store._connection.set_authorizer(
                lambda action, *_args: sqlite3.SQLITE_DENY
                if action == sqlite3.SQLITE_INSERT
                else sqlite3.SQLITE_OK
            )
            service = self._serial(store)
            result = service.check(prioritizing, optimal)
            assert result.status == "ok"
            assert result.is_optimal is True
            assert store.stats()["errors"] == 1
            assert service.metrics.counter("store.appended").value == 0


    @pytest.mark.parametrize("status", ["timeout", "error"])
    def test_non_deterministic_results_not_stored(
        self, simple_problem, store_path, status
    ):
        assert status not in STORED_STATUSES
        prioritizing, optimal, _ = simple_problem

        def runner(job, node_budget, timeout):
            return Outcome(
                status=status,
                is_optimal=None,
                semantics=job.semantics,
                method="none",
                reason=f"forced {status}",
            )

        with SqliteStore(store_path) as store:
            service = self._serial(store, runner=runner)
            report = service.run_batch([RepairJob("j1", prioritizing, optimal)])
            assert [r.status for r in report.results] == [status]
            assert service.metrics.counter("store.appended").value == 0
        with SqliteStore(store_path) as store:
            assert len(store) == 0

class TestServiceIntegration:
    def _service(self, store):
        return RepairService(ServiceConfig(), store=store)

    def _job(self, optimal=True):
        prioritizing, opt, non_opt = simple_problem_bundle(
            single_fd_schema()
        )
        return RepairJob(
            job_id="j1",
            prioritizing=prioritizing,
            candidate=opt if optimal else non_opt,
        )

    def test_second_service_instance_answers_from_store(self, store_path):
        with SqliteStore(store_path) as store:
            first = self._service(store)
            cold = first.run_job(self._job())
            assert cold.status == "ok"
            assert cold.cache_hit is False
        # A new process (modelled by a new service over a reopened
        # store) starts with a cold LRU but a warm durable tier.
        with SqliteStore(store_path) as store:
            second = self._service(store)
            warm = second.run_job(self._job())
            assert warm.cache_hit is True
            assert warm.is_optimal == cold.is_optimal
            assert warm.fingerprint == cold.fingerprint
            assert store.stats()["hits"] == 1

    def test_store_hit_rewarms_the_lru(self, store_path):
        with SqliteStore(store_path) as store:
            service = self._service(store)
            service.run_job(self._job())
        with SqliteStore(store_path) as store:
            service = self._service(store)
            service.run_job(self._job())  # store hit, warms LRU
            service.run_job(self._job())  # pure LRU hit
            assert store.stats()["hits"] == 1
            counters = service.metrics.snapshot()["counters"]
            assert counters["store.hits"] == 1
            assert counters["cache.hits"] == 1

    def test_metrics_expose_store_snapshot(self, store_path):
        with SqliteStore(store_path) as store:
            service = self._service(store)
            service.run_job(self._job())
            snapshot = service._metrics_snapshot()
            assert snapshot["result_store"]["puts"] == 1
            assert snapshot["result_store"]["path"] == str(store_path)

    def test_serviced_verdicts_identical_with_and_without_store(
        self, store_path
    ):
        bare = RepairService(ServiceConfig())
        cold = bare.run_job(self._job(optimal=False))
        with SqliteStore(store_path) as store:
            stored_service = self._service(store)
            stored_service.run_job(self._job(optimal=False))
            replayed = self._service(store).run_job(self._job(optimal=False))
        for result in (replayed,):
            assert result.is_optimal == cold.is_optimal
            assert result.reason == cold.reason
            assert result.semantics == cold.semantics
