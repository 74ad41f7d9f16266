"""Cache-key and verdict invariance at the service layer.

Job fingerprints are a function of the request alone — never of how the
service that computes the answer is configured — so cache and store
entries are shared across execution backends (serial, thread, or
process executor, any worker count).  These tests pin that contract:
cache keys match across services, a warm cache transfers between
differently-configured services, verdicts match the definitional oracle
and the brute-force checker, and check jobs round-trip through the
process executor.
"""

from __future__ import annotations

import pytest

from repro.core.checking import check_globally_optimal_brute_force
from repro.service.cache import LRUCache
from repro.service.fingerprint import fingerprint_check_request
from repro.service.jobs import RepairJob
from repro.service.service import RepairService, ServiceConfig
from repro.testing import oracle_check

from tests.helpers import hard_problem


def _service(executor="serial", cache=None, **fields):
    return RepairService(
        ServiceConfig(executor=executor, **fields),
        cache=cache,
        sleep=lambda _seconds: None,
    )


def _jobs(simple_problem):
    prioritizing, optimal, non_optimal = simple_problem
    return [
        RepairJob("optimal", prioritizing, optimal, semantics=semantics)
        for semantics in ("global", "pareto", "completion")
    ] + [RepairJob("worse", prioritizing, non_optimal)]


class TestCacheKeysAreBackendInvariant:
    def test_fingerprint_has_no_backend_parameter(self, simple_problem):
        # The signature itself is the contract: a backend argument can
        # not leak into the digest because there is none to pass.
        prioritizing, optimal, _ = simple_problem
        assert "core_backend" not in (
            fingerprint_check_request.__code__.co_varnames
        )
        a = fingerprint_check_request(prioritizing, optimal)
        b = fingerprint_check_request(prioritizing, optimal)
        assert a == b

    def test_cache_keys_match_across_services(self, simple_problem):
        jobs = _jobs(simple_problem)
        serial = _service()
        pooled = _service("process", workers=2, cache_size=16)
        for job in jobs:
            assert serial._cache_key(job) == pooled._cache_key(job)

    def test_warm_cache_transfers_between_backends(self, simple_problem):
        # A cache populated by a serial service must serve hits to a
        # thread-pool service (and the reissued verdicts agree).
        jobs = _jobs(simple_problem)
        shared = LRUCache(128)
        cold = _service(cache=shared).run_batch(jobs)
        warm = _service("thread", cache=shared, workers=2).run_batch(jobs)
        assert not any(result.cache_hit for result in cold.results)
        assert all(result.cache_hit for result in warm.results)
        for before, after in zip(cold.results, warm.results):
            assert before.is_optimal == after.is_optimal
            assert before.status == after.status


class TestVerdictParity:
    @pytest.mark.parametrize("semantics", ["global", "pareto", "completion"])
    def test_service_verdicts_agree(self, simple_problem, semantics):
        prioritizing, optimal, non_optimal = simple_problem
        jobs = [
            RepairJob("good", prioritizing, optimal, semantics=semantics),
            RepairJob("bad", prioritizing, non_optimal, semantics=semantics),
        ]
        report = _service().run_batch(jobs)
        for job in jobs:
            assert report.by_id(job.job_id).is_optimal == oracle_check(
                prioritizing, job.candidate, semantics
            )

    def test_hard_problem_search_verdicts_agree(self):
        prioritizing, candidate = hard_problem(
            n_facts=24, conflict_rate=0.8, seed=5
        )
        jobs = [RepairJob("hard", prioritizing, candidate, method="search")]
        report = _service().run_batch(jobs)
        assert report.by_id("hard").status == "ok"
        assert report.by_id("hard").is_optimal == bool(
            check_globally_optimal_brute_force(prioritizing, candidate)
        )

    def test_process_executor_round_trip(self, simple_problem):
        # Check jobs pickle out to pool workers and their verdicts
        # pickle back unchanged.
        prioritizing, optimal, non_optimal = simple_problem
        jobs = [
            RepairJob("good", prioritizing, optimal),
            RepairJob("bad", prioritizing, non_optimal),
        ]
        report = _service("process", workers=2).run_batch(jobs)
        assert report.by_id("good").is_optimal is True
        assert report.by_id("bad").is_optimal is False
