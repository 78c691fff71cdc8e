"""Tests for the simulation service: store, scheduler, fleet, API.

Layered like the package: the SQLite store and scheduler policy are
exercised directly (no HTTP, no threads), the worker fleet with
injectable runners (timeout/retry/backoff without real sweeps), the
HTTP surface through :class:`ServiceClient` against an in-process
:class:`SimulationService`, and finally the end-to-end acceptance
story — 8 concurrent tenants, one shared cache, quota rejection,
restart survival — plus a subprocess smoke test of ``repro serve``
(the CI smoke job runs exactly that test).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    InvalidJobState,
    JobNotFound,
    QuotaExceededError,
    ServiceError,
)
from repro.service import (
    JobSpec,
    JobStore,
    QuotaPolicy,
    Scheduler,
    ServiceClient,
    SimulationService,
    WorkerFleet,
)
from repro.sweep import SweepSpec, run_sweep


def _spec(ns=(64,), k=2, runs=2, seed=1, **kwargs) -> JobSpec:
    return JobSpec(
        grid={"n": list(ns), "k": [k]},
        num_runs=runs,
        seed=seed,
        fixed={"dynamics": "3-majority"},
        **kwargs,
    )


def _explode_on_n128(params, num_runs, seed):
    """Module-level point function failing on exactly one grid point."""
    if params["n"] == 128:
        raise RuntimeError("measurement exploded")
    return (1.0,) * num_runs


def _wait_for(predicate, timeout=20.0, interval=0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "jobs.db") as job_store:
        yield job_store


class TestJobSpec:
    def test_canonical_json_round_trip(self):
        spec = _spec(ns=(64, 128), seed=(1, 2))
        clone = JobSpec.from_json(spec.canonical_json())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_num_points(self):
        assert _spec(ns=(64, 128, 256)).num_points == 3
        assert JobSpec(grid={"n": [64, 128], "k": [2, 4]}).num_points == 4

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            JobSpec.from_mapping({"grid": {"n": [64], "k": [2]}, "x": 1})

    def test_rejects_missing_grid(self):
        with pytest.raises(ConfigurationError, match="grid"):
            JobSpec.from_mapping({"num_runs": 3})

    @pytest.mark.parametrize("measure", ["sequential", "telepathy"])
    def test_rejects_non_batch_measure(self, measure):
        with pytest.raises(ConfigurationError, match="measure"):
            JobSpec.from_mapping(
                {"grid": {"n": [64], "k": [2]}, "measure": measure}
            )

    def test_legacy_batch_measure_field_still_loads(self):
        """Old clients send, and old job rows store, measure=batch."""
        legacy = JobSpec.from_mapping(
            {"grid": {"n": [64], "k": [2]}, "measure": "batch"}
        )
        assert legacy == JobSpec.from_mapping({"grid": {"n": [64], "k": [2]}})
        assert "measure" not in json.loads(legacy.canonical_json())

    def test_validates_points_eagerly(self):
        # n=2, k=4 is an impossible configuration; must fail at
        # construction, not deep inside a worker.
        with pytest.raises(ConfigurationError):
            JobSpec(grid={"n": [2], "k": [4]})

    def test_rejects_grid_missing_required_parameter(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            JobSpec(grid={"n": [64]})

    def test_to_sweep_spec_matches(self):
        sweep = _spec(ns=(64, 128), runs=5, seed=3).to_sweep_spec()
        assert sweep.num_runs == 5
        assert sweep.seed == 3
        assert len(sweep.points()) == 2


class TestJobStore:
    def test_submit_get_round_trip(self, store):
        job = store.submit(_spec(), client="alice", priority=3)
        fetched = store.get(job.id)
        assert fetched.state == "queued"
        assert fetched.client == "alice"
        assert fetched.priority == 3
        assert fetched.spec == _spec()
        assert fetched.attempts == 0

    def test_get_unknown_raises(self, store):
        with pytest.raises(JobNotFound, match="nope"):
            store.get("nope")

    def test_survives_close_and_reopen(self, tmp_path):
        path = tmp_path / "jobs.db"
        with JobStore(path) as first:
            job = first.submit(_spec(), client="alice")
        with JobStore(path) as second:
            fetched = second.get(job.id)
            assert fetched.state == "queued"
            assert fetched.spec == _spec()

    def test_requeue_orphans_after_simulated_crash(self, tmp_path):
        """A running job from a dead server returns to the queue."""
        path = tmp_path / "jobs.db"
        with JobStore(path) as first:
            job = first.submit(_spec(), client="alice")
            leased = first.lease_next("worker-0")
            assert leased.id == job.id
            assert first.get(job.id).state == "running"
            # close without completing: simulated server death
        with JobStore(path) as second:
            assert second.requeue_orphans() == 1
            revived = second.get(job.id)
            assert revived.state == "queued"
            assert revived.worker is None
            assert second.lease_next("worker-1").id == job.id

    def test_lease_empty_queue(self, store):
        assert store.lease_next("w") is None

    def test_lease_priority_order(self, store):
        low = store.submit(_spec(), client="a", priority=0)
        high = store.submit(_spec(), client="a", priority=5)
        mid = store.submit(_spec(), client="a", priority=2)
        order = [store.lease_next("w").id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_lease_fifo_within_priority(self, store):
        first = store.submit(_spec(), client="a")
        second = store.submit(_spec(), client="a")
        assert store.lease_next("w").id == first.id
        assert store.lease_next("w").id == second.id

    def test_lease_fair_share_across_clients(self, store):
        """A flooding tenant cannot starve an idle one."""
        flood = [store.submit(_spec(), client="flood") for _ in range(3)]
        store.lease_next("w0")  # flood now has one running job
        quiet = store.submit(_spec(), client="quiet")
        # Same priority, flood submitted first — but fair-share puts
        # the client with no running jobs ahead.
        assert store.lease_next("w1").id == quiet.id
        assert store.lease_next("w2").id == flood[1].id

    def test_lease_respects_backoff(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.fail(job.id, "transient", retry_at=time.time() + 60)
        assert store.get(job.id).state == "queued"
        assert store.lease_next("w") is None  # hidden by not_before
        assert store.lease_next("w", now=time.time() + 61).id == job.id
        assert store.get(job.id).attempts == 1

    def test_complete_records_result(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.complete(job.id, [{"params": {"n": 64}, "values": [1.0]}])
        done = store.get(job.id)
        assert done.state == "done"
        assert done.result[0]["values"] == [1.0]
        assert done.done_points == done.total_points

    def test_fail_terminal(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.fail(job.id, "RuntimeError: boom")
        failed = store.get(job.id)
        assert failed.state == "failed"
        assert "boom" in failed.error

    def test_cancel_queued(self, store):
        job = store.submit(_spec(), client="a")
        assert store.cancel(job.id).state == "cancelled"
        assert store.lease_next("w") is None

    def test_cancel_running_rejected(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        with pytest.raises(InvalidJobState, match="running"):
            store.cancel(job.id)

    def test_cancel_done_rejected(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.complete(job.id, [])
        with pytest.raises(InvalidJobState, match="done"):
            store.cancel(job.id)

    def test_complete_requires_running(self, store):
        job = store.submit(_spec(), client="a")
        with pytest.raises(InvalidJobState, match="complete"):
            store.complete(job.id, [])

    def test_heartbeat_updates_progress(self, store):
        job = store.submit(_spec(ns=(64, 128)), client="a")
        store.lease_next("w")
        store.record_heartbeat(job.id, done_points=1)
        running = store.get(job.id)
        assert running.done_points == 1
        assert running.heartbeat is not None

    def test_stats(self, store):
        store.submit(_spec(), client="a")
        job = store.submit(_spec(), client="b")
        store.cancel(job.id)
        counts = store.stats()
        assert counts["queued"] == 1
        assert counts["cancelled"] == 1
        assert counts["running"] == 0


class TestQuota:
    def test_max_jobs_rejected_with_clear_error(self, store):
        scheduler = Scheduler(store, QuotaPolicy(max_jobs=2))
        scheduler.admit(_spec(), client="alice")
        scheduler.admit(_spec(), client="alice")
        with pytest.raises(
            QuotaExceededError, match="'alice'.*2 active"
        ):
            scheduler.admit(_spec(), client="alice")

    def test_max_jobs_is_per_client(self, store):
        scheduler = Scheduler(store, QuotaPolicy(max_jobs=1))
        scheduler.admit(_spec(), client="alice")
        scheduler.admit(_spec(), client="bob")  # unaffected

    def test_max_points_rejected(self, store):
        scheduler = Scheduler(
            store, QuotaPolicy(max_points=4, max_points_per_job=None)
        )
        scheduler.admit(_spec(ns=(64, 128, 256)), client="alice")
        with pytest.raises(QuotaExceededError, match="grid\\s?points"):
            scheduler.admit(_spec(ns=(64, 128)), client="alice")

    def test_max_points_per_job_rejected(self, store):
        scheduler = Scheduler(store, QuotaPolicy(max_points_per_job=2))
        with pytest.raises(QuotaExceededError, match="per-job"):
            scheduler.admit(_spec(ns=(64, 128, 256)), client="alice")

    def test_finished_jobs_free_quota(self, store):
        scheduler = Scheduler(store, QuotaPolicy(max_jobs=1))
        job = scheduler.admit(_spec(), client="alice")
        store.lease_next("w")
        store.complete(job.id, [])
        scheduler.admit(_spec(), client="alice")  # slot freed

    def test_requires_client_id(self, store):
        scheduler = Scheduler(store)
        with pytest.raises(ConfigurationError, match="client"):
            scheduler.admit(_spec(), client="")

    def test_policy_validates_limits(self):
        with pytest.raises(ConfigurationError, match="max_jobs"):
            QuotaPolicy(max_jobs=0)


class _FlakyRunner:
    """Fails the first ``failures`` invocations, then succeeds."""

    def __init__(self, failures: int, error: Exception | None = None):
        self.failures = failures
        self.calls = 0
        self.error = error or RuntimeError("transient blip")

    def __call__(self, job, progress):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        progress(job.total_points, job.total_points)
        return [{"params": {}, "values": [1.0], "error": None}]


class TestWorkerFleet:
    def _fleet(self, store, runner=None, **kwargs):
        kwargs.setdefault("num_workers", 1)
        kwargs.setdefault("poll_interval", 0.01)
        kwargs.setdefault("heartbeat_interval", 0.02)
        kwargs.setdefault("backoff_base", 0.01)
        return WorkerFleet(
            store, Scheduler(store), runner=runner, **kwargs
        )

    def test_executes_real_sweep_job(self, store, tmp_path):
        fleet = self._fleet(store, cache_dir=tmp_path / "cache")
        job = store.submit(_spec(ns=(64, 128)), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).state == "done"
            )
        finally:
            assert fleet.drain(10.0)
        done = store.get(job.id)
        assert len(done.result) == 2
        assert done.done_points == 2
        values = done.result[0]["values"]
        assert len(values) == 2 and all(v > 0 for v in values)

    def test_transient_failure_retried_to_success(self, store):
        runner = _FlakyRunner(failures=2)
        fleet = self._fleet(store, runner=runner, max_retries=2)
        job = store.submit(_spec(), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).state == "done"
            )
        finally:
            assert fleet.drain(10.0)
        assert runner.calls == 3
        assert store.get(job.id).attempts == 2

    def test_retries_exhausted_goes_dead(self, store):
        runner = _FlakyRunner(failures=99)
        fleet = self._fleet(store, runner=runner, max_retries=1)
        job = store.submit(_spec(), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).state == "dead"
            )
        finally:
            assert fleet.drain(10.0)
        dead = store.get(job.id)
        assert runner.calls == 2  # initial + 1 retry
        assert "transient blip" in dead.error

    def test_backoff_delays_retry(self, store):
        runner = _FlakyRunner(failures=1)
        fleet = self._fleet(
            store, runner=runner, max_retries=1, backoff_base=0.2
        )
        job = store.submit(_spec(), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).attempts == 1, timeout=5.0
            )
            requeued = store.get(job.id)
            # The retry is scheduled into the future, not immediate.
            assert requeued.not_before > requeued.updated - 0.05
            assert _wait_for(
                lambda: store.get(job.id).state == "done"
            )
        finally:
            assert fleet.drain(10.0)

    def test_configuration_error_is_permanent(self, store):
        runner = _FlakyRunner(
            failures=99, error=ConfigurationError("bad spec")
        )
        fleet = self._fleet(store, runner=runner, max_retries=5)
        job = store.submit(_spec(), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).state == "failed"
            )
        finally:
            assert fleet.drain(10.0)
        assert runner.calls == 1  # never retried
        assert "bad spec" in store.get(job.id).error

    def test_job_timeout_retried_then_dead(self, store):
        def sleepy(job, progress):
            time.sleep(30.0)
            return []

        fleet = self._fleet(
            store,
            runner=sleepy,
            job_timeout=0.1,
            max_retries=1,
            heartbeat_interval=0.02,
        )
        job = store.submit(_spec(), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).state == "dead",
                timeout=15.0,
            )
        finally:
            assert fleet.drain(10.0)
        dead = store.get(job.id)
        assert dead.attempts == 2
        assert "timeout" in dead.error.lower()

    def test_graceful_drain_finishes_in_flight_job(self, store):
        release = threading.Event()

        def gated(job, progress):
            release.wait(10.0)
            return [{"params": {}, "values": [1.0], "error": None}]

        fleet = self._fleet(store, runner=gated)
        job = store.submit(_spec(), client="a")
        fleet.start()
        assert _wait_for(lambda: store.get(job.id).state == "running")
        release.set()
        assert fleet.drain(10.0)
        assert store.get(job.id).state == "done"
        assert fleet.alive_workers == 0

    def test_heartbeats_recorded_during_run(self, store):
        seen = threading.Event()

        def slow(job, progress):
            _wait_for(
                lambda: store.get(job.id).heartbeat is not None,
                timeout=5.0,
            )
            seen.set()
            return []

        fleet = self._fleet(store, runner=slow)
        store.submit(_spec(), client="a")
        fleet.start()
        try:
            assert seen.wait(10.0)
        finally:
            assert fleet.drain(10.0)


class TestHTTPAPI:
    @pytest.fixture
    def service(self, tmp_path):
        with SimulationService(
            tmp_path / "jobs.db",
            cache_dir=tmp_path / "cache",
            num_workers=2,
            quota=QuotaPolicy(
                max_jobs=4, max_points=64, max_points_per_job=32
            ),
        ) as svc:
            yield svc

    @pytest.fixture
    def idle_service(self, tmp_path):
        """No workers: jobs stay queued, cancellation is testable."""
        with SimulationService(
            tmp_path / "jobs.db",
            cache_dir=tmp_path / "cache",
            num_workers=0,
        ) as svc:
            yield svc

    def test_submit_poll_result_round_trip(self, service):
        client = ServiceClient(service.url, client_id="alice")
        job_id = client.submit(
            {
                "grid": {"n": [64, 128], "k": [2]},
                "fixed": {"dynamics": "3-majority"},
                "num_runs": 2,
                "seed": 1,
            }
        )
        status = client.status(job_id)
        assert status["state"] in ("queued", "running", "done")
        assert status["progress"]["total_points"] == 2
        result = client.wait(job_id, timeout=60.0)
        assert len(result["points"]) == 2
        assert client.status(job_id)["state"] == "done"
        for point in result["points"]:
            assert len(point["values"]) == 2
            assert point["error"] is None

    def test_result_matches_direct_run_sweep(self, service, tmp_path):
        """The service serves exactly what run_sweep measures."""
        spec = _spec(ns=(64, 128), runs=3, seed=7)
        client = ServiceClient(service.url, client_id="alice")
        result = client.wait(client.submit(spec), timeout=60.0)
        direct = run_sweep(
            spec.to_sweep_spec(),
            cache_dir=tmp_path / "direct-cache",
            measure="batch",
        )
        assert [p["values"] for p in result["points"]] == [
            list(p.values) for p in direct
        ]

    def test_cancel_queued_job(self, idle_service):
        client = ServiceClient(idle_service.url, client_id="alice")
        job_id = client.submit(_spec())
        assert client.status(job_id)["state"] == "queued"
        assert client.cancel(job_id)["state"] == "cancelled"
        with pytest.raises(InvalidJobState):
            client.cancel(job_id)

    def test_result_before_done_conflicts(self, idle_service):
        client = ServiceClient(idle_service.url, client_id="alice")
        job_id = client.submit(_spec())
        with pytest.raises(InvalidJobState, match="queued"):
            client.result(job_id)

    def test_unknown_job_404(self, idle_service):
        client = ServiceClient(idle_service.url)
        with pytest.raises(JobNotFound):
            client.status("doesnotexist")
        with pytest.raises(JobNotFound):
            client.cancel("doesnotexist")

    def test_bad_spec_rejected(self, idle_service):
        client = ServiceClient(idle_service.url)
        with pytest.raises(ConfigurationError):
            client.submit({"grid": {"n": [2], "k": [4]}})
        with pytest.raises(ConfigurationError):
            client.submit({"num_runs": 3})

    def test_measure_field_over_http(self, idle_service):
        """measure=sequential answers 400; measure=batch still loads."""

        def post(spec):
            request = urllib.request.Request(
                f"{idle_service.url}/jobs",
                data=json.dumps({"client": "legacy", "spec": spec}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=10) as reply:
                    return reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        grid = {"n": [64], "k": [2]}
        status, body = post({"grid": grid, "measure": "sequential"})
        assert status == 400
        assert "measure" in body["error"]
        status, body = post({"grid": grid, "measure": "batch"})
        assert status == 201
        job = ServiceClient(idle_service.url).status(body["id"])
        assert job["state"] == "queued"

    def test_quota_rejected_over_http(self, service):
        client = ServiceClient(service.url, client_id="greedy")
        with pytest.raises(QuotaExceededError, match="per-job"):
            client.submit(
                {"grid": {"n": [64] * 33, "k": [2]}, "num_runs": 1}
            )

    def test_healthz(self, service):
        health = ServiceClient(service.url).health()
        assert health["status"] == "ok"
        assert health["workers"]["alive"] == 2
        assert health["queue_depth"] == 0

    def test_unknown_route_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nope")


class TestLifecycleAcrossRestart:
    def test_queued_job_survives_service_restart(self, tmp_path):
        """Submit against one server process, finish under the next."""
        db = tmp_path / "jobs.db"
        with SimulationService(
            db, cache_dir=tmp_path / "cache", num_workers=0
        ) as first:
            client = ServiceClient(first.url, client_id="alice")
            job_id = client.submit(_spec(ns=(64, 128)))
            assert client.status(job_id)["state"] == "queued"
        # First server gone; a new one adopts the same store.
        with SimulationService(
            db, cache_dir=tmp_path / "cache", num_workers=1
        ) as second:
            client = ServiceClient(second.url, client_id="alice")
            result = client.wait(job_id, timeout=60.0)
            assert len(result["points"]) == 2

    def test_running_job_requeued_on_restart(self, tmp_path):
        """An orphaned running job is re-queued, then completes."""
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            job = store.submit(_spec(ns=(64,)), client="alice")
            store.lease_next("dead-worker")
        with SimulationService(
            db, cache_dir=tmp_path / "cache", num_workers=1
        ) as service:
            assert service.requeued_orphans == 1
            client = ServiceClient(service.url, client_id="alice")
            result = client.wait(job.id, timeout=60.0)
            assert len(result["points"]) == 1

    def test_restart_preserves_cache_provenance_chain(self, tmp_path):
        """The cache's manifest chain survives an orphan-requeue cycle.

        A job leased to a dead worker is re-queued by the next server
        and completed; the shared cache's provenance chain must then
        verify end to end — one manifest per point, no gaps and no
        duplicates — and a second server finishing an overlapping job
        must only append manifests for the genuinely new points.
        """
        from repro.provenance import verify_chain

        db = tmp_path / "jobs.db"
        cache_dir = tmp_path / "cache"
        with JobStore(db) as store:
            job = store.submit(_spec(ns=(64, 128)), client="alice")
            store.lease_next("dead-worker")
        with SimulationService(
            db, cache_dir=cache_dir, num_workers=1
        ) as service:
            assert service.requeued_orphans == 1
            client = ServiceClient(service.url, client_id="alice")
            client.wait(job.id, timeout=60.0)
        report = verify_chain(cache_dir)
        assert report.ok, report.render()
        assert report.entries == 2 and report.payloads == 2
        # Second lifetime: an overlapping job appends only new points.
        with SimulationService(
            db, cache_dir=cache_dir, num_workers=1
        ) as service:
            client = ServiceClient(service.url, client_id="alice")
            client.wait(
                client.submit(_spec(ns=(64, 128, 256))), timeout=60.0
            )
        report = verify_chain(cache_dir)
        assert report.ok, report.render()
        assert report.entries == 3 and report.payloads == 3


class TestEndToEndAcceptance:
    def test_eight_concurrent_clients_share_one_cache(self, tmp_path):
        """The ISSUE acceptance story, in one test.

        8 concurrent clients submit overlapping sweeps; all results
        come out of one shared cache; a second identical submission
        completes from the cache without re-running any point; the
        over-limit client is rejected by quota; and a queued job
        survives a store close/re-open cycle.
        """
        cache_dir = tmp_path / "cache"
        db = tmp_path / "jobs.db"
        overlap = [64, 128]
        with SimulationService(
            db,
            cache_dir=cache_dir,
            num_workers=4,
            quota=QuotaPolicy(
                max_jobs=4, max_points=64, max_points_per_job=16
            ),
        ) as service:
            outcomes: dict[str, dict] = {}
            errors: list = []

            def tenant(index: int) -> None:
                try:
                    client = ServiceClient(
                        service.url, client_id=f"tenant-{index}"
                    )
                    spec = {
                        # every tenant shares the overlap points and
                        # adds one point of its own
                        "grid": {
                            "n": overlap + [256 + 64 * index],
                            "k": [2],
                        },
                        "fixed": {"dynamics": "3-majority"},
                        "num_runs": 2,
                        "seed": 5,
                    }
                    outcomes[f"tenant-{index}"] = client.wait(
                        client.submit(spec), timeout=120.0
                    )
                except Exception as exc:  # surfaces in the main thread
                    errors.append((index, exc))

            threads = [
                threading.Thread(target=tenant, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            assert not errors, errors
            assert len(outcomes) == 8

            # Overlapping points were measured once and shared: every
            # tenant reports identical values on the shared points.
            shared = {
                name: {
                    point["params"]["n"]: point["values"]
                    for point in result["points"]
                    if point["params"]["n"] in overlap
                }
                for name, result in outcomes.items()
            }
            reference = shared["tenant-0"]
            assert all(view == reference for view in shared.values())
            # One cache file per distinct grid point: 2 shared + 8 own.
            cache_files = {
                f.name: f.stat().st_mtime_ns
                for f in cache_dir.glob("*.json")
            }
            assert len(cache_files) == 10

            # Second identical submission: served from cache, no
            # point re-measured (cache files untouched).
            client = ServiceClient(service.url, client_id="tenant-0")
            spec = {
                "grid": {"n": overlap + [256], "k": [2]},
                "fixed": {"dynamics": "3-majority"},
                "num_runs": 2,
                "seed": 5,
            }
            rerun = client.wait(client.submit(spec), timeout=60.0)
            assert [p["values"] for p in rerun["points"]] == [
                p["values"] for p in outcomes["tenant-0"]["points"]
            ]
            assert {
                f.name: f.stat().st_mtime_ns
                for f in cache_dir.glob("*.json")
            } == cache_files

            # Quota rejects the over-limit client.
            with pytest.raises(QuotaExceededError):
                client.submit(
                    {"grid": {"n": [64] * 17, "k": [2]}, "num_runs": 1}
                )

            # Leave one job queued behind the running server...
            queued = ServiceClient(
                service.url, client_id="latecomer"
            ).submit(
                {
                    "grid": {"n": [96], "k": [2]},
                    "fixed": {"dynamics": "3-majority"},
                    "num_runs": 1,
                    "seed": 5,
                }
            )
            # (it may complete before shutdown; both are fine — the
            # point is that the *store* survives the cycle)
        # ...then close and re-open the store directly.
        with JobStore(db) as reopened:
            survivor = reopened.get(queued)
            assert survivor.state in ("queued", "running", "done")
            assert survivor.spec.grid == {"n": [96], "k": [2]}


class TestServeSmoke:
    def test_serve_smoke_async_batch(self, tmp_path):
        """CI smoke: real ``repro serve`` subprocess, async-batch job.

        Starts the CLI server on an ephemeral port, submits a tiny
        async-chain sweep over HTTP, polls it to completion and checks
        the served values match a direct ``run_sweep`` of the same
        spec — the whole service stack, subprocess-for-real.
        """
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--db",
                str(tmp_path / "jobs.db"),
                "--cache",
                str(tmp_path / "cache"),
                "--fleet",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", line)
            assert match, f"no URL in serve output: {line!r}"
            client = ServiceClient(match.group(0), client_id="smoke")
            spec = JobSpec(
                grid={"n": [48, 96], "k": [2]},
                num_runs=2,
                seed=3,
                fixed={"dynamics": "3-majority", "engine": "async"},
            )
            result = client.wait(client.submit(spec), timeout=120.0)
            direct = run_sweep(
                spec.to_sweep_spec(),
                cache_dir=tmp_path / "direct-cache",
                measure="batch",
            )
            assert [p["values"] for p in result["points"]] == [
                list(p.values) for p in direct
            ]
            health = client.health()
            assert health["status"] == "ok"
        finally:
            proc.terminate()
            proc.wait(15.0)


class TestResultDocument:
    def test_per_point_errors_are_structured(self, tmp_path):
        """A job with a failing point still serves the full grid.

        The worker measures with the sweep's ``on_error="skip"``, so a
        point whose measurement raises at runtime becomes a structured
        error entry next to its parameters instead of aborting the
        whole job.
        """
        store = JobStore(tmp_path / "jobs.db")

        def runner(job, progress):
            points = run_sweep(
                job.spec.to_sweep_spec(),
                batch_point_function=_explode_on_n128,
                on_error="skip",
                progress=lambda done, total, _point: progress(
                    done, total
                ),
            )
            return [
                {
                    "params": point.params,
                    "values": list(point.values),
                    "error": point.error,
                }
                for point in points
            ]

        fleet = WorkerFleet(
            store,
            Scheduler(store),
            runner=runner,
            num_workers=1,
            poll_interval=0.01,
        )
        job = store.submit(_spec(ns=(64, 128), runs=1), client="a")
        fleet.start()
        try:
            assert _wait_for(
                lambda: store.get(job.id).state == "done"
            )
        finally:
            assert fleet.drain(10.0)
        result = store.get(job.id).result
        assert len(result) == 2
        by_n = {point["params"]["n"]: point for point in result}
        assert "measurement exploded" in by_n[128]["error"]
        assert by_n[128]["values"] == []
        assert by_n[64]["error"] is None
        assert len(by_n[64]["values"]) == 1
        assert store.get(job.id).done_points == 2
        store.close()
