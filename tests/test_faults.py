"""Tests for the deterministic fault-injection framework and hardening.

Layered like the package: the registry and plan machinery pure (no
threads), then each armed choke point driven through a targeted plan —
typed store-busy errors at every transaction call site, dropped
heartbeats with orphan requeue, torn cache writes healed by
``on_corrupt="remeasure"``, crash faults via a real subprocess, client
retry + idempotent submit over a live HTTP service, and runtime kernel
quarantine with graceful degradation to the reference path.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    degraded_kernels,
    register_backend,
    unregister_backend,
    use_backend,
)
from repro.backends.registry import _clear_quarantine, backend_kernel
from repro.core.h_majority import majority_winners
from repro.errors import (
    CacheIntegrityError,
    ConfigurationError,
    InjectedFaultError,
    ServiceError,
    StateError,
    StoreBusyError,
    SweepPointError,
)
from repro.faults import (
    FaultPlan,
    FaultPoint,
    FaultRule,
    available_fault_points,
    available_plans,
    builtin_plan,
    declare_fault_point,
    fault_point,
    faults_armed,
    get_fault_point,
    unregister_fault_point,
    use_fault_plan,
)
from repro.faults.plan import FAULT_PLAN_ENV_VAR
from repro.service import (
    JobSpec,
    JobStore,
    Scheduler,
    ServiceClient,
    SimulationService,
    WorkerFleet,
)
from repro.service.workers import (
    PERMANENT_FAILURE_TYPES,
    _jitter,
    is_permanent_failure,
)
from repro.sweep import SweepSpec, run_sweep


def _spec(ns=(64,), k=2, runs=2, seed=1) -> JobSpec:
    return JobSpec(
        grid={"n": list(ns), "k": [k]},
        num_runs=runs,
        seed=seed,
        fixed={"dynamics": "3-majority"},
    )


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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestFaultPointRegistry:
    def test_builtin_points_declared(self):
        names = available_fault_points()
        for expected in (
            "store.transaction",
            "worker.job-execute",
            "worker.heartbeat",
            "server.request",
            "server.response",
            "client.request",
            "sweep.cache-write",
            "backend.kernel",
        ):
            assert expected in names

    def test_declare_get_unregister(self):
        point = FaultPoint("test.point", "doc", kinds=("error",))
        declare_fault_point(point)
        try:
            assert get_fault_point("test.point") is point
            assert "test.point" in available_fault_points()
        finally:
            unregister_fault_point("test.point")
        with pytest.raises(ConfigurationError, match="test.point"):
            get_fault_point("test.point")

    def test_duplicate_declaration_raises(self):
        with pytest.raises(ConfigurationError, match="already declared"):
            declare_fault_point(
                FaultPoint("store.transaction", "imposter")
            )

    def test_torn_write_requires_write_context(self):
        with pytest.raises(ConfigurationError, match="torn-write"):
            FaultPoint("test.bad", "doc", kinds=("torn-write",))


# ---------------------------------------------------------------------------
# Rules and plans (pure decision layer)
# ---------------------------------------------------------------------------


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FaultRule("store.transaction", kind="gremlin")

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultRule("store.transaction", probability=1.5)

    def test_unknown_error_factory_rejected(self):
        with pytest.raises(ConfigurationError, match="error factory"):
            FaultRule("store.transaction", error="meteor")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            FaultRule.from_dict(
                {"point": "store.transaction", "surprise": 1}
            )

    def test_round_trip(self):
        rule = FaultRule(
            "sweep.cache-write",
            kind="torn-write",
            probability=0.25,
            max_injections=3,
        )
        assert FaultRule.from_dict(rule.to_dict()) == rule


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="rogue"):
            FaultPlan([FaultRule.from_dict({"point": "test.rogue"})])

    def test_unsupported_kind_rejected(self):
        # store.transaction does not support torn-write.
        with pytest.raises(ConfigurationError, match="does not support"):
            FaultPlan(
                [{"point": "store.transaction", "kind": "torn-write"}]
            )

    def test_decisions_replay_bit_identically(self):
        make = lambda: FaultPlan(
            [FaultRule("worker.job-execute", probability=0.5)], seed=7
        )
        first = make().decisions("worker.job-execute", 200)
        second = make().decisions("worker.job-execute", 200)
        assert first == second
        assert "error" in first and None in first  # p=0.5 mixes both

    def test_different_seeds_differ(self):
        a = FaultPlan(
            [FaultRule("worker.job-execute", probability=0.5)], seed=1
        ).decisions("worker.job-execute", 100)
        b = FaultPlan(
            [FaultRule("worker.job-execute", probability=0.5)], seed=2
        ).decisions("worker.job-execute", 100)
        assert a != b

    def test_at_rule_fires_exact_occurrences(self):
        plan = FaultPlan([FaultRule("worker.heartbeat", at=(1, 3))])
        assert plan.decisions("worker.heartbeat", 5) == [
            None, "error", None, "error", None,
        ]
        plan.fire("worker.heartbeat", {})  # occurrence 0: clean
        with pytest.raises(InjectedFaultError) as excinfo:
            plan.fire("worker.heartbeat", {})  # occurrence 1
        assert excinfo.value.point == "worker.heartbeat"
        assert excinfo.value.index == 1

    def test_max_injections_budget(self):
        plan = FaultPlan(
            [
                FaultRule(
                    "worker.heartbeat",
                    probability=1.0,
                    max_injections=2,
                )
            ]
        )
        fired = 0
        for _ in range(5):
            try:
                plan.fire("worker.heartbeat", {})
            except InjectedFaultError:
                fired += 1
        assert fired == 2

    def test_reset_replays_from_zero(self):
        plan = FaultPlan([FaultRule("worker.heartbeat", at=(0,))])
        with pytest.raises(InjectedFaultError):
            plan.fire("worker.heartbeat", {})
        plan.fire("worker.heartbeat", {})  # occurrence 1: clean
        assert plan.occurrences() == {"worker.heartbeat": 2}
        plan.reset()
        assert plan.occurrences() == {}
        with pytest.raises(InjectedFaultError):
            plan.fire("worker.heartbeat", {})

    def test_json_round_trip(self):
        plan = builtin_plan("mixed", seed=42)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.rules == plan.rules
        for point in plan.summary()["points"]:
            assert clone.decisions(point, 50) == plan.decisions(point, 50)

    def test_delay_kind_sleeps(self):
        plan = FaultPlan(
            [FaultRule("worker.heartbeat", kind="delay", delay=0.05)]
        )
        started = time.monotonic()
        plan.fire("worker.heartbeat", {})
        assert time.monotonic() - started >= 0.04

    def test_builtin_plans_build(self):
        for name in available_plans():
            plan = builtin_plan(name, seed=3)
            assert plan.rules
        with pytest.raises(ConfigurationError, match="unknown chaos plan"):
            builtin_plan("hurricane")


class TestActivation:
    def test_disarmed_by_default(self):
        assert not faults_armed()
        fault_point("worker.heartbeat")  # no-op, must not raise

    def test_context_scope_arms_and_restores(self):
        plan = FaultPlan([FaultRule("worker.heartbeat", at=(0,))])
        with use_fault_plan(plan, scope="context"):
            assert faults_armed()
            with pytest.raises(InjectedFaultError):
                fault_point("worker.heartbeat")
        assert not faults_armed()

    def test_process_scope_reaches_new_threads(self):
        import threading

        plan = FaultPlan([FaultRule("worker.heartbeat", at=(0,))])
        seen: list[bool] = []
        with use_fault_plan(plan, scope="process"):
            thread = threading.Thread(
                target=lambda: seen.append(faults_armed())
            )
            thread.start()
            thread.join()
        assert seen == [True]
        assert not faults_armed()

    def test_none_masks_outer_plan(self):
        plan = FaultPlan([FaultRule("worker.heartbeat", at=(0,))])
        with use_fault_plan(plan, scope="process"):
            with use_fault_plan(None):
                assert not faults_armed()
            assert faults_armed()

    def test_env_var_activation(self, monkeypatch):
        plan = FaultPlan([FaultRule("worker.heartbeat", at=(0,))])
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, plan.to_json())
        armed = __import__(
            "repro.faults.plan", fromlist=["active_fault_plan"]
        ).active_fault_plan()
        assert armed is not None
        assert armed.decisions("worker.heartbeat", 2) == ["error", None]

    def test_export_env_round_trips(self):
        plan = FaultPlan([FaultRule("worker.heartbeat", at=(0,))])
        assert FAULT_PLAN_ENV_VAR not in os.environ
        with use_fault_plan(plan, export_env=True):
            assert os.environ[FAULT_PLAN_ENV_VAR] == plan.to_json()
        assert FAULT_PLAN_ENV_VAR not in os.environ


# ---------------------------------------------------------------------------
# Store resilience: typed busy errors at every transaction call site
# ---------------------------------------------------------------------------


def _busy_plan() -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                "store.transaction", error="sqlite-busy", probability=1.0
            )
        ]
    )


class TestStoreBusyTranslation:
    """Every ``_transaction`` call site surfaces the typed error."""

    def test_submit(self, store):
        with use_fault_plan(_busy_plan(), scope="context"):
            with pytest.raises(StoreBusyError):
                store.submit(_spec(), client="a")

    def test_lease_heartbeat_complete_fail(self, store):
        job = store.submit(_spec(), client="a")
        with use_fault_plan(_busy_plan(), scope="context"):
            with pytest.raises(StoreBusyError):
                store.lease_next("w")
        leased = store.lease_next("w")
        assert leased.id == job.id
        with use_fault_plan(_busy_plan(), scope="context"):
            with pytest.raises(StoreBusyError):
                store.record_heartbeat(job.id)
            with pytest.raises(StoreBusyError):
                store.complete(job.id, [])
            with pytest.raises(StoreBusyError):
                store.fail(job.id, "boom")

    def test_cancel_requeues_and_orphans(self, store):
        job = store.submit(_spec(), client="a")
        with use_fault_plan(_busy_plan(), scope="context"):
            with pytest.raises(StoreBusyError):
                store.cancel(job.id)
            with pytest.raises(StoreBusyError):
                store.requeue_orphans()
        store.lease_next("w")
        store.fail(job.id, "gave up", dead=True)
        with use_fault_plan(_busy_plan(), scope="context"):
            with pytest.raises(StoreBusyError):
                store.requeue_dead(job.id)
        # Disarmed, the same operation succeeds — nothing was corrupted.
        assert store.requeue_dead(job.id).state == "queued"

    def test_busy_error_is_service_error(self):
        assert issubclass(StoreBusyError, ServiceError)


class TestDeadLifecycle:
    def test_fail_dead_and_requeue_resets(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.fail(job.id, "transient storm", dead=True)
        dead = store.get(job.id)
        assert dead.state == "dead"
        assert dead.attempts == 1
        assert "storm" in dead.error
        requeued = store.requeue_dead(job.id)
        assert requeued.state == "queued"
        assert requeued.attempts == 0
        assert requeued.not_before == 0
        assert requeued.worker is None

    def test_requeue_reports_the_state_it_wrote(self, store, monkeypatch):
        """A worker's lease landing right after the requeue commits
        cannot change the state the requeue reports."""
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.fail(job.id, "gave up", dead=True)
        transition = store._transition

        def transition_then_lease(*args, **kwargs):
            row = transition(*args, **kwargs)
            assert store.lease_next("w").id == job.id
            return row

        monkeypatch.setattr(store, "_transition", transition_then_lease)
        requeued = store.requeue_dead(job.id)
        assert requeued.state == "queued"
        assert requeued.worker is None
        assert store.get(job.id).state == "running"

    def test_requeue_dead_rejects_other_states(self, store):
        from repro.errors import InvalidJobState

        job = store.submit(_spec(), client="a")
        with pytest.raises(InvalidJobState, match="queued"):
            store.requeue_dead(job.id)

    def test_dead_jobs_listable_and_countable(self, store):
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        store.fail(job.id, "x", dead=True)
        assert [j.id for j in store.jobs(state="dead")] == [job.id]
        assert store.stats()["dead"] == 1


class TestIdempotentSubmit:
    def test_same_key_returns_existing_job(self, store):
        first = store.submit(
            _spec(), client="a", idempotency_key="k1"
        )
        replay = store.submit(
            _spec(), client="a", idempotency_key="k1"
        )
        assert replay.id == first.id
        assert len(store.jobs()) == 1

    def test_different_keys_create_jobs(self, store):
        store.submit(_spec(), client="a", idempotency_key="k1")
        store.submit(_spec(), client="a", idempotency_key="k2")
        assert len(store.jobs()) == 2

    def test_scheduler_admit_idempotent_skips_quota_on_replay(self, store):
        from repro.service import QuotaPolicy

        scheduler = Scheduler(store, QuotaPolicy(max_jobs=1))
        job, created = scheduler.admit_idempotent(
            _spec(), client="a", idempotency_key="k1"
        )
        assert created
        # The replay must not count against (or trip) the quota.
        replay, created_again = scheduler.admit_idempotent(
            _spec(), client="a", idempotency_key="k1"
        )
        assert replay.id == job.id
        assert not created_again


# ---------------------------------------------------------------------------
# Worker fleet under fault plans
# ---------------------------------------------------------------------------


class TestFleetUnderFaults:
    def _fleet(self, store, runner=None, **kwargs):
        kwargs.setdefault("num_workers", 1)
        kwargs.setdefault("poll_interval", 0.01)
        kwargs.setdefault("heartbeat_interval", 0.02)
        kwargs.setdefault("backoff_base", 0.01)
        return WorkerFleet(
            store, Scheduler(store), runner=runner, **kwargs
        )

    def test_injected_execute_faults_retried_to_done(self, store):
        plan = FaultPlan([FaultRule("worker.job-execute", at=(0,))])
        runner = lambda job, progress: [
            {"params": {}, "values": [1.0], "error": None}
        ]
        fleet = self._fleet(store, runner=runner, max_retries=2)
        job = store.submit(_spec(), client="a")
        with use_fault_plan(plan, scope="process"):
            fleet.start()
            try:
                assert _wait_for(
                    lambda: store.get(job.id).state == "done"
                )
            finally:
                assert fleet.drain(10.0)
        assert store.get(job.id).attempts == 1

    def test_exhausted_injected_faults_go_dead(self, store):
        plan = FaultPlan(
            [FaultRule("worker.job-execute", probability=1.0)]
        )
        fleet = self._fleet(store, runner=lambda j, p: [], max_retries=1)
        job = store.submit(_spec(), client="a")
        with use_fault_plan(plan, scope="process"):
            fleet.start()
            try:
                assert _wait_for(
                    lambda: store.get(job.id).state == "dead"
                )
            finally:
                assert fleet.drain(10.0)
        dead = store.get(job.id)
        assert "injected" in dead.error
        assert dead.attempts == 2

    def test_dropped_heartbeats_do_not_kill_job(self, store):
        plan = builtin_plan("heartbeat-drop")
        runner = lambda job, progress: (
            progress(1, 1),
            [{"params": {}, "values": [1.0], "error": None}],
        )[1]
        fleet = self._fleet(store, runner=runner)
        job = store.submit(_spec(), client="a")
        with use_fault_plan(plan, scope="process"):
            fleet.start()
            try:
                assert _wait_for(
                    lambda: store.get(job.id).state == "done"
                )
            finally:
                assert fleet.drain(10.0)
        assert plan.occurrences().get("worker.heartbeat", 0) >= 1

    def test_orphan_requeue_recovers_heartbeatless_job(self, store):
        # A worker whose every heartbeat is dropped dies mid-job: the
        # job is stuck 'running' with a stale heartbeat.  Startup
        # recovery must return it to the queue.
        job = store.submit(_spec(), client="a")
        store.lease_next("w")
        assert store.get(job.id).state == "running"
        assert store.requeue_orphans() == 1
        requeued = store.get(job.id)
        assert requeued.state == "queued"
        assert requeued.worker is None


class TestPermanentFailurePredicate:
    def test_configuration_and_state_errors_permanent(self):
        assert is_permanent_failure(ConfigurationError("bad"))
        assert is_permanent_failure(StateError("bad"))

    def test_runtime_and_injected_errors_transient(self):
        assert not is_permanent_failure(RuntimeError("blip"))
        assert not is_permanent_failure(
            InjectedFaultError("worker.job-execute", 0)
        )
        assert not is_permanent_failure(StoreBusyError("locked"))

    def test_sweep_point_error_unwraps_cause(self):
        wrapped = SweepPointError({"n": 64}, ConfigurationError("bad"))
        wrapped.__cause__ = ConfigurationError("bad")
        assert is_permanent_failure(wrapped)
        transient = SweepPointError({"n": 64}, RuntimeError("blip"))
        transient.__cause__ = RuntimeError("blip")
        assert not is_permanent_failure(transient)

    def test_table_is_extensible(self):
        class VenomError(Exception):
            pass

        assert not is_permanent_failure(VenomError())
        PERMANENT_FAILURE_TYPES.append(VenomError)
        try:
            assert is_permanent_failure(VenomError())
        finally:
            PERMANENT_FAILURE_TYPES.remove(VenomError)

    def test_jitter_is_deterministic_and_bounded(self):
        assert _jitter("job:1") == _jitter("job:1")
        assert _jitter("job:1") != _jitter("job:2")
        assert all(
            0.0 <= _jitter(f"token:{i}") < 1.0 for i in range(100)
        )


# ---------------------------------------------------------------------------
# Sweep cache: torn writes, remeasure healing, stale-tmp hygiene, crash
# ---------------------------------------------------------------------------


def _tiny_sweep_spec() -> SweepSpec:
    return SweepSpec(
        grid={"n": [16], "k": [2]},
        num_runs=2,
        seed=0,
        fixed={"max_rounds": 4000},
    )


class TestTornCacheWrite:
    def test_torn_write_poisons_then_remeasure_heals(self, tmp_path):
        cache = tmp_path / "cache"
        plan = FaultPlan(
            [
                FaultRule(
                    "sweep.cache-write", kind="torn-write", at=(0,)
                )
            ]
        )
        with use_fault_plan(plan, scope="context"):
            with pytest.raises(InjectedFaultError, match="torn-write"):
                run_sweep(_tiny_sweep_spec(), cache_dir=cache)
        torn = [p for p in cache.glob("*.json")]
        assert len(torn) == 1
        with pytest.raises(json.JSONDecodeError):
            json.loads(torn[0].read_text())
        # Default on_corrupt="raise": the poisoned file is a loud,
        # typed error for interactive use.
        with pytest.raises(CacheIntegrityError):
            run_sweep(_tiny_sweep_spec(), cache_dir=cache)
        # The service path heals: corrupt entry discarded, point
        # re-measured on its own seed stream — identical values.
        (healed,) = run_sweep(
            _tiny_sweep_spec(), cache_dir=cache, on_corrupt="remeasure"
        )
        (clean,) = run_sweep(
            _tiny_sweep_spec(), cache_dir=tmp_path / "reference"
        )
        assert healed.values == clean.values
        payload = json.loads(torn[0].read_text())
        assert tuple(payload["values"]) == clean.values

    def test_healed_cache_verifies_clean(self, tmp_path):
        from repro.provenance import verify_chain

        cache = tmp_path / "cache"
        plan = FaultPlan(
            [
                FaultRule(
                    "sweep.cache-write", kind="torn-write", at=(0,)
                )
            ]
        )
        with use_fault_plan(plan, scope="context"):
            with pytest.raises(InjectedFaultError):
                run_sweep(_tiny_sweep_spec(), cache_dir=cache)
        run_sweep(
            _tiny_sweep_spec(), cache_dir=cache, on_corrupt="remeasure"
        )
        report = verify_chain(cache)
        assert report.ok, report.render()


class _ParkAtCacheWrite(FaultPlan):
    """Holds every ``sweep.cache-write`` occurrence until released.

    Each writer reports ``(thread id, gate)`` on ``arrived`` and waits
    on its own gate, so a test decides the order in which parked
    writers go on to publish.
    """

    def __init__(self) -> None:
        super().__init__(())
        self.arrived: queue.Queue = queue.Queue()

    def fire(self, name, context) -> None:
        if name != "sweep.cache-write":
            return
        gate = threading.Event()
        self.arrived.put((threading.get_ident(), gate))
        gate.wait(timeout=60)


class TestConcurrentCacheWriters:
    def test_two_threads_parked_on_one_point_both_publish(self, tmp_path):
        """Two threads of one process write the same point at once.

        Both park between their temp-file write and the rename, then
        publish one after the other.  Were the temp file shared, the
        first rename would publish it and the second would find it gone
        (``FileNotFoundError``); each writer must publish its own
        complete file, and the chain must verify.
        """
        from repro.provenance import verify_chain

        cache = tmp_path / "cache"
        plan = _ParkAtCacheWrite()
        errors: list[Exception] = []

        def writer() -> None:
            try:
                run_sweep(_tiny_sweep_spec(), cache_dir=cache)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        parked = []
        with use_fault_plan(plan):
            try:
                for thread in threads:
                    thread.start()
                parked = [plan.arrived.get(timeout=60) for _ in threads]
                by_ident = {thread.ident: thread for thread in threads}
                for ident, gate in parked:
                    gate.set()
                    by_ident[ident].join(timeout=60)
            finally:
                for _, gate in parked:
                    gate.set()
                for thread in threads:
                    thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        (published,) = cache.glob("*.json")
        (clean,) = run_sweep(
            _tiny_sweep_spec(), cache_dir=tmp_path / "reference"
        )
        assert tuple(json.loads(published.read_text())["values"]) == (
            clean.values
        )
        assert list(cache.glob(".*.tmp")) == []
        report = verify_chain(cache)
        assert report.ok, report.render()


class TestStaleTmpHygiene:
    def test_old_tmp_swept_young_tmp_kept(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = cache / ".deadbeef.json.123.tmp"
        stale.write_text("{}")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = cache / ".cafef00d.json.456.tmp"
        fresh.write_text("{}")
        run_sweep(_tiny_sweep_spec(), cache_dir=cache)
        assert not stale.exists()
        assert fresh.exists()

    def test_crash_fault_leaves_tmp_not_torn_cache(self, tmp_path):
        """A hard crash between temp-write and rename, via subprocess.

        The injected ``crash`` kind calls ``os._exit(70)``; the cache
        must hold the orphaned temp file (future hygiene sweeps it) and
        no final payload — the atomic-rename window never published.
        """
        cache = tmp_path / "cache"
        plan = FaultPlan(
            [FaultRule("sweep.cache-write", kind="crash", at=(0,))]
        )
        script = (
            "from repro.sweep import SweepSpec, run_sweep\n"
            "run_sweep(SweepSpec(grid={'n': [16], 'k': [2]},"
            " num_runs=2, seed=0, fixed={'max_rounds': 4000}),"
            f" cache_dir={str(cache)!r})\n"
        )
        env = dict(os.environ)
        env[FAULT_PLAN_ENV_VAR] = plan.to_json()
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 70
        assert list(cache.glob("*.json")) == []
        assert len(list(cache.glob(".*.tmp"))) == 1


# ---------------------------------------------------------------------------
# Client retry + idempotency over a live service
# ---------------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    with SimulationService(
        tmp_path / "jobs.db",
        cache_dir=tmp_path / "cache",
        port=0,
        num_workers=1,
        backoff_base=0.02,
    ) as svc:
        yield svc


class TestClientRetry:
    def test_lost_response_submit_does_not_duplicate(self, service):
        # The server commits the job, then the response is torn off the
        # wire (occurrence 0 of server.response is our POST).  The
        # client's retry carries the same Idempotency-Key, so the store
        # must hold exactly one job.
        plan = FaultPlan(
            [
                FaultRule(
                    "server.response",
                    error="connection-reset",
                    at=(0,),
                )
            ]
        )
        client = ServiceClient(
            service.url, client_id="retry-test", retry_base=0.01
        )
        with use_fault_plan(plan, scope="process"):
            job_id = client.submit(_spec())
        jobs = service.store.jobs()
        assert [job.id for job in jobs] == [job_id]

    def test_connection_reset_before_send_retried(self, service):
        plan = FaultPlan(
            [
                FaultRule(
                    "client.request",
                    error="connection-reset",
                    at=(0,),
                )
            ]
        )
        client = ServiceClient(
            service.url, client_id="reset-test", retry_base=0.01
        )
        with use_fault_plan(plan, scope="context"):
            job_id = client.submit(_spec())
        assert service.store.get(job_id).state in ("queued", "running", "done")

    def test_deliberate_resubmit_creates_new_job(self, service):
        client = ServiceClient(service.url, client_id="dup-test")
        first = client.submit(_spec())
        second = client.submit(_spec())
        assert first != second

    def test_store_busy_maps_to_503_and_retries(self, service):
        plan = FaultPlan(
            [
                FaultRule(
                    "store.transaction",
                    error="sqlite-busy",
                    at=(0,),
                )
            ]
        )
        client = ServiceClient(
            service.url, client_id="busy-test", retry_base=0.01
        )
        with use_fault_plan(plan, scope="process"):
            job_id = client.submit(_spec())
        assert service.store.get(job_id) is not None

    def test_exhausted_retries_raise_service_error(self, tmp_path):
        client = ServiceClient(
            "http://127.0.0.1:9",  # nothing listens on the discard port
            client_id="downtime",
            max_retries=1,
            retry_base=0.01,
            timeout=0.2,
        )
        with pytest.raises(ServiceError, match="after 2 attempt"):
            client.jobs()

    def test_wait_raises_on_dead_job(self, service):
        job = service.store.submit(_spec(), client="w")
        service.store.lease_next("w0")
        service.store.fail(job.id, "storm", dead=True)
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="ended dead"):
            client.wait(job.id, timeout=5.0)

    def test_backoff_grows_and_jitters_deterministically(self):
        a = ServiceClient("http://x", client_id="same")
        b = ServiceClient("http://x", client_id="same")
        delays_a = [a._backoff(i) for i in range(5)]
        delays_b = [b._backoff(i) for i in range(5)]
        assert delays_a == delays_b  # seeded per client id
        other = ServiceClient("http://x", client_id="other")
        assert [other._backoff(i) for i in range(5)] != delays_a
        for attempt, delay in enumerate(delays_a):
            cap = min(a.retry_base * 2**attempt, a.retry_cap)
            assert 0.5 * cap <= delay <= 1.5 * cap


# ---------------------------------------------------------------------------
# Kernel quarantine and graceful degradation
# ---------------------------------------------------------------------------


class _ExplodingBackend:
    """A backend whose only kernel dies at runtime."""

    name = "exploding"
    description = "test backend with a kernel that raises"
    priority = -10
    accelerates = frozenset({"majority_winners"})

    def kernel(self, name):
        if name == "majority_winners":
            def _boom(samples, rng):
                raise RuntimeError("kernel exploded")

            return _boom
        return None

    def is_available(self):
        return True

    def self_check(self):
        return None


@pytest.fixture
def exploding_backend():
    register_backend(
        "exploding", _ExplodingBackend, priority=-10, replace=True
    )
    _clear_quarantine()
    try:
        yield
    finally:
        _clear_quarantine()
        unregister_backend("exploding")


class TestKernelDegradation:
    def test_runtime_kernel_failure_degrades_to_reference(
        self, exploding_backend
    ):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 3, size=(32, 3))
        with use_backend("exploding"):
            with pytest.warns(RuntimeWarning, match="falling back"):
                winners = majority_winners(samples, rng)
            assert winners.shape == (32,)
            assert degraded_kernels() == {
                "exploding/majority_winners": (
                    "RuntimeError: kernel exploded"
                )
            }
            # Second call: kernel is quarantined — no second warning,
            # straight to the reference path.
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                majority_winners(samples, rng)

    def test_backend_kernel_returns_none_when_quarantined(
        self, exploding_backend
    ):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 3, size=(8, 3))
        with use_backend("exploding"):
            assert backend_kernel("majority_winners") is not None
            with pytest.warns(RuntimeWarning):
                majority_winners(samples, rng)
            assert backend_kernel("majority_winners") is None

    def test_fault_plan_can_kill_kernels(self, exploding_backend):
        # Replace the exploding kernel's failure with an *injected* one:
        # the fault wrapper fires before the kernel body runs.
        plan = FaultPlan([FaultRule("backend.kernel", at=(0,))])
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 3, size=(8, 3))
        with use_backend("exploding"):
            with use_fault_plan(plan, scope="context"):
                with pytest.warns(RuntimeWarning, match="falling back"):
                    winners = majority_winners(samples, rng)
        assert winners.shape == (8,)
        assert "exploding/majority_winners" in degraded_kernels()

    def test_numpy_backend_has_no_kernels_to_wrap(self):
        with use_backend("numpy"):
            assert backend_kernel("majority_winners") is None

    def test_execute_records_degradation_on_result(
        self, exploding_backend
    ):
        from repro.simulation import Simulation

        # The 5-majority asynchronous batch tick samples each updating
        # vertex's neighbours and dispatches their plurality through
        # the majority_winners kernel (the synchronous population steps
        # draw from closed-form laws and never ask the backend).
        spec = (
            Simulation.of("5-majority")
            .n(32)
            .k(2)
            .engine("async-batch")
            .replicas(2)
            .seed(0)
            .max_rounds(4000)
            .backend("exploding")
            .build()
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = spec.run()
        assert "exploding/majority_winners" in results.degraded_kernels
        assert results.num_converged == 2
