"""Worker fleet: leased execution of sweep jobs with health accounting.

A :class:`WorkerFleet` runs a pool of daemon threads.  Each worker
loops: lease the best queued job from the scheduler, execute it through
the ordinary sweep path (:func:`repro.sweep.run_sweep` with
``on_error="skip"``, so per-point failures become structured entries in
the result instead of aborting the job), and record the outcome in the
store.  While a job runs, the worker emits heartbeats — both
periodically and per finished grid point (which doubles as progress
reporting) — so ``GET /healthz`` and job status always reflect live
workers, not wishful thinking.

Failure handling distinguishes *permanent* errors (the job can never
succeed — see :data:`PERMANENT_FAILURE_TYPES`, a table-driven predicate
covering the ``ConfigurationError`` family, structural
``StateError``/``GraphError`` and any ``SweepPointError`` wrapping one
of those) from *transient* ones (anything else, including the per-job
:class:`~repro.errors.JobTimeout` and injected faults): transient
failures are retried with jittered exponential backoff — jitter decorrelates
a requeue storm so a fleet of retrying workers cannot thundering-herd
the store — until the retry budget is exhausted, at which point the job
settles in the ``dead`` state (requeue-able once the turbulence
passes) rather than terminal ``failed``.  Because finished points live
in the shared sweep cache, a retried job resumes instead of
restarting.

Shutdown is a graceful drain: workers finish the job in hand, stop
leasing new ones, and join.  A worker killed mid-job (process death)
leaves a ``running`` row behind; the store re-queues such orphans at
the next service startup.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.errors import (
    ConfigurationError,
    GraphError,
    InjectedFaultError,
    JobTimeout,
    StateError,
    StoreBusyError,
    SweepPointError,
)
from repro.faults import fault_point
from repro.service.jobs import Job
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore
from repro.sweep import run_sweep

__all__ = [
    "PERMANENT_FAILURE_TYPES",
    "WorkerFleet",
    "is_permanent_failure",
    "run_sweep_job",
]

#: A job runner: ``(job, progress) -> result document`` where
#: ``progress(done, total)`` reports finished grid points.  Injectable
#: so tests can exercise timeout/retry paths without real sweeps.
JobRunner = Callable[[Job, Callable[[int, int], None]], list]

#: Error types for which retrying is hopeless: resubmitting the same
#: work would fail identically, so the job goes straight to ``failed``.
#: Table-driven on purpose — tests (and deployments with bespoke
#: runner exceptions) extend it with ``PERMANENT_FAILURE_TYPES.append``
#: instead of monkeypatching classification logic.  ``isinstance``
#: matching means the whole ``ConfigurationError`` family (SpecError-
#: style subclasses included) is covered by its base entry.
PERMANENT_FAILURE_TYPES: list[type[BaseException]] = [
    ConfigurationError,
    StateError,
    GraphError,
]


def is_permanent_failure(error: BaseException) -> bool:
    """True iff retrying ``error`` can never succeed.

    A :class:`SweepPointError` is classified by what it wraps: the
    sweep driver chains the real failure as ``__cause__``, and a grid
    point that failed with a ``ConfigurationError`` is just as hopeless
    wrapped as bare.
    """
    seen = 0
    while isinstance(error, SweepPointError) and error.__cause__ is not None:
        error = error.__cause__
        seen += 1
        if seen > 10:  # defensive: a cause cycle must not hang a worker
            break
    return isinstance(error, tuple(PERMANENT_FAILURE_TYPES))


def _jitter(token: str) -> float:
    """Deterministic uniform in [0, 1) from a string token.

    Hash-derived rather than drawn from an RNG so backoff schedules are
    a pure function of (job id, attempt) — replayable under a fault
    plan — while still decorrelating concurrent workers.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _jsonable(value: float) -> float | None:
    """NaN → None so result documents stay strict JSON."""
    return None if math.isnan(value) else float(value)


def run_sweep_job(
    job: Job,
    progress: Callable[[int, int], None],
    *,
    cache_dir: str | Path | None,
) -> list:
    """Execute one job through :func:`repro.sweep.run_sweep`.

    Results land in (and resume from) the shared on-disk point cache:
    two jobs measuring overlapping grids share work, and a retried or
    re-submitted job re-serves finished points without re-running them.
    Per-point failures are recorded (``on_error="skip"``), so the
    result document always covers the full grid.
    """
    points = run_sweep(
        job.spec.to_sweep_spec(),
        cache_dir=cache_dir,
        on_error="skip",
        # A torn cache file (crashed writer, disk fault) must not brick
        # the job on every retry: discard and re-measure the point.
        on_corrupt="remeasure",
        progress=lambda done, total, _point: progress(done, total),
    )
    return [
        {
            "params": point.params,
            "values": [_jsonable(v) for v in point.values],
            "median": _jsonable(point.median),
            "censored": point.censored,
            "error": point.error,
        }
        for point in points
    ]


class WorkerFleet:
    """A pool of leasing worker threads over one store + scheduler."""

    def __init__(
        self,
        store: JobStore,
        scheduler: Scheduler,
        *,
        cache_dir: str | Path | None = None,
        num_workers: int = 2,
        job_timeout: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.25,
        heartbeat_interval: float = 0.5,
        poll_interval: float = 0.05,
        runner: JobRunner | None = None,
        name: str = "worker",
    ) -> None:
        if num_workers < 0:
            raise ConfigurationError(
                f"num_workers must be >= 0, got {num_workers}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.store = store
        self.scheduler = scheduler
        self.cache_dir = cache_dir
        self.num_workers = num_workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self._runner = runner
        self._name = name
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("fleet already started")
        self._stop.clear()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"{self._name}-{index}",),
                name=f"{self._name}-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop leasing, let in-flight jobs finish, join the workers.

        Returns True when every worker exited within ``timeout``.
        """
        self._stop.set()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for thread in self._threads:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        alive = any(t.is_alive() for t in self._threads)
        if not alive:
            self._threads.clear()
        return not alive

    @property
    def alive_workers(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    def health(self) -> dict:
        return {
            "configured": self.num_workers,
            "alive": self.alive_workers,
            "draining": self._stop.is_set(),
        }

    # -- execution ---------------------------------------------------

    def _worker_loop(self, worker_id: str) -> None:
        busy_streak = 0
        while not self._stop.is_set():
            try:
                job = self.scheduler.lease(worker_id)
            except StoreBusyError:
                # Contended store: back off (jittered, per-worker) and
                # try again rather than killing the worker thread.
                busy_streak += 1
                pause = min(
                    self.poll_interval * (2 ** min(busy_streak, 6)), 1.0
                ) * (0.5 + _jitter(f"{worker_id}:busy:{busy_streak}"))
                self._stop.wait(pause)
                continue
            busy_streak = 0
            if job is None:
                self._stop.wait(self.poll_interval)
                continue
            self._run_leased(worker_id, job)

    def _heartbeat(
        self, job_id: str, *, done_points: int | None = None
    ) -> bool:
        """Record one heartbeat; a dropped beat is not a job failure.

        Runs through the ``worker.heartbeat`` fault point.  Injected
        drops and transient store contention are swallowed (returning
        ``False``): missing one beat only matters if enough are missed
        for the lease to look abandoned, which is exactly the orphan-
        requeue path the store already handles.
        """
        try:
            fault_point("worker.heartbeat", job_id=job_id)
            self.store.record_heartbeat(job_id, done_points=done_points)
        except (InjectedFaultError, StoreBusyError):
            return False
        return True

    def _run_leased(self, worker_id: str, job: Job) -> None:
        abandoned = threading.Event()

        def progress(done: int, total: int) -> None:
            # Raising here terminates a zombie runner thread at its
            # next point boundary after the lease timed out — its
            # late results must never land on a re-queued job.
            if abandoned.is_set():
                raise JobTimeout(
                    f"job {job.id} abandoned after timeout"
                )
            self._heartbeat(job.id, done_points=done)

        outcome: dict = {}

        def _invoke() -> None:
            runner = self._runner
            try:
                fault_point(
                    "worker.job-execute",
                    job_id=job.id,
                    attempt=job.attempts,
                )
                if runner is None:
                    outcome["result"] = run_sweep_job(
                        job, progress, cache_dir=self.cache_dir
                    )
                else:
                    outcome["result"] = runner(job, progress)
            except BaseException as exc:  # recorded, never swallowed
                outcome["error"] = exc

        thread = threading.Thread(
            target=_invoke, name=f"{worker_id}:{job.id}", daemon=True
        )
        started = time.monotonic()
        thread.start()
        while thread.is_alive():
            thread.join(self.heartbeat_interval)
            if not thread.is_alive():
                break
            self._heartbeat(job.id)
            if (
                self.job_timeout is not None
                and time.monotonic() - started > self.job_timeout
            ):
                abandoned.set()
                self._record_failure(
                    job,
                    JobTimeout(
                        f"job {job.id} exceeded its "
                        f"{self.job_timeout:g}s timeout"
                    ),
                )
                return
        error = outcome.get("error")
        if error is None:
            self._settle(self.store.complete, job.id, outcome["result"])
        else:
            self._record_failure(job, error)

    def _settle(self, operation: Callable, *args) -> None:
        """Run a terminal store transition through busy-retry.

        Losing a ``complete``/``fail`` to transient store contention
        would orphan a finished job until the next restart; a short
        bounded retry loop rides out busy storms instead.
        """
        for attempt in range(8):
            try:
                operation(*args)
                return
            except StoreBusyError:
                if attempt == 7:
                    raise
                time.sleep(
                    min(0.05 * (2**attempt), 0.5)
                    * (0.5 + _jitter(f"settle:{args[0]}:{attempt}"))
                )

    def _record_failure(
        self, job: Job, error: BaseException
    ) -> None:
        """Classify and record a failure.

        Permanent errors (:func:`is_permanent_failure`) fail now;
        transient ones retry with jittered exponential backoff until
        the budget runs out, then settle in ``dead``.
        """
        message = f"{type(error).__name__}: {error}"
        if is_permanent_failure(error):
            self._settle(self.store.fail, job.id, message)
        elif job.attempts < self.max_retries:
            delay = self.backoff_base * (2**job.attempts) * (
                0.5 + _jitter(f"{job.id}:{job.attempts}")
            )
            self._settle(
                lambda job_id, msg: self.store.fail(
                    job_id, msg, retry_at=time.time() + delay
                ),
                job.id,
                message,
            )
        else:
            self._settle(
                lambda job_id, msg: self.store.fail(
                    job_id, msg, dead=True
                ),
                job.id,
                message,
            )
