"""Persistent job store: SQLite via the stdlib ``sqlite3`` module.

One table, ``jobs``, holds every submission: the canonical-JSON spec,
lifecycle state, retry accounting, the leasing worker and its last
heartbeat, per-point progress and (for finished jobs) the result
document.  The store is the *only* shared mutable state in the service
— scheduler, worker fleet and HTTP API all talk to it — so every
mutation happens inside an ``IMMEDIATE`` transaction and the whole
store survives a server restart: re-opening the same path finds every
job exactly where it was, and :meth:`JobStore.requeue_orphans` returns
``running`` jobs abandoned by a dead server to the queue.

Thread-safety: one connection guarded by an ``RLock``
(``check_same_thread=False``), WAL journal mode so concurrent service
processes pointing at the same path read without blocking writers, and
a generous busy timeout instead of hand-rolled retry loops.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from repro.errors import InvalidJobState, JobNotFound, StoreBusyError
from repro.faults import fault_point
from repro.service.jobs import (
    ACTIVE_STATES,
    JOB_STATES,
    Job,
    JobSpec,
    new_job_id,
)

__all__ = ["JobStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    id          TEXT NOT NULL UNIQUE,
    client      TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    state       TEXT NOT NULL,
    spec        TEXT NOT NULL,
    num_points  INTEGER NOT NULL,
    created     REAL NOT NULL,
    updated     REAL NOT NULL,
    not_before  REAL NOT NULL DEFAULT 0,
    attempts    INTEGER NOT NULL DEFAULT 0,
    worker      TEXT,
    heartbeat   REAL,
    done_points INTEGER NOT NULL DEFAULT 0,
    error       TEXT,
    result      TEXT,
    idem_key    TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, not_before);
CREATE INDEX IF NOT EXISTS jobs_client ON jobs (client, state);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_idem ON jobs (idem_key)
    WHERE idem_key IS NOT NULL;
"""

#: sqlite3.OperationalError messages that mean "back off and retry".
_BUSY_MARKERS = ("database is locked", "database is busy")


def _translate_busy(exc: sqlite3.OperationalError) -> StoreBusyError | None:
    message = str(exc).lower()
    if any(marker in message for marker in _BUSY_MARKERS):
        return StoreBusyError(f"job store is busy: {exc}")
    return None


class JobStore:
    """SQLite-backed persistent queue + result store for sweep jobs."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path,
            check_same_thread=False,
            timeout=30.0,
            isolation_level=None,  # autocommit; explicit BEGIN below
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if self.path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            # Stores created before the idempotency column existed get
            # it added in place; executescript's CREATE TABLE IF NOT
            # EXISTS is a no-op for them, so migrate first.
            columns = {
                row["name"]
                for row in self._conn.execute(
                    "PRAGMA table_info(jobs)"
                ).fetchall()
            }
            if columns and "idem_key" not in columns:
                self._conn.execute(
                    "ALTER TABLE jobs ADD COLUMN idem_key TEXT"
                )
            self._conn.executescript(_SCHEMA)

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes ------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        client: str,
        priority: int = 0,
        idempotency_key: str | None = None,
    ) -> Job:
        """Persist a new ``queued`` job and return its record.

        ``idempotency_key`` makes the submit replay-safe: a second
        submission with the same key (a client retrying because the
        first response was lost) returns the job the first attempt
        created instead of enqueuing a duplicate.  Enforced by a unique
        index, so the guarantee holds across service processes sharing
        the database file, not just within one scheduler lock.
        """
        now = time.time()
        job_id = new_job_id()
        try:
            with self._transaction("submit"):
                self._conn.execute(
                    "INSERT INTO jobs (id, client, priority, state, spec,"
                    " num_points, created, updated, idem_key)"
                    " VALUES (?, ?, ?, 'queued', ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        str(client),
                        int(priority),
                        spec.canonical_json(),
                        spec.num_points,
                        now,
                        now,
                        idempotency_key,
                    ),
                )
        except sqlite3.IntegrityError:
            existing = (
                self.find_by_idempotency_key(idempotency_key)
                if idempotency_key
                else None
            )
            if existing is not None:
                return existing
            raise
        return self.get(job_id)

    def lease_next(
        self, worker: str, *, now: float | None = None
    ) -> Job | None:
        """Atomically claim the best runnable queued job, if any.

        Ordering (the scheduler policy, executed store-side so that
        claim-and-order is one transaction): highest ``priority``
        first; ties broken *fair-share* — the client with the fewest
        currently ``running`` jobs goes first, so one tenant flooding
        the queue cannot starve the others; final tie-break is FIFO by
        submission sequence.  Jobs whose retry backoff has not elapsed
        (``not_before`` in the future) are invisible.
        """
        now = time.time() if now is None else now
        with self._transaction("lease"):
            row = self._conn.execute(
                "SELECT j.* FROM jobs j"
                " WHERE j.state = 'queued' AND j.not_before <= ?"
                " ORDER BY j.priority DESC,"
                "  (SELECT COUNT(*) FROM jobs r"
                "   WHERE r.state = 'running'"
                "   AND r.client = j.client) ASC,"
                "  j.seq ASC"
                " LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', worker = ?,"
                " heartbeat = ?, updated = ? WHERE id = ?",
                (worker, now, now, row["id"]),
            )
        return self.get(row["id"])

    def record_heartbeat(
        self, job_id: str, *, done_points: int | None = None
    ) -> None:
        """Refresh a running job's liveness (and optionally progress)."""
        now = time.time()
        with self._transaction("heartbeat"):
            if done_points is None:
                cursor = self._conn.execute(
                    "UPDATE jobs SET heartbeat = ?, updated = ?"
                    " WHERE id = ? AND state = 'running'",
                    (now, now, job_id),
                )
            else:
                cursor = self._conn.execute(
                    "UPDATE jobs SET heartbeat = ?, updated = ?,"
                    " done_points = ?"
                    " WHERE id = ? AND state = 'running'",
                    (now, now, int(done_points), job_id),
                )
            if cursor.rowcount == 0:
                self._require(job_id)  # raises JobNotFound if absent

    def complete(self, job_id: str, result: list) -> None:
        """``running`` → ``done`` with the job's result document."""
        self._transition(
            job_id,
            expected="running",
            state="done",
            extra_sql=", result = ?, done_points = num_points,"
            " worker = NULL",
            extra_args=(json.dumps(result),),
            operation="complete",
        )

    def fail(
        self,
        job_id: str,
        error: str,
        *,
        retry_at: float | None = None,
        dead: bool = False,
    ) -> None:
        """Record a failure: terminal, dead, or back to the queue.

        With ``retry_at`` the job returns to ``queued`` with its
        attempt counter bumped and ``not_before`` set, so the scheduler
        hides it until the backoff elapses.  Without, it settles:
        ``dead=True`` means the infrastructure exhausted its transient
        retry budget (the job is eligible for an explicit requeue);
        ``dead=False`` means the job itself is hopeless and is
        terminally ``failed``.  The error message is preserved either
        way.
        """
        if retry_at is not None:
            self._transition(
                job_id,
                expected="running",
                state="queued",
                extra_sql=", attempts = attempts + 1, not_before = ?,"
                " error = ?, worker = NULL, heartbeat = NULL",
                extra_args=(float(retry_at), str(error)),
                operation="retry",
            )
        else:
            self._transition(
                job_id,
                expected="running",
                state="dead" if dead else "failed",
                extra_sql=", attempts = attempts + 1, error = ?,"
                " worker = NULL",
                extra_args=(str(error),),
                operation="fail",
            )

    def requeue_dead(self, job_id: str) -> Job:
        """``dead`` → ``queued`` with a fresh retry budget.

        The operator path out of ``dead``: attempts and backoff reset,
        the recorded error is kept until the next attempt overwrites
        it.  Any other state raises :class:`InvalidJobState`.
        """
        row = self._transition(
            job_id,
            expected="dead",
            state="queued",
            extra_sql=", attempts = 0, not_before = 0, worker = NULL,"
            " heartbeat = NULL, done_points = 0",
            operation="requeue",
        )
        return self._job_from_row(row)

    def cancel(self, job_id: str) -> Job:
        """``queued`` → ``cancelled``; any other state is an error."""
        row = self._transition(
            job_id,
            expected="queued",
            state="cancelled",
            operation="cancel",
        )
        return self._job_from_row(row)

    def requeue_orphans(self) -> int:
        """Return abandoned ``running`` jobs to the queue.

        Called at service startup: any job still marked ``running``
        was leased by a worker of a previous server process that died
        without completing it.  Progress resets (the sweep cache, not
        the store, remembers finished points — re-running the job
        skips them for free).
        """
        now = time.time()
        with self._transaction("requeue-orphans"):
            cursor = self._conn.execute(
                "UPDATE jobs SET state = 'queued', worker = NULL,"
                " heartbeat = NULL, done_points = 0, updated = ?"
                " WHERE state = 'running'",
                (now,),
            )
            return cursor.rowcount

    # -- reads -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            row = self._require(job_id)
        return self._job_from_row(row)

    def find_by_idempotency_key(self, key: str) -> Job | None:
        """The job a previous submit stored under ``key``, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE idem_key = ?", (key,)
            ).fetchone()
        return self._job_from_row(row) if row is not None else None

    def jobs(
        self, *, client: str | None = None, state: str | None = None
    ) -> list[Job]:
        """All jobs in submission order, optionally filtered."""
        clauses, args = [], []
        if client is not None:
            clauses.append("client = ?")
            args.append(client)
        if state is not None:
            clauses.append("state = ?")
            args.append(state)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT * FROM jobs{where} ORDER BY seq", args
            ).fetchall()
        return [self._job_from_row(row) for row in rows]

    def active_load(self, client: str) -> tuple[int, int]:
        """(active jobs, active grid points) a client currently holds.

        The quota currency: ``queued`` + ``running`` work only —
        finished jobs never count against a tenant.
        """
        placeholders = ",".join("?" for _ in ACTIVE_STATES)
        with self._lock:
            row = self._conn.execute(
                f"SELECT COUNT(*) AS jobs,"
                f" COALESCE(SUM(num_points), 0) AS points"
                f" FROM jobs WHERE client = ?"
                f" AND state IN ({placeholders})",
                (client, *ACTIVE_STATES),
            ).fetchone()
        return int(row["jobs"]), int(row["points"])

    def stats(self) -> dict:
        """Queue-depth snapshot for ``GET /healthz``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS count FROM jobs"
                " GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({row["state"]: int(row["count"]) for row in rows})
        return counts

    # -- internals ---------------------------------------------------

    def _transaction(self, operation: str = "write"):
        return _Transaction(self._conn, self._lock, operation)

    def _require(self, job_id: str) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise JobNotFound(job_id)
        return row

    def _transition(
        self,
        job_id: str,
        *,
        expected: str,
        state: str,
        extra_sql: str = "",
        extra_args: tuple = (),
        operation: str,
    ) -> sqlite3.Row:
        """Guarded state change: fails loudly on a stale transition.

        Returns the row as written, read inside the same transaction,
        so no later writer (say, a worker leasing a just-requeued job)
        can change what the caller reports.
        """
        now = time.time()
        with self._transaction(operation):
            cursor = self._conn.execute(
                f"UPDATE jobs SET state = ?, updated = ?{extra_sql}"
                " WHERE id = ? AND state = ?",
                (state, now, *extra_args, job_id, expected),
            )
            row = self._require(job_id)
            if cursor.rowcount == 0:
                raise InvalidJobState(job_id, row["state"], operation)
        return row

    def _job_from_row(self, row: sqlite3.Row) -> Job:
        return Job(
            id=row["id"],
            client=row["client"],
            priority=int(row["priority"]),
            state=row["state"],
            spec=JobSpec.from_json(row["spec"]),
            created=float(row["created"]),
            updated=float(row["updated"]),
            attempts=int(row["attempts"]),
            not_before=float(row["not_before"]),
            worker=row["worker"],
            heartbeat=(
                float(row["heartbeat"])
                if row["heartbeat"] is not None
                else None
            ),
            done_points=int(row["done_points"]),
            error=row["error"],
            result=(
                json.loads(row["result"])
                if row["result"] is not None
                else None
            ),
        )


class _Transaction:
    """``with store._transaction():`` — lock + IMMEDIATE transaction.

    ``BEGIN IMMEDIATE`` takes the write lock up front so a lease's
    SELECT-then-UPDATE pair is atomic against other service processes
    sharing the database file, not only against sibling threads.

    Lock-contention errors (``database is locked``, surfaced despite
    the busy timeout under heavy multi-process load — or injected by
    the ``store.transaction`` fault point) are translated to the typed,
    retryable :class:`~repro.errors.StoreBusyError` at the BEGIN and
    COMMIT boundaries, so no caller ever pattern-matches on sqlite3
    internals.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        lock: threading.RLock,
        operation: str = "write",
    ) -> None:
        self._conn = conn
        self._lock = lock
        self._operation = operation

    def __enter__(self) -> sqlite3.Connection:
        try:
            fault_point("store.transaction", operation=self._operation)
        except sqlite3.OperationalError as exc:
            busy = _translate_busy(exc)
            if busy is not None:
                raise busy from exc
            raise
        self._lock.acquire()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError as exc:
            self._lock.release()
            busy = _translate_busy(exc)
            if busy is not None:
                raise busy from exc
            raise
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                try:
                    self._conn.execute("COMMIT")
                except sqlite3.OperationalError as err:
                    self._conn.execute("ROLLBACK")
                    busy = _translate_busy(err)
                    if busy is not None:
                        raise busy from err
                    raise
            else:
                self._conn.execute("ROLLBACK")
        finally:
            self._lock.release()
