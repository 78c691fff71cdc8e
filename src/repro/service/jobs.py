"""Job model for the simulation service.

A *job* is one sweep submission: a :class:`JobSpec` (the work — a
parameter grid and replication settings, i.e. exactly what
:func:`repro.sweep.run_sweep` consumes) plus submission metadata
(client id, priority) and lifecycle state.  Specs are canonical JSON —
sorted keys, JSON-native types only — so a job survives a round-trip
through the SQLite store and the HTTP API byte-identically, and two
submissions of the same work hash to the same spec digest (useful for
cache accounting even though every submission gets its own job id).

Lifecycle::

    queued ──lease──> running ──complete──> done
       │                 │├──fail(permanent)──> failed
       │                 │├──fail(transient, retries left)──> queued  (backoff)
       │                 │└──fail(transient, retries exhausted)──> dead
       │                                                            │
       └──cancel──> cancelled              queued <──requeue(reset)──┘

``running`` jobs found in the store at service startup are orphans from
a crashed or killed server; they are re-queued, never silently lost.
``failed`` means the job itself is hopeless (bad spec — resubmitting
the same work would fail again); ``dead`` means the *infrastructure*
gave up (transient faults outlasted the retry budget) and the job is
eligible for ``requeue`` once the turbulence passes — attempts reset,
the sweep cache still remembers any finished points.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sweep import SweepSpec, spec_from_params

__all__ = [
    "Job",
    "JobSpec",
    "JOB_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "SETTLED_STATES",
]

#: Every legal job state.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "dead")

#: States that count against a client's queued-work quota.
ACTIVE_STATES = ("queued", "running")

#: States a job can never leave on its own.  ``dead`` is *settled* but
#: not terminal: an explicit ``requeue`` returns it to the queue.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: States in which a job is no longer making progress (terminal ∪ dead).
SETTLED_STATES = TERMINAL_STATES + ("dead",)


@dataclass(frozen=True)
class JobSpec:
    """The work of one job: a sweep grid plus replication settings.

    Mirrors :class:`repro.sweep.SweepSpec` (grid / fixed / num_runs /
    seed).  Validation is eager and complete at construction: the spec
    is materialised into a ``SweepSpec`` and every grid point into the
    very spec the worker's measurement runs
    (:func:`repro.sweep.spec_from_params` with the job's replica
    count), so a job that would fail deep inside a worker hours later
    is instead rejected at submit time with the usual
    :class:`~repro.errors.ConfigurationError`.
    """

    grid: dict
    num_runs: int = 3
    seed: int | tuple = 0
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonical JSON admits only JSON-native structures; reject
        # anything that would not round-trip through the store/API.
        try:
            json.dumps(self.grid)
            json.dumps(self.fixed)
        except TypeError as exc:
            raise ConfigurationError(
                f"job specs must be JSON-serialisable: {exc}"
            ) from exc
        spec = self.to_sweep_spec()  # validates grid/num_runs/seed
        # Validate every point eagerly — a service job must never be
        # admitted with a grid that raises after the queue drains.
        for params in spec.points():
            try:
                spec_from_params(params, replicas=spec.num_runs)
            except KeyError as exc:
                raise ConfigurationError(
                    f"grid point {params!r} is missing required "
                    f"parameter {exc}"
                ) from exc

    def to_sweep_spec(self) -> SweepSpec:
        """The equivalent :class:`~repro.sweep.SweepSpec`."""
        seed = self.seed
        if isinstance(seed, list):
            seed = tuple(seed)
        return SweepSpec(
            grid={str(k): list(v) for k, v in self.grid.items()},
            num_runs=int(self.num_runs),
            seed=seed,
            fixed=dict(self.fixed),
        )

    @property
    def num_points(self) -> int:
        """Grid points this job will measure (quota currency)."""
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    def canonical_json(self) -> str:
        """Stable JSON form: sorted keys, tuples as lists."""
        seed = self.seed
        if isinstance(seed, tuple):
            seed = list(seed)
        return json.dumps(
            {
                "grid": {k: list(v) for k, v in sorted(self.grid.items())},
                "num_runs": int(self.num_runs),
                "seed": seed,
                "fixed": {k: self.fixed[k] for k in sorted(self.fixed)},
            },
            sort_keys=True,
        )

    def digest(self) -> str:
        """Content hash of the work (not the submission)."""
        return hashlib.sha256(
            self.canonical_json().encode()
        ).hexdigest()[:16]

    @classmethod
    def from_mapping(cls, payload: dict) -> "JobSpec":
        """Build a validated spec from an untrusted JSON-level dict.

        ``"measure": "batch"`` is accepted and dropped: older clients
        send it and older job rows store it.  Any other ``measure``
        names the retired sequential measurement and is rejected.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"job spec must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {
            "grid", "num_runs", "seed", "fixed", "measure",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown job-spec fields: {sorted(unknown)}"
            )
        if payload.get("measure", "batch") != "batch":
            raise ConfigurationError(
                "measure must be 'batch' (sweep points are measured by "
                f"the batch engines only), got {payload['measure']!r}"
            )
        if "grid" not in payload:
            raise ConfigurationError("job spec requires a 'grid'")
        seed = payload.get("seed", 0)
        if isinstance(seed, list):
            seed = tuple(seed)
        return cls(
            grid=payload["grid"],
            num_runs=payload.get("num_runs", 3),
            seed=seed,
            fixed=payload.get("fixed", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_mapping(json.loads(text))


def new_job_id() -> str:
    """Opaque job id — unique per submission, not content-derived."""
    return uuid.uuid4().hex[:16]


@dataclass
class Job:
    """One stored job: spec + submission metadata + lifecycle state."""

    id: str
    client: str
    priority: int
    state: str
    spec: JobSpec
    created: float
    updated: float
    attempts: int = 0
    not_before: float = 0.0
    worker: str | None = None
    heartbeat: float | None = None
    done_points: int = 0
    error: str | None = None
    result: list | None = None

    @property
    def total_points(self) -> int:
        return self.spec.num_points

    def status_payload(self) -> dict:
        """The JSON document ``GET /jobs/<id>`` serves."""
        return {
            "id": self.id,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "attempts": self.attempts,
            "progress": {
                "done_points": self.done_points,
                "total_points": self.total_points,
            },
            "created": self.created,
            "updated": self.updated,
            "worker": self.worker,
            "error": self.error,
            "spec_digest": self.spec.digest(),
        }
