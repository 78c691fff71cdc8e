"""Simulation-as-a-service: persistent jobs, elastic workers, HTTP API.

The sweep layer measures a grid in-process and exits; this package
lifts it into a long-running multi-tenant service:

* :class:`~repro.service.jobs.JobSpec` / ``Job`` — canonical-JSON job
  model with the ``queued → running → done/failed/cancelled``
  lifecycle;
* :class:`~repro.service.store.JobStore` — persistent SQLite store
  that survives restarts and re-queues orphaned running jobs;
* :class:`~repro.service.scheduler.Scheduler` +
  :class:`~repro.service.scheduler.QuotaPolicy` — priority +
  fair-share leasing and per-client quota admission;
* :class:`~repro.service.workers.WorkerFleet` — leased execution with
  heartbeats, per-job timeouts and retry-with-backoff, running every
  job through the ordinary sweep path into one shared
  result cache;
* :class:`~repro.service.server.SimulationService` — the assembled
  service with its stdlib-HTTP submit/poll/result API;
* :class:`~repro.service.client.ServiceClient` — thin client used by
  the CLI verbs (``repro serve/submit/status/result``), the tests and
  ``examples/service_quickstart.py``.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import JOB_STATES, Job, JobSpec
from repro.service.scheduler import QuotaPolicy, Scheduler
from repro.service.server import SimulationService
from repro.service.store import JobStore
from repro.service.workers import WorkerFleet, run_sweep_job

__all__ = [
    "JOB_STATES",
    "Job",
    "JobSpec",
    "JobStore",
    "QuotaPolicy",
    "Scheduler",
    "ServiceClient",
    "SimulationService",
    "WorkerFleet",
    "run_sweep_job",
]
