"""Chaos harness: drive the whole service stack under a fault plan.

:func:`run_chaos` stands up a real :class:`~repro.service.server.
SimulationService` (SQLite store, worker fleet, HTTP API), submits a
deterministic batch of sweep jobs through :class:`~repro.service.client.
ServiceClient` instances, arms the given :class:`~repro.faults.plan.
FaultPlan` for the duration, and then — with faults disarmed — audits
the wreckage against the invariants the stack promises to keep under
turbulence:

* every submitted job **settles** (``done`` or ``dead``; ``failed``
  would mean a valid spec was misclassified as hopeless);
* every ``dead`` job carries an explanatory error;
* no job is lost or duplicated (the store holds exactly one job per
  submission — idempotency keys absorb retried submits);
* every ``done`` job's values are **byte-identical** to a fault-free
  baseline measurement of the same grid (faults may delay work, never
  change results);
* the sweep cache's provenance chain replays clean
  (:func:`repro.provenance.verify_chain`), i.e. torn writes were healed,
  not published.

Everything is deterministic given ``(plan, seed)``: job grids are fixed,
sweep seeds are fixed, and the plan's per-point decision streams are
counter-based — a red chaos run in CI reproduces locally from the plan
name and seed alone.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plan import FaultPlan, use_fault_plan
from repro.faults.plans import builtin_plan

__all__ = ["ChaosReport", "run_chaos"]

#: States a chaos job is allowed to settle in.  ``failed`` is excluded
#: on purpose: chaos submits only valid specs, so a permanent failure
#: under injected (transient) faults is a misclassification bug.
_ACCEPTABLE_STATES = ("done", "dead")

#: The deterministic job grids chaos submissions cycle through.  They
#: overlap on purpose (n=24/k=2 and n=16/k=2 appear in several grids):
#: racing workers then share cache points, exercising the atomic-write
#: and resume paths.  All jobs share sweep seed 0, so whichever worker
#: measures a point produces the same values.
_GRIDS = (
    {"n": [16, 24], "k": [2]},
    {"n": [24, 32], "k": [2]},
    {"n": [16, 32], "k": [2, 3]},
)
_FIXED = {"max_rounds": 4000}
_NUM_RUNS = 2
_SWEEP_SEED = 0


def _job_specs(count: int) -> list[dict]:
    """The deterministic spec payloads for ``count`` chaos jobs."""
    return [
        {
            "grid": _GRIDS[index % len(_GRIDS)],
            "num_runs": _NUM_RUNS,
            "seed": _SWEEP_SEED,
            "fixed": dict(_FIXED),
        }
        for index in range(count)
    ]


def _params_key(params: dict) -> str:
    """Canonical identity of one grid point's parameter dict."""
    return json.dumps(
        {str(key): params[key] for key in sorted(params)}, sort_keys=True
    )


@dataclass
class ChaosReport:
    """What one chaos run did and which invariants (if any) it broke."""

    plan_name: str
    seed: int
    plan_summary: dict
    submitted: list[str] = field(default_factory=list)
    jobs: dict[str, dict] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    baseline_points: int = 0
    compared_points: int = 0
    verify_report: str | None = None
    violations: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def state_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for payload in self.jobs.values():
            counts[payload["state"]] = counts.get(payload["state"], 0) + 1
        return counts

    def render(self) -> str:
        states = ", ".join(
            f"{count} {state}"
            for state, count in sorted(self.state_counts().items())
        )
        fired = (
            ", ".join(
                f"{point}={count}"
                for point, count in sorted(self.fired.items())
            )
            or "none"
        )
        lines = [
            f"chaos plan={self.plan_name} seed={self.seed}: "
            f"{len(self.submitted)} job(s) -> {states or 'none'} "
            f"({self.elapsed:.1f}s)",
            f"  faults fired: {fired}",
            f"  result points checked against baseline: "
            f"{self.compared_points} "
            f"({self.baseline_points} unique baseline point(s))",
        ]
        if self.verify_report is not None:
            lines.append(f"  provenance: {self.verify_report}")
        if self.ok:
            lines.append("  OK: all chaos invariants held")
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            lines.extend(f"    - {v}" for v in self.violations)
        return "\n".join(lines)


def run_chaos(
    plan: FaultPlan | str,
    *,
    seed: int = 0,
    jobs: int = 6,
    clients: int = 2,
    workers: int = 3,
    max_retries: int = 3,
    base_dir: str | Path | None = None,
    keep: bool = False,
    baseline: bool = True,
    timeout: float = 120.0,
) -> ChaosReport:
    """Run the service stack under ``plan`` and audit the invariants.

    ``plan`` is a :class:`FaultPlan` or a builtin plan name (see
    :func:`repro.faults.plans.available_plans`); a name is built with
    ``seed``, so ``(name, seed)`` fully determines the fault schedule.
    ``jobs`` submissions are spread round-robin over ``clients``
    distinct :class:`ServiceClient` identities against a fleet of
    ``workers`` threads.  With ``baseline`` (default), every distinct
    grid is first measured fault-free into a separate cache and done
    jobs' values are required to match it exactly.  All artefacts land
    under ``base_dir`` (a fresh temp dir when ``None``), removed
    afterwards unless ``keep``.
    """
    # Imported here, not at module top: the faults package is imported
    # by the service modules, and a top-level import back into the
    # service layer would be circular.
    from repro.provenance import verify_chain
    from repro.service.client import ServiceClient
    from repro.service.server import SimulationService
    from repro.sweep import SweepSpec, run_sweep

    if isinstance(plan, str):
        plan_name, plan = plan, builtin_plan(plan, seed=seed)
    else:
        plan_name = "custom"
    plan.reset()
    report = ChaosReport(
        plan_name=plan_name, seed=seed, plan_summary=plan.summary()
    )
    base = Path(base_dir) if base_dir is not None else None
    if base is None:
        base = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    base.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        specs = _job_specs(jobs)
        expected: dict[str, list] = {}
        if baseline:
            # Fault-free reference values, measured before the plan is
            # armed into a cache the service never touches.  Every
            # chaos grid shares sweep seed 0, so "same point, same
            # values" is a hard guarantee, not a statistical one.
            seen: set[str] = set()
            for spec in specs:
                grid_key = _params_key(spec["grid"])
                if grid_key in seen:
                    continue
                seen.add(grid_key)
                points = run_sweep(
                    SweepSpec(
                        grid=spec["grid"],
                        num_runs=spec["num_runs"],
                        seed=spec["seed"],
                        fixed=spec["fixed"],
                    ),
                    cache_dir=base / "baseline",
                )
                for point in points:
                    expected[_params_key(point.params)] = [
                        float(v) for v in point.values
                    ]
            report.baseline_points = len(expected)

        service = SimulationService(
            base / "jobs.db",
            cache_dir=base / "cache",
            port=0,
            num_workers=workers,
            max_retries=max_retries,
            backoff_base=0.02,
        )
        service.start()
        try:
            # Armed process-wide only *after* startup: the service's own
            # bring-up (schema migration, orphan requeue) is not part of
            # the chaos surface, and worker threads started by start()
            # see a process-scope plan where a contextvar would be
            # invisible to them.
            with use_fault_plan(plan, scope="process"):
                fleet = [
                    ServiceClient(
                        service.url,
                        client_id=f"chaos-{index}",
                        max_retries=6,
                        retry_base=0.02,
                    )
                    for index in range(max(1, clients))
                ]
                for index, spec in enumerate(specs):
                    job_id = fleet[index % len(fleet)].submit(spec)
                    report.submitted.append(job_id)
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    states = {
                        job_id: service.store.get(job_id).state
                        for job_id in report.submitted
                    }
                    if all(
                        state in ("done", "failed", "cancelled", "dead")
                        for state in states.values()
                    ):
                        break
                    time.sleep(0.05)
            # Disarmed from here on: the audit itself must not be
            # perturbed by the plan it is auditing.
            report.fired = plan.occurrences()
            for job_id in report.submitted:
                job = service.store.get(job_id)
                report.jobs[job_id] = job.status_payload()
                if job.state not in _ACCEPTABLE_STATES:
                    report.violations.append(
                        f"job {job_id} settled in state "
                        f"{job.state!r} (expected done or dead): "
                        f"{job.error}"
                    )
                    continue
                if job.state == "dead" and not job.error:
                    report.violations.append(
                        f"job {job_id} is dead without an "
                        "explanatory error"
                    )
                if job.state == "done":
                    report.violations.extend(
                        _audit_result(job_id, job.result, expected, report)
                    )
            stored = service.store.jobs()
            if len(stored) != len(set(report.submitted)):
                report.violations.append(
                    f"store holds {len(stored)} job(s) for "
                    f"{len(set(report.submitted))} unique submission(s) "
                    "— a retried submit duplicated or lost a job"
                )
        finally:
            service.shutdown()
        if (base / "cache").is_dir():
            chain = verify_chain(base / "cache")
            report.verify_report = chain.render()
            if not chain.ok:
                report.violations.append(
                    f"sweep-cache provenance chain is broken: "
                    f"{chain.first_broken}"
                )
        else:
            # A plan that kills every execution attempt (the storm
            # plans) leaves no cache at all — nothing to verify.
            report.verify_report = "no cache written (nothing to verify)"
    finally:
        report.elapsed = time.monotonic() - started
        if not keep:
            shutil.rmtree(base, ignore_errors=True)
    return report


def _audit_result(
    job_id: str,
    points: list | None,
    expected: dict[str, list],
    report: ChaosReport,
) -> list[str]:
    """Check one done job's result document against the baseline."""
    violations = []
    if not points:
        return [f"done job {job_id} has an empty result document"]
    for point in points:
        if point.get("error") is not None:
            violations.append(
                f"done job {job_id} carries a failed point "
                f"{point['params']}: {point['error']}"
            )
            continue
        key = _params_key(point["params"])
        if key not in expected:
            continue  # baseline disabled or an unknown grid
        report.compared_points += 1
        if list(point["values"]) != expected[key]:
            violations.append(
                f"done job {job_id} point {point['params']} values "
                f"{point['values']} differ from the fault-free "
                f"baseline {expected[key]} — faults changed results"
            )
    return violations
