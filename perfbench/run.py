"""The repo benchmark: one workload per call, metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload thm11-paper --seed 1 --seconds 25 --trace 0

``--trace 0`` runs set-up, then timed passes over the workload's inputs
for ``--seconds``, and reports the end-to-end metrics.  ``--trace 1``
alternates untraced passes with passes traced by ``tracer.Tracer``
for ``--seconds``, and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the run record (environment, output digests,
gate failures) and, when traced, the spans are written under
``.perfbench_out/``.  The exit code is 0 only when every correctness
gate passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gates  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up is repeated in this many fresh interpreters; the median counts.
SETUP_PROBES = 5
#: Every timed phase makes at least this many passes, so each run
#: checks that passes over the same inputs agree.
MIN_PASSES = 2
#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10
#: The pinned compute backend.
BACKEND = "numpy"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the self-test",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, print the set-up seconds, tear down",
    )
    return parser.parse_args(argv)


def _hermetic_environment() -> str | None:
    """Refuse an armed fault plan, pin the backend; None when fine."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no repro source tree under {SRC}; run from a checkout"
    if os.environ.get("REPRO_FAULT_PLAN"):
        return "REPRO_FAULT_PLAN is set; the benchmark runs fault-free"
    os.environ["REPRO_BACKEND"] = BACKEND
    sys.path.insert(0, str(SRC))
    from repro.backends import default_backend
    from repro.faults import active_fault_plan

    if active_fault_plan() is not None:
        return "a fault plan is armed; the benchmark runs fault-free"
    if default_backend().name != BACKEND:
        return f"backend {default_backend().name!r} is not {BACKEND!r}"
    return None


def _setup_seconds(args) -> tuple[float, list[str]]:
    """Median set-up time over fresh interpreters (imports included)."""
    samples, failures = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--size", args.size,
                "--setup-probe",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if probe.returncode != 0:
            failures.append(f"setup probe failed: {probe.stderr.strip()[-500:]}")
            continue
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return (statistics.median(samples) if samples else float("nan")), failures


def _repeat(step, seconds: float) -> list:
    """Call ``step`` until another call would end past ``seconds``.

    Always at least ``MIN_PASSES`` calls.
    """
    results = []
    started = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - started
        if len(results) >= MIN_PASSES and elapsed * (1 + 1 / len(results)) > seconds:
            return results


def _untraced_pass(workload):
    installed = tracer.wraps_installed()
    if installed:
        raise RuntimeError(f"tracer wraps left installed: {installed}")
    return workload.run_pass()


def _measured_passes(workload, seconds: float) -> list:
    """Untraced passes, each with the host's slowdown around it.

    When the workload has a reference loop, the loop runs before the
    first pass and after every pass, and a pass's slowdown is the mean
    of the two calls on either side of it.
    """
    reference = workload.speed_reference
    if reference is None:
        return _repeat(lambda: _untraced_pass(workload), seconds)
    reference.slowdown()  # warm-up: first-call costs stay out of the figures
    slowdowns = [reference.slowdown()]

    def step():
        result = _untraced_pass(workload)
        slowdowns.append(reference.slowdown())
        result.slowdown = (slowdowns[-2] + slowdowns[-1]) / 2
        return result

    return _repeat(step, seconds)


def _traced_pass(workload, trace):
    trace.install()
    try:
        return workload.run_pass()
    finally:
        trace.uninstall()


def _tail_latency(values: list[float], q: float) -> float:
    """The ``q`` quantile, or the median when too few samples lie past it.

    Workloads whose run holds a handful of operations (one per pass)
    cannot support a p90: it would be the slowest pass or two, which
    measures host noise, not the program.
    """
    if len(values) * (1 - q) < TAIL_SAMPLES:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end_metrics(passes, setup_s: float, failed: int) -> dict[str, float]:
    """Pass figures divided by the host's slowdown around each pass.

    Rates are medians over passes too, so one pass slowed by the host
    moves them no more than it moves wall_s.
    """
    latencies = [x / p.slowdown for p in passes for x in p.latencies]
    return {
        "wall_s": statistics.median(p.wall_s / p.slowdown for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": 1.0 - failed / len(latencies),
        "replica_rounds_per_s": statistics.median(
            p.replica_rounds * p.slowdown / p.wall_s for p in passes
        ),
        "jobs_per_s": statistics.median(
            len(p.latencies) * p.slowdown / p.wall_s for p in passes
        ),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _tail_latency(latencies, 0.9),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _union_ns(intervals) -> int:
    covered, reach = 0, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def per_layer_metrics(trace, traced, untraced) -> dict[str, float]:
    """Per-operation layer figures from one traced phase.

    An operation is one experiment run (thm11-paper), one pair of sweeps
    (sweep-hmajority) or one job (service-*), so figures stay comparable
    whatever the number of passes a run fits in.
    """
    ops = sum(len(p.latencies) for p in traced)

    def per_op(value: float) -> float:
        return value / ops

    core_step = trace.seconds("core.step")
    rows = trace.counts["core.rows_stepped"]
    carried = trace.counts["engine.rows_carried"]
    points = trace.counts["sweep.points"]
    measured = trace.calls("sweep.measure")
    leases = trace.calls("service.lease")
    jobs = {
        rid: ev for rid, ev in trace.events.items()
        if "submit_start" in ev and "returned" in ev
    }

    def job_mean(start: str, end: str) -> float:
        return _mean(
            (ev[end] - ev[start]) / 1e9
            for ev in jobs.values() if start in ev and end in ev
        )

    traced_wall = sum(p.wall_s for p in traced)
    if jobs:
        # Concurrent service threads: attribute each job's submit→result
        # interval to the layer intervals that cover it.
        spans = [("submit_start", "submitted"), ("enqueued", "leased"),
                 ("exec_start", "exec_end"), ("complete_start", "returned")]
        covered = sum(
            _union_ns((ev[a], ev[b]) for a, b in spans if a in ev and b in ev)
            for ev in jobs.values()
        )
        latency = sum(ev["returned"] - ev["submit_start"] for ev in jobs.values())
        unattributed = 1.0 - covered / latency
    else:
        layers = ("experiments.", "simulation.", "engine.", "core.", "sweep.",
                  "provenance.", "service.")
        attributed = sum(trace.self_seconds(layer) for layer in layers)
        unattributed = 1.0 - attributed / traced_wall
    return {
        "core.step_s": per_op(core_step),
        "core.step_calls": per_op(trace.calls("core.step")),
        "core.rows_stepped": per_op(rows),
        "core.ns_per_row_step": core_step * 1e9 / rows if rows else 0.0,
        "core.multinomial_s": per_op(trace.seconds("core.multinomial")),
        "core.sample_s": per_op(trace.seconds("core.sample")),
        "core.majority_winners_s": per_op(trace.seconds("core.majority_winners")),
        "engine.step_s": per_op(trace.seconds("engine.step")),
        "engine.self_s": per_op(trace.self_seconds("engine.")),
        "engine.steps": per_op(trace.calls("engine.step")),
        "engine.consensus_mask_s": per_op(trace.seconds("engine.consensus_mask")),
        "engine.active_row_frac": rows / carried if carried else 0.0,
        "simulation.spec_s": per_op(trace.seconds("simulation.spec")),
        "simulation.specs": per_op(trace.calls("simulation.spec")),
        "simulation.execute_self_s": per_op(trace.self_seconds("simulation.execute")),
        "sweep.self_s": per_op(trace.self_seconds("sweep.")),
        "sweep.points": per_op(points),
        "sweep.points_measured": per_op(measured),
        "sweep.cache_hit_ratio": 1.0 - measured / points if points else 0.0,
        "provenance.record_s": per_op(trace.seconds("provenance.record")),
        "provenance.records": per_op(trace.calls("provenance.record")),
        "provenance.chain_len": _mean(p.chain_len for p in traced),
        "service.submit_s": job_mean("submit_start", "submitted"),
        "service.queue_wait_s": job_mean("enqueued", "leased"),
        "service.execute_s": per_op(trace.seconds("service.execute")),
        "service.result_lag_s": job_mean("completed", "returned"),
        "service.status_polls_per_job": per_op(trace.calls("service.status")),
        "service.lease_attempts": per_op(leases),
        "service.lease_empty_frac": (
            trace.counts["service.lease_empty"] / leases if leases else 0.0
        ),
        "service.store_txn_s": per_op(trace.seconds("service.store_txn")),
        "service.store_txns": per_op(trace.calls("service.store_txn")),
        "service.heartbeats": per_op(trace.counts["service.heartbeats"]),
        "experiments.self_s": per_op(trace.self_seconds("experiments.")),
        "trace.wall_s": _mean(x for p in traced for x in p.latencies),
        "trace.overhead_frac": (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced) - 1.0
        ),
        "trace.unattributed_frac": unattributed,
    }


def _environment() -> dict:
    import numpy
    from repro.provenance import git_revision

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_revision(),
        "backend": BACKEND,
        "fault_plan": None,
        "load_generator_threads": workloads.NUM_CLIENTS,
        "service_workers": workloads.NUM_WORKERS,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    problem = _hermetic_environment()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    SCRATCH.mkdir(exist_ok=True)
    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, SCRATCH)
        try:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        finally:
            workload.teardown()
        return 0

    setup_s, failures = _setup_seconds(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, SCRATCH)
    trace = None
    try:
        workload.setup()
        failures += workload.setup_failures
        if args.trace:
            # Untraced and traced passes alternate, so a drift in
            # machine speed does not show up as tracing overhead.
            trace = tracer.Tracer()
            pairs = _repeat(
                lambda: (_untraced_pass(workload), _traced_pass(workload, trace)),
                args.seconds,
            )
            untraced = [pair[0] for pair in pairs]
            traced = [pair[1] for pair in pairs]
            passes = untraced + traced
        else:
            passes = _measured_passes(workload, args.seconds)
    finally:
        workload.teardown()
    leftover = tracer.wraps_installed()
    if leftover:
        failures.append(f"tracer wraps left installed: {leftover}")
    digests = [p.digest for p in passes]
    failures += gates.determinism_failures(digests)
    for p in passes:
        failures += p.failures
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    if failures and failed == 0:
        failed = attempted  # a run-level gate failed: trust no operation
    correct = not failures

    if args.trace:
        values = per_layer_metrics(trace, traced, untraced)
    else:
        values = end_to_end_metrics(passes, setup_s, failed)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    metrics = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": _environment(),
        "digest": digests[0],
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_slowdowns": [p.slowdown for p in passes],
        "failures": failures,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if trace is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace.to_document()))
    for failure in list(dict.fromkeys(failures))[:20]:
        print(f"perfbench: gate failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
