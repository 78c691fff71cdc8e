"""Self-test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py

1. Runs every workload at the tiny size, untraced and traced, and checks
   that each run passes its gates, prints every metric named in
   ``BENCHMARK.json`` with its declared unit, and that the two runs of
   one seed record the same output digest.
2. Plants a bad output for each correctness gate and checks that the
   gate fires: a tampered service value (also through a real service
   pass), a ``mismatch`` verdict, a censored or failed sweep point, a
   corrupted provenance manifest, and passes that disagree.
3. Checks that the tracer removes every wrap it installs.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

problems: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def run_workloads(declared: dict) -> None:
    names = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        digests = []
        for trace in (0, 1):
            completed = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(SEED),
                    "--seconds", "1", "--trace", str(trace),
                    "--size", "tiny",
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
                check=False,
            )
            label = f"{workload} --trace {trace}"
            check(completed.returncode == 0,
                  f"{label}: exit {completed.returncode}: "
                  f"{completed.stderr.strip()[-800:]}")
            try:
                result = json.loads(completed.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                check(False, f"{label}: no JSON result line")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: gates failed")
            metrics = result["metrics"]
            check(set(metrics) == set(names[trace]),
                  f"{label}: metric names differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(names[trace]))}")
            for name, metric in metrics.items():
                check(metric.get("unit") == names[trace].get(name),
                      f"{label}: {name} unit {metric.get('unit')!r}")
                check(isinstance(metric.get("value"), float)
                      and math.isfinite(metric["value"]),
                      f"{label}: {name} value {metric.get('value')!r}")
            record = ROOT / ".perfbench_out" / (
                f"run-{workload}-seed{SEED}-trace{trace}-tiny.json"
            )
            digests.append(json.loads(record.read_text())["digest"])
        check(len(set(digests)) == 1,
              f"{workload}: same seed, different outputs {digests}")
        print(f"ok: {workload}", file=sys.stderr)


def planted_gates(scratch: Path) -> None:
    import gates
    import workloads
    from repro.analysis.comparison import ComparisonRecord
    from repro.experiments.base import ExperimentResult
    from repro.sweep import SweepPoint, SweepSpec, run_sweep

    reference = [[12.0, 14.0], [9.0, 11.0]]
    served = {"points": [
        {"params": {"n": 600}, "values": [12.0, 14.0], "error": None},
        {"params": {"n": 700}, "values": [9.0, 11.0], "error": None},
    ]}
    check(not gates.job_value_failures(0, served, reference),
          "service gate fires on correct values")
    served["points"][1]["values"] = [9.0, 12.0]
    check(bool(gates.job_value_failures(0, served, reference)),
          "service gate misses a tampered value")

    def experiment(verdict):
        return ExperimentResult(
            experiment_id="thm11", title="t", preset="paper", headers=[],
            rows=[], comparisons=[ComparisonRecord("thm11", "c", "m", verdict)],
        )

    check(not gates.verdict_failures(experiment("match")),
          "verdict gate fires on match")
    check(bool(gates.verdict_failures(experiment("mismatch"))),
          "verdict gate misses a mismatch verdict")

    check(not gates.sweep_point_failures([SweepPoint({"n": 8}, (3.0, 4.0))]),
          "sweep gate fires on a clean point")
    check(bool(gates.sweep_point_failures([SweepPoint({"n": 8}, (3.0, math.nan))])),
          "sweep gate misses a censored run")
    check(bool(gates.sweep_point_failures([SweepPoint({"n": 8}, (), "boom")])),
          "sweep gate misses a point error")

    check(not gates.determinism_failures(["a", "a"]),
          "determinism gate fires on equal digests")
    check(bool(gates.determinism_failures(["a", "b"])),
          "determinism gate misses differing passes")

    cache = scratch / "chain"
    run_sweep(SweepSpec(grid={"n": [64, 96]}, fixed={"k": 2}, num_runs=2),
              cache_dir=cache)
    check(not gates.chain_failures(cache), "chain gate fires on a clean chain")
    manifest = cache / "provenance" / "manifest-000001.json"
    document = json.loads(manifest.read_text())
    document["context"]["engine"] = "tampered"
    manifest.write_text(json.dumps(document))
    check(bool(gates.chain_failures(cache)),
          "chain gate misses a corrupted manifest")

    # The same tamper through a real service pass: the planted job
    # must count as failed.
    loop = workloads.ServiceLoop(SEED, "tiny", scratch, warm=False)
    loop.setup()
    try:
        loop.reference[0][0][0] += 1.0
        result = loop.run_pass()
    finally:
        loop.teardown()
    check(result.failed == 1 and any(f.startswith("job 0") for f in result.failures),
          f"service pass misses a tampered reference: {result.failures}")


def tracer_cleanup() -> None:
    import tracer

    trace = tracer.Tracer()
    trace.install()
    try:
        check(bool(tracer.wraps_installed()), "installed wraps not detected")
    finally:
        trace.uninstall()
    check(not tracer.wraps_installed(),
          f"wraps left after uninstall: {tracer.wraps_installed()}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_workloads(declared)
    os.environ["REPRO_BACKEND"] = "numpy"
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_tmp"))
    try:
        planted_gates(scratch)
        tracer_cleanup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(problems)} problem(s)" if problems else "selftest ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
