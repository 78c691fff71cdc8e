"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload service-cold --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(declared["run_seconds"]),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
            check=False,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: exit {completed.returncode}, "
            f"correct {result['correct']}",
            file=sys.stderr,
        )
        runs.append(result)
    worst = 0.0
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in declared["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(
            f"{metric['name']:24s} {median:12.5g} {spread:8.4f} "
            f"{metric['bound']:6.2f}{flag}"
        )
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"seeds": args.seeds, "runs": runs}, indent=1)
    )
    return 0 if all(run["correct"] for run in runs) and worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
