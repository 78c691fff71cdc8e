"""Benchmark ``sweepbatch`` — batched sweep measurement end-to-end.

``run_sweep`` measures a grid point's ``num_runs`` replicas in one
vectorised engine run.  This benchmark times all of ``run_sweep`` over
a small multi-point grid — spec construction, seeding and aggregation,
not just the engine hot loop — and asserts an absolute-seconds bound
on it, with headroom for noisy CI hosts over the 0.07 s it takes on a
2-core reference box.  For reference it also times one
``execute(SimulationSpec(engine="population", replicas=NUM_RUNS))`` per
point: ``population`` names the same batch engine, so the ratio of the
two is the sweep layer's own cost.

Both sides sample the same chain on different streams, so the benchmark
also sanity-checks that the per-point medians stay within a loose band
of each other.

Run with:  pytest benchmarks/bench_sweep_batch.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.simulation import SimulationSpec, execute
from repro.sweep import SweepSpec, run_sweep

GRID = {"n": [16_384, 65_536], "k": [16, 64]}
NUM_RUNS = 32
#: Bound on the best ``run_sweep`` time over the grid, in seconds.
SECONDS_BOUND = 0.5
#: Each side is timed as the best of this many runs, the two sides
#: alternating, so a descheduled run or a drift in host speed on a
#: shared machine cannot decide the ratio.
REPEATS = 3


def _sweep() -> SweepSpec:
    return SweepSpec(
        grid=dict(GRID), fixed={"dynamics": "3-majority"},
        num_runs=NUM_RUNS, seed=0,
    )


def _timed(work) -> tuple[float, object]:
    started = time.perf_counter()
    result = work()
    return time.perf_counter() - started, result


def _population_medians() -> list[float]:
    return [
        float(
            np.median(
                execute(
                    SimulationSpec(
                        dynamics=params["dynamics"],
                        n=params["n"],
                        k=params["k"],
                        engine="population",
                        replicas=NUM_RUNS,
                        seed=0,
                    )
                ).consensus_times
            )
        )
        for params in _sweep().points()
    ]


def _study() -> dict:
    population, batch = [], []
    for _ in range(REPEATS):
        population.append(_timed(_population_medians))
        batch.append(_timed(lambda: run_sweep(_sweep())))
    population_s, population_medians = min(population, key=lambda r: r[0])
    batch_s, batch_points = min(batch, key=lambda r: r[0])
    rows = [
        [point.params["n"], point.params["k"], median, point.median]
        for median, point in zip(population_medians, batch_points)
    ]
    return {
        "population_s": population_s,
        "batch_s": batch_s,
        "speedup": population_s / batch_s,
        "rows": rows,
    }


def test_sweep_batch_measurement_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["n", "k", "population median T", "batch median T"],
            study["rows"],
            title=(
                f"Sweep grid {GRID} x {NUM_RUNS} runs, best of "
                f"{REPEATS}: population "
                f"{study['population_s'] * 1000:.0f} ms vs batch sweep "
                f"{study['batch_s'] * 1000:.0f} ms "
                f"({study['speedup']:.1f}x)"
            ),
        )
    )
    write_bench_json(
        "sweep_batch",
        speedup=study["speedup"],
        baseline_seconds=study["population_s"],
        optimised_seconds=study["batch_s"],
        config={
            "grid": GRID,
            "num_runs": NUM_RUNS,
            "repeats": REPEATS,
            "baseline": "execute(engine='population') per point",
        },
    )
    assert study["batch_s"] <= SECONDS_BOUND, (
        f"batched sweep measurement took {study['batch_s']:.3f} s, over "
        f"its {SECONDS_BOUND:g} s end-to-end bound"
    )
    # Same chain, different streams: medians must stay in one loose
    # band (tests/test_exact_distributions.py checks the law exactly).
    for n, k, population_median, batch_median in study["rows"]:
        assert abs(population_median - batch_median) <= 0.5 * max(
            population_median, batch_median
        ), (n, k, population_median, batch_median)
