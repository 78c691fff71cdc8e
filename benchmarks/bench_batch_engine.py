"""Benchmark the vectorised batch-replica engine against a replica loop.

The ``BatchPopulationEngine`` exists for one reason: R independent runs
of the same spec should cost one vectorised hot loop, not R Python
loops.  The baseline is that replica loop: R lone chains, each a
one-row engine on its own spawned stream.  This benchmark tracks the
claim across R ∈ {16, 64, 256} for both paper dynamics and asserts the
headline requirement — at R = 64 the R-row engine beats the loop by at
least 3x wall-clock.

Run with:  pytest benchmarks/bench_batch_engine.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import ThreeMajority, TwoChoices
from repro.engine import BatchPopulationEngine
from repro.seeding import spawn_generators

N = 65_536
K = 16
REPLICA_COUNTS = (16, 64, 256)
MAX_ROUNDS = 1_000_000


def _loop_seconds(dynamics, counts, replicas: int) -> tuple[float, float]:
    """R lone chains, one one-row engine per spawned stream."""
    started = time.perf_counter()
    results = [
        BatchPopulationEngine(
            dynamics, counts, num_replicas=1, seed=rng
        ).run_until_consensus(MAX_ROUNDS)[0]
        for rng in spawn_generators(0, replicas)
    ]
    elapsed = time.perf_counter() - started
    return elapsed, float(np.median([r.rounds for r in results]))


def _batch_seconds(dynamics, counts, replicas: int) -> tuple[float, float]:
    started = time.perf_counter()
    engine = BatchPopulationEngine(
        dynamics, counts, num_replicas=replicas, seed=0
    )
    results = engine.run_until_consensus(MAX_ROUNDS)
    elapsed = time.perf_counter() - started
    return elapsed, float(np.median([r.rounds for r in results]))


def _study() -> dict:
    counts = balanced(N, K)
    rows = []
    speedups: dict[tuple[str, int], float] = {}
    for dynamics in (ThreeMajority(), TwoChoices()):
        for replicas in REPLICA_COUNTS:
            seq_s, seq_median = _loop_seconds(dynamics, counts, replicas)
            batch_s, batch_median = _batch_seconds(
                dynamics, counts, replicas
            )
            speedup = seq_s / batch_s
            speedups[(dynamics.name, replicas)] = speedup
            rows.append(
                [
                    dynamics.name,
                    replicas,
                    round(seq_s * 1000, 1),
                    round(batch_s * 1000, 1),
                    round(speedup, 1),
                    seq_median,
                    batch_median,
                ]
            )
    return {"rows": rows, "speedups": speedups}


def test_batch_replication_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                "dynamics",
                "R",
                "one-row loop ms",
                "batch ms",
                "speedup",
                "loop median T",
                "batch median T",
            ],
            study["rows"],
            title=(
                f"R-row engine vs a loop of R one-row engines "
                f"(n={N:,}, k={K}, balanced start)"
            ),
        )
    )
    speedups = study["speedups"]
    headline = next(
        row
        for row in study["rows"]
        if row[0] == "3-majority" and row[1] == 64
    )
    write_bench_json(
        "batch_engine",
        speedup=speedups[("3-majority", 64)],
        baseline_seconds=headline[2] / 1000.0,
        optimised_seconds=headline[3] / 1000.0,
        config={"R": 64, "n": N, "k": K},
        extra={
            "speedups": {
                f"{name}/R={replicas}": round(value, 2)
                for (name, replicas), value in speedups.items()
            }
        },
    )
    # Headline acceptance: >= 3x at R = 64 for the closed-form dynamics.
    assert speedups[("3-majority", 64)] >= 3.0, speedups
    # The advantage must grow with R, not flatten into constant overhead.
    assert (
        speedups[("3-majority", 256)] > speedups[("3-majority", 16)]
    ), speedups
    # Both dynamics should see a real win at the largest batch.
    assert speedups[("2-choices", 256)] >= 2.0, speedups
    # Sanity: the two samplers measure the same chain (medians close).
    for row in study["rows"]:
        assert abs(row[5] - row[6]) <= 0.35 * max(row[5], row[6]), row
