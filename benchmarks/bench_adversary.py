"""Benchmark ``adv`` — Adversarial 3-Majority, batched vs a replica loop.

Two benchmarks in one module:

* ``test_adversarial_batch_speedup`` — the engine-layer claim: R
  adversarial replicas advanced as one ``(R, k)`` count matrix (batch
  engine + vectorised ``corrupt_batch``) must beat a loop of R lone
  adversarial chains (one-row engines on spawned streams) by at least
  3x wall-clock at R = 64, tracked across R ∈ {16, 64, 256}.
* ``test_regenerate_adv`` — the tolerance-threshold experiment around
  the [GL18] scale F = sqrt(n)/k^1.5 (now itself running batched; see
  ``repro/experiments/adversary.py`` and DESIGN.md for the
  artefact-to-module mapping).

Run with:  pytest benchmarks/bench_adversary.py --benchmark-only
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import write_bench_json
from repro.adversary import (
    SupportRunnerUp,
    near_consensus_target,
    near_consensus_threshold,
)
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import ThreeMajority
from repro.engine import BatchPopulationEngine
from repro.seeding import spawn_generators

N = 65_536
K = 16
#: [GL18] tolerance scale — the adversary slows but cannot stall.
BUDGET = int(round(math.sqrt(N) / K**1.5))
#: An F >= 1 adversary can pin a stray vertex alive forever, so runs
#: stop at the near-consensus threshold (the adv convention).
THRESHOLD = near_consensus_threshold(N, BUDGET)
REPLICA_COUNTS = (16, 64, 256)
MAX_ROUNDS = 1_000_000

_target = near_consensus_target(N, BUDGET)


def _loop_seconds(replicas: int) -> tuple[float, float]:
    """R lone adversarial chains, one one-row engine per spawned
    stream."""
    counts = balanced(N, K)
    started = time.perf_counter()
    results = [
        BatchPopulationEngine(
            ThreeMajority(),
            counts,
            num_replicas=1,
            seed=rng,
            adversary=SupportRunnerUp(BUDGET),
            target=_target,
        ).run_until_consensus(MAX_ROUNDS)[0]
        for rng in spawn_generators(0, replicas)
    ]
    elapsed = time.perf_counter() - started
    return elapsed, float(np.median([r.rounds for r in results]))


def _batch_seconds(replicas: int) -> tuple[float, float]:
    counts = balanced(N, K)
    started = time.perf_counter()
    engine = BatchPopulationEngine(
        ThreeMajority(),
        counts,
        num_replicas=replicas,
        seed=0,
        adversary=SupportRunnerUp(BUDGET),
        target=_target,
    )
    results = engine.run_until_consensus(MAX_ROUNDS)
    elapsed = time.perf_counter() - started
    return elapsed, float(np.median([r.rounds for r in results]))


def _study() -> dict:
    rows = []
    speedups: dict[int, float] = {}
    for replicas in REPLICA_COUNTS:
        seq_s, seq_median = _loop_seconds(replicas)
        batch_s, batch_median = _batch_seconds(replicas)
        speedup = seq_s / batch_s
        speedups[replicas] = speedup
        rows.append(
            [
                replicas,
                round(seq_s * 1000, 1),
                round(batch_s * 1000, 1),
                round(speedup, 1),
                seq_median,
                batch_median,
            ]
        )
    return {"rows": rows, "speedups": speedups}


def test_adversarial_batch_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                "R",
                "one-row loop ms",
                "batch ms",
                "speedup",
                "loop median T",
                "batch median T",
            ],
            study["rows"],
            title=(
                f"R-row engine vs a loop of R one-row adversarial engines "
                f"(n={N:,}, k={K}, SupportRunnerUp F={BUDGET}, "
                f"stop at leader >= {THRESHOLD})"
            ),
        )
    )
    speedups = study["speedups"]
    headline = next(row for row in study["rows"] if row[0] == 64)
    write_bench_json(
        "adversarial_batch",
        speedup=speedups[64],
        baseline_seconds=headline[1] / 1000.0,
        optimised_seconds=headline[2] / 1000.0,
        config={"R": 64, "n": N, "k": K, "F": BUDGET},
        extra={"speedups": {str(r): round(s, 2) for r, s in speedups.items()}},
    )
    # Headline acceptance: >= 3x at R = 64 over the loop of one-row
    # adversarial engines.  The R = 16 / R = 256
    # rows are reported for trend-watching but not asserted on — this
    # job gates CI, and single-shot wall-clock ratios on shared runners
    # are too noisy to fail the build over.
    assert speedups[64] >= 3.0, speedups
    # Sanity: both samplers measure the same chain (medians close; the
    # band is wide because the smallest batch has only 16 samples).
    for row in study["rows"]:
        assert abs(row[4] - row[5]) <= 0.5 * max(row[4], row[5]), row


def test_regenerate_adv(regenerate):
    result = regenerate("adv")
    assert result.rows
