"""Benchmark ``batchdyn`` — per-dynamics batch-stepping speedups.

Tracks each dynamics' vectorised ``population_step_batch`` (the only
implementation of its synchronous count chain) and guards the catalogue
against regressions:

* ``test_batch_dynamics_speedup`` — per-round wall-clock of each
  dynamics' batch step on all R rows against R calls of the derived
  single-vector ``population_step`` (the batch step on one row, which
  is what ``population`` replication pays per round) at R = 64,
  n = 10^5, on a fixed pre-consensus configuration (the engine freezes
  finished rows, so pre-consensus stepping is the honest unit of work).
  The per-row baseline is pinned to the ``numpy`` compute backend (an
  ambient JIT backend would accelerate the baseline's primitives too
  and flatten every ratio) while the vectorised path runs under the
  session default.  Asserts the headline ≥5x for Undecided-State and
  5-Majority (one evaluation of the exact majority-of-h law for all R
  rows plus one batched multinomial, against R single-row law
  evaluations).  2-Choices runs at k = 4096, where about n / k = 24
  vertices per row switch and its batch step takes the sparse strategy
  (only the switching vertices are drawn); 3-Majority, 2-Choices and
  the Median rule (whose law tensor the baseline also runs, once per
  row) record their ratio without a floor.
* ``test_no_row_loop_fallback`` — fails if any catalogued dynamics
  loses its ``population_step_batch`` override.

Run with:  pytest benchmarks/bench_batch_dynamics.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.backends import use_backend
from repro.configs import balanced
from repro.core import (
    Dynamics,
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    available_dynamics,
    make_dynamics,
    with_undecided_slot,
)

N = 100_000
K = 16
REPLICAS = 64

#: (label, dynamics, start vector, timed rounds, asserted floor).
#: Round counts are tuned so each case runs long enough to time stably
#: but stays pre-consensus at n = 10^5.
CASES = (
    ("median", MedianRule(), balanced(N, K), 3, None),
    (
        "undecided",
        UndecidedStateDynamics(),
        with_undecided_slot(balanced(N, K)),
        100,
        5.0,
    ),
    ("5-majority", HMajority(5), balanced(N, K), 50, 5.0),
    ("3-majority", ThreeMajority(), balanced(N, K), 100, None),
    ("2-choices", TwoChoices(), balanced(N, 4096), 3, None),
)


def _per_round_seconds(dynamics, matrix, rounds, vectorised) -> float:
    rng = np.random.default_rng(0)
    if vectorised:
        step = dynamics.population_step_batch
        backend = None  # session default (numba when installed)
    else:
        backend = "numpy"  # keep the baseline an honest reference

        # R single-row steps: what `population` replication pays.
        def step(counts, generator):
            return [dynamics.population_step(row, generator) for row in counts]

    with use_backend(backend):
        step(matrix, rng)  # warm-up (allocator, lazy imports, JIT)
        started = time.perf_counter()
        for _ in range(rounds):
            step(matrix, rng)
        return (time.perf_counter() - started) / rounds


def _study() -> dict:
    rows = []
    speedups: dict[str, float] = {}
    for label, dynamics, start, rounds, _floor in CASES:
        matrix = np.tile(start, (REPLICAS, 1))
        batch_s = _per_round_seconds(dynamics, matrix, rounds, True)
        loop_s = _per_round_seconds(dynamics, matrix, rounds, False)
        speedup = loop_s / batch_s
        speedups[label] = speedup
        rows.append(
            [
                label,
                start.size,
                round(loop_s * 1000, 2),
                round(batch_s * 1000, 2),
                round(speedup, 1),
            ]
        )
    return {"rows": rows, "speedups": speedups}


def test_batch_dynamics_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                "dynamics",
                "k",
                "per-row ms/round",
                "batch ms/round",
                "speedup",
            ],
            study["rows"],
            title=(
                f"Vectorised population_step_batch vs per-row population_step "
                f"(R={REPLICAS}, n={N:,}, pre-consensus rounds)"
            ),
        )
    )
    write_bench_json(
        "batch_dynamics",
        config={
            "R": REPLICAS,
            "n": N,
            "k": {label: k for label, k, *_times in study["rows"]},
        },
        extra={
            "speedups": {
                label: round(value, 2)
                for label, value in study["speedups"].items()
            },
            "ms_per_round": {
                label: {"per_row": loop_ms, "batch": batch_ms}
                for label, _k, loop_ms, batch_ms, _speedup in study["rows"]
            },
        },
    )
    for label, _dynamics, _start, _rounds, floor in CASES:
        if floor is not None:
            assert study["speedups"][label] >= floor, (
                f"{label}: {study['speedups'][label]:.1f}x < {floor}x"
            )


def test_no_row_loop_fallback(benchmark):
    """Every catalogued dynamics must keep its vectorised override."""

    def check() -> list[str]:
        missing = []
        for spec in list(available_dynamics()) + ["5-majority"]:
            dynamics = make_dynamics(spec)
            if (
                type(dynamics).population_step_batch
                is Dynamics.population_step_batch
            ):
                missing.append(spec)
        return missing

    missing = benchmark.pedantic(check, rounds=1, iterations=1)
    assert not missing, (
        "these catalogued dynamics lost their vectorised "
        f"population_step_batch override: {missing}"
    )
