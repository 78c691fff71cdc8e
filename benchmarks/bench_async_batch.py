"""Benchmark ``asyncbatch`` — vectorised asynchronous replication.

The ``AsyncBatchPopulationEngine`` advances R asynchronous chains
tick-by-tick in lockstep, sampling each tick's single-vertex update
across every active row in one ``async_population_step_batch`` call
(the base class's tick, which applies each dynamics' ``vertex_update``
to integer-exact draws of uniformly random vertices).  This benchmark
guards the per-tick cost of that engine:

* ``test_async_batch_replication_seconds`` — fixed-tick stepping time
  of the engine at R = 64 for every catalogued dynamics
  (Undecided-State from the k-opinion start plus an empty undecided
  slot, h-Majority as 5-Majority).  Fixed ticks rather than
  run-to-consensus keep the workload the same from run to run.  Each
  dynamics must finish within its own absolute bound in ``CASES``,
  with several-fold headroom for noisy CI hosts over what it takes on
  a 2-core reference box (``BENCH_async_batch.json`` records it).
The override-presence guard that used to live here is now enforced
statically by ``repro lint``'s **no-row-loop** rule
(``src/repro/lint/rules/vectorization.py``).

Run with:  pytest benchmarks/bench_async_batch.py --benchmark-only
"""

from __future__ import annotations

import functools
import time

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import (
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    Voter,
    with_undecided_slot,
)
from repro.engine import AsyncBatchPopulationEngine

N = 256
K = 8
REPLICAS = 64
TICKS = 600

#: (label, dynamics factory, asserted bound on the engine's seconds).
CASES = (
    ("3-majority", ThreeMajority, 0.5),
    ("2-choices", TwoChoices, 0.5),
    ("voter", Voter, 0.5),
    ("median", MedianRule, 0.5),
    ("undecided", UndecidedStateDynamics, 0.5),
    ("5-majority", functools.partial(HMajority, 5), 0.75),
)


def _start(label):
    """The balanced k-opinion start; Undecided-State's count vector
    carries the empty undecided slot as label k."""
    counts = balanced(N, K)
    return with_undecided_slot(counts) if label == "undecided" else counts


def _batch_seconds(dynamics, counts) -> float:
    engine = AsyncBatchPopulationEngine(
        dynamics, counts, num_replicas=REPLICAS, seed=0
    )
    started = time.perf_counter()
    engine.run_ticks(TICKS)
    return time.perf_counter() - started


def _study() -> dict:
    seconds = {
        label: _batch_seconds(factory(), _start(label))
        for label, factory, _bound in CASES
    }
    rows = [
        [
            label,
            REPLICAS,
            round(value * 1000, 1),
            round(value / TICKS * 1e6, 1),
        ]
        for label, value in seconds.items()
    ]
    return {"rows": rows, "seconds": seconds}


def test_async_batch_replication_seconds(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["dynamics", "R", "batch ms", "µs per tick"],
            study["rows"],
            title=(
                f"Batched asynchronous replication "
                f"(n={N}, k={K}, {TICKS} ticks each)"
            ),
        )
    )
    seconds = study["seconds"]
    write_bench_json(
        "async_batch",
        optimised_seconds=seconds["3-majority"],
        config={"R": REPLICAS, "n": N, "k": K, "ticks": TICKS},
        extra={
            "seconds_bounds": {
                label: bound for label, _factory, bound in CASES
            },
            "seconds": {
                label: round(value, 6) for label, value in seconds.items()
            },
        },
    )
    for label, _factory, bound in CASES:
        assert seconds[label] <= bound, (
            f"{label} async batch took {seconds[label]:.3f} s for "
            f"{TICKS} ticks at R={REPLICAS}, above its {bound:g} s bound"
        )
