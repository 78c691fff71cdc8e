"""Benchmark ``asyncbatch`` — vectorised asynchronous replication.

The ``AsyncBatchPopulationEngine`` advances R asynchronous chains
tick-by-tick in lockstep, sampling each tick's single-vertex update
across every active row in one ``async_population_step_batch`` call.
This benchmark guards the per-tick cost of that engine:

* ``test_async_batch_replication_seconds`` — fixed-tick stepping time
  of the engine at R = 64 (3-Majority, with Voter recorded for
  trend-watching).  Fixed ticks rather than run-to-consensus keep the
  workload the same from run to run.  The 3-Majority run must finish
  within ``SECONDS_BOUND``, an absolute bound with several-fold
  headroom over a 2-core machine's 0.09 s; a per-row tick loop over
  the same 64 chains took over 1 s there.
The override-presence guard that used to live here is now enforced
statically by ``repro lint``'s **no-row-loop** rule
(``src/repro/lint/rules/vectorization.py``).

Run with:  pytest benchmarks/bench_async_batch.py --benchmark-only
"""

from __future__ import annotations

import time

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import ThreeMajority, Voter
from repro.engine import AsyncBatchPopulationEngine

N = 256
K = 8
REPLICAS = 64
TICKS = 600
SECONDS_BOUND = 0.5  # 3-Majority at R = 64


def _batch_seconds(dynamics, counts, replicas: int) -> float:
    engine = AsyncBatchPopulationEngine(
        dynamics, counts, num_replicas=replicas, seed=0
    )
    started = time.perf_counter()
    engine.run_ticks(TICKS)
    return time.perf_counter() - started


def _study() -> dict:
    seconds = {
        dynamics.name: _batch_seconds(dynamics, balanced(N, K), REPLICAS)
        for dynamics in (ThreeMajority(), Voter())
    }
    rows = [
        [
            name,
            REPLICAS,
            round(value * 1000, 1),
            round(value / TICKS * 1e6, 1),
        ]
        for name, value in seconds.items()
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
    seconds = study["seconds"]["3-majority"]
    write_bench_json(
        "async_batch",
        optimised_seconds=seconds,
        config={"R": REPLICAS, "n": N, "k": K, "ticks": TICKS},
        extra={
            "seconds_bound": SECONDS_BOUND,
            "seconds": {
                name: round(value, 6)
                for name, value in study["seconds"].items()
            },
        },
    )
    assert seconds <= SECONDS_BOUND, (
        f"3-majority async batch took {seconds:.3f} s for {TICKS} ticks "
        f"at R={REPLICAS}, above the {SECONDS_BOUND:g} s bound"
    )
