"""The undecided-state dynamics: synchronous vs asynchronous models.

Section 2.5 of the paper lists the consensus time of the k-opinion
undecided dynamics as an open question, in both the synchronous
(gossip) and asynchronous models.  This example measures both side by
side, from the same balanced starts:

* synchronous USD (`repro.core.UndecidedStateDynamics` on
  `BatchPopulationEngine`) — each round every vertex samples one
  neighbour;
* asynchronous USD, the [CMRSS25] chain (the same dynamics on
  `AsyncBatchPopulationEngine`) — one uniformly random vertex updates
  per tick, reported in parallel time (ticks / n).  The vertex it
  samples is uniform over all n, itself included (self-loops), unlike
  the population-protocol model's distinct responder.

Run:  python examples/undecided_dynamics.py
"""

from __future__ import annotations

import numpy as np

from repro import AsyncBatchPopulationEngine, BatchPopulationEngine
from repro.analysis import format_table
from repro.configs import balanced
from repro.core import UndecidedStateDynamics, with_undecided_slot

N = 2_048
KS = (2, 4, 8, 16, 32)
RUNS = 5
SEED = 23


def synchronous_rounds(k: int) -> float:
    engine = BatchPopulationEngine(
        UndecidedStateDynamics(),
        with_undecided_slot(balanced(N, k)),
        num_replicas=RUNS,
        seed=(SEED, 0, k),
    )
    times = [
        result.rounds
        for result in engine.run_until_consensus(500_000)
        if result.converged
    ]
    return float(np.median(times)) if times else float("nan")


def asynchronous_parallel_time(k: int) -> float:
    engine = AsyncBatchPopulationEngine(
        UndecidedStateDynamics(),
        with_undecided_slot(balanced(N, k)),
        num_replicas=RUNS,
        seed=(SEED, 1, k),
    )
    times = [
        result.metrics["ticks"] / N
        for result in engine.run_until_consensus(5_000 * N)
        if result.converged
    ]
    return float(np.median(times)) if times else float("nan")


def main() -> None:
    rows = []
    for k in KS:
        rows.append(
            [k, synchronous_rounds(k), asynchronous_parallel_time(k)]
        )
    print(
        format_table(
            [
                "k",
                "sync USD rounds",
                "async USD parallel time",
            ],
            rows,
            title=f"Undecided-state dynamics, n={N:,} (balanced starts)",
        )
    )
    print(
        "The open question (Section 2.5) is the tight k-dependence of\n"
        "these curves for arbitrary 2 <= k <= n; at this scale both\n"
        "models grow slowly with k (the additive log-n endgame still\n"
        "dominates), which is exactly why the asymptotic answer needs\n"
        "proof machinery rather than simulation."
    )


if __name__ == "__main__":
    main()
