"""The undecided-state dynamics: gossip vs population-protocol models.

Section 2.5 of the paper lists the consensus time of the k-opinion
undecided dynamics as an open question, in both the synchronous
(gossip) and asynchronous (population-protocol) models.  This example
measures both side by side:

* synchronous USD (`repro.core.UndecidedStateDynamics`) — each round
  every vertex samples one neighbour;
* the pairwise protocol model (`repro.protocols.UndecidedPairwise`) —
  one random ordered pair interacts per tick, reported in parallel time
  (interactions / n);
* [AAE07] approximate majority as the k = 2 reference point.

Run:  python examples/undecided_dynamics.py
"""

from __future__ import annotations

import numpy as np

from repro import BatchPopulationEngine
from repro.analysis import format_table
from repro.configs import balanced
from repro.core import UndecidedStateDynamics, with_undecided_slot
from repro.protocols import (
    ApproximateMajority,
    PairwiseEngine,
    UndecidedPairwise,
)
from repro.seeding import spawn_generators

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


def pairwise_parallel_time(k: int) -> float:
    times = []
    counts = np.concatenate([balanced(N, k), [0]])
    for rng in spawn_generators((SEED, 1, k), RUNS):
        engine = PairwiseEngine(UndecidedPairwise(k), counts, seed=rng)
        result = engine.run_until_consensus(max_interactions=5_000 * N)
        if result is not None:
            times.append(result / N)
    return float(np.median(times)) if times else float("nan")


def main() -> None:
    rows = []
    for k in KS:
        rows.append(
            [k, synchronous_rounds(k), pairwise_parallel_time(k)]
        )
    am_times = []
    for rng in spawn_generators((SEED, 2), RUNS):
        engine = PairwiseEngine(
            ApproximateMajority(),
            ApproximateMajority.initial_counts(N // 2, N // 2),
            seed=rng,
        )
        result = engine.run_until_consensus(max_interactions=5_000 * N)
        if result is not None:
            am_times.append(result / N)
    print(
        format_table(
            [
                "k",
                "sync USD rounds",
                "pairwise USD parallel time",
            ],
            rows,
            title=f"Undecided-state dynamics, n={N:,} (balanced starts)",
        )
    )
    print(
        f"[AAE07] 3-state approximate majority at k=2: median "
        f"{np.median(am_times):.1f} parallel time.\n"
        "The open question (Section 2.5) is the tight k-dependence of\n"
        "these curves for arbitrary 2 <= k <= n; at this scale both\n"
        "models grow slowly with k (the additive log-n endgame still\n"
        "dominates), which is exactly why the asymptotic answer needs\n"
        "proof machinery rather than simulation."
    )


if __name__ == "__main__":
    main()
