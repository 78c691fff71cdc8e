"""Consensus under attack — the F-bounded adversary of [GL18]/Section 2.5.

Scenario: a fleet of 16,384 replicas runs 3-Majority to agree on a
configuration epoch while an attacker reassigns up to F replicas per
round, always propping up the strongest challenger (the optimal stalling
strategy against bias amplification).

[GL18] proves tolerance of ``F = O(sqrt(n) / k^{1.5})``; this example
sweeps F through that scale and reports when agreement survives.  Note
that with any F >= 1 the attacker can keep a token minority alive
forever, so "agreement" means the leader holds all but 4F replicas.

Adversaries are first-class in the unified simulation API: each sweep
point below is one fluent ``Simulation`` with ``.adversary(...)``, run
on the batch engine so all RUNS attacked chains advance as a single
vectorised count matrix instead of RUNS Python round-loops.

Run:  python examples/adversarial_consensus.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import Simulation
from repro.adversary import near_consensus_target
from repro.analysis import format_table

N = 16_384
K = 8
RUNS = 10
WINDOW = 4_000
SEED = 99


def survive_attack(budget: int, seed) -> tuple[float, float]:
    results = (
        Simulation.of("3-majority")
        .n(N)
        .k(K)
        .replicas(RUNS)
        .batch()
        .adversary("runner-up", budget)
        .stop_when(near_consensus_target(N, budget))
        .max_rounds(WINDOW)
        .seed(seed)
        .run()
    )
    fraction = results.converged_fraction
    median = (
        float(np.nanmedian(results.consensus_times))
        if results.num_converged
        else math.nan
    )
    return fraction, median


def main() -> None:
    gl18_scale = math.sqrt(N) / K**1.5
    rows = []
    for mult in (0.0, 0.5, 1.0, 2.0, 8.0, 32.0, 128.0):
        budget = int(round(mult * gl18_scale))
        fraction, median = survive_attack(budget, seed=(SEED, budget))
        rows.append(
            [
                f"{mult:g}x",
                budget,
                f"{fraction:.2f}",
                median,
            ]
        )
    print(
        format_table(
            [
                "F / (sqrt n / k^1.5)",
                "F (replicas/round)",
                "P[agreement]",
                "median rounds",
            ],
            rows,
            title=(
                f"3-Majority vs SupportRunnerUp adversary "
                f"(n={N:,}, k={K}; [GL18] scale = {gl18_scale:.1f})"
            ),
        )
    )
    print(
        "Small budgets merely slow the bias amplification of Lemmas\n"
        "5.4-5.10; once F outruns the ~gamma * delta * n per-round drift\n"
        "the adversary resets the leader's gap every round and agreement\n"
        "never forms — an empirical tolerance threshold in the [GL18] "
        "regime."
    )


if __name__ == "__main__":
    main()
