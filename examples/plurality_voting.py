"""Plurality voting in a sensor swarm — Theorem 2.6 in action.

Scenario: 50,000 sensors each prefer one of 40 firmware channels, with a
slight real preference for channel 0.  The swarm must converge on *the
plurality choice* using only constant-size messages: each sensor polls
three random peers per round (3-Majority).

Theorem 2.6 says the plurality opinion wins w.h.p. as soon as its margin
over every rival exceeds ``C sqrt(log n / n)`` — far below what a human
would call a landslide.  This example sweeps the true margin around the
threshold and reports how often the network elects channel 0, plus how
long elections take.

Run:  python examples/plurality_voting.py
"""

from __future__ import annotations

import math

from repro import BatchPopulationEngine, ThreeMajority
from repro.analysis import format_table, success_probability, summarize
from repro.configs import biased
from repro.theory.bounds import plurality_margin

N = 50_000
K = 40
ELECTIONS_PER_MARGIN = 30
SEED = 2026


def hold_elections(margin: float, seed) -> list:
    """ELECTIONS_PER_MARGIN elections as rows of one batch engine."""
    engine = BatchPopulationEngine(
        ThreeMajority(),
        biased(N, K, margin),
        num_replicas=ELECTIONS_PER_MARGIN,
        seed=seed,
    )
    return engine.run_until_consensus(50_000)


def main() -> None:
    threshold = plurality_margin("3-majority", N)
    rows = []
    for mult in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        margin = mult * threshold
        results = hold_elections(margin, seed=(SEED, int(mult * 10)))
        wins = success_probability(
            results, lambda r: r.converged and r.winner == 0
        )
        times = summarize([r.rounds for r in results if r.converged])
        rows.append(
            [
                f"{mult:.1f}x",
                f"{margin * N:.0f} votes",
                f"{wins['probability']:.2f}",
                f"[{wins['low']:.2f}, {wins['high']:.2f}]",
                times.median,
            ]
        )
    print(
        format_table(
            [
                "margin / threshold",
                "lead of channel 0",
                "P[channel 0 wins]",
                "95% CI",
                "median rounds",
            ],
            rows,
            title=(
                f"Sensor-swarm elections (n={N:,}, k={K}; threshold "
                f"margin = {threshold:.4f} = "
                f"{threshold * N:.0f} votes; "
                f"{ELECTIONS_PER_MARGIN} elections per row)"
            ),
        )
    )
    print(
        "Theorem 2.6's margin is ~sqrt(log n / n): with n = 50k the\n"
        f"plurality leader needs only ~{threshold * N:.0f} extra "
        "supporters out of 50,000\n"
        "for a near-certain win — and elections finish in "
        f"O(log n / gamma_0) ~ {math.log(N) * K:.0f} rounds."
    )


if __name__ == "__main__":
    main()
