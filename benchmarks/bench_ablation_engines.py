"""Ablation: exact population engine vs agent-level engine.

DESIGN.md's central performance claim is that the count-vector engine
makes complete-graph experiments n-independent (3-Majority) or O(n)
with tiny constants (2-Choices), while the agent engine pays O(n) with
per-vertex sampling overhead.  This ablation times one synchronous
round of a lone chain on each — the population engine
(``BatchPopulationEngine``) and the graph engine (``BatchAgentEngine``
on the complete graph), each with one row — on the same configuration
and asserts the population engine's advantage, the factor that makes
the `paper`-preset sweeps feasible.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.configs import balanced
from repro.core import ThreeMajority, TwoChoices
from repro.engine import BatchAgentEngine, BatchPopulationEngine
from repro.graphs import CompleteGraph
from repro.state import counts_to_agents

N = 200_000
K = 200


def _population_round(dynamics):
    engine = BatchPopulationEngine(
        dynamics, balanced(N, K), num_replicas=1, seed=0
    )

    def step():
        engine.step()

    return step


def _agent_round(dynamics):
    engine = BatchAgentEngine(
        dynamics,
        CompleteGraph(N),
        counts_to_agents(balanced(N, K)),
        num_replicas=1,
        num_opinions=K,
        seed=0,
    )

    def step():
        engine.step()

    return step


@pytest.mark.parametrize(
    "dynamics", [ThreeMajority(), TwoChoices()], ids=lambda d: d.name
)
def test_population_round(benchmark, dynamics):
    benchmark(_population_round(dynamics))


@pytest.mark.parametrize(
    "dynamics", [ThreeMajority(), TwoChoices()], ids=lambda d: d.name
)
def test_agent_round(benchmark, dynamics):
    benchmark(_agent_round(dynamics))


def test_population_speedup_three_majority():
    """The closed-form multinomial round beats agent sampling >= 10x."""

    def best_of(step, reps=5):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            step()
            times.append(time.perf_counter() - start)
        return min(times)

    pop = best_of(_population_round(ThreeMajority()))
    agent = best_of(_agent_round(ThreeMajority()))
    assert agent / max(pop, 1e-9) > 10.0, (
        f"population {pop * 1e3:.2f}ms vs agent {agent * 1e3:.2f}ms"
    )
    print(
        f"\n3-Majority one round at n={N:,}, k={K}: population "
        f"{pop * 1e3:.2f} ms vs agent {agent * 1e3:.2f} ms "
        f"({agent / pop:.0f}x)"
    )


def test_population_round_cost_independent_of_n():
    """3-Majority population rounds cost O(#alive), not O(n)."""

    def round_time(n):
        engine = BatchPopulationEngine(
            ThreeMajority(), balanced(n, K), num_replicas=1, seed=0
        )
        start = time.perf_counter()
        for _ in range(50):
            engine.step()
        return (time.perf_counter() - start) / 50

    small = round_time(10_000)
    huge = round_time(1_000_000)
    assert huge < 20 * small + 1e-3, (
        f"{small * 1e6:.0f}us vs {huge * 1e6:.0f}us"
    )
    print(
        f"\nround cost: n=1e4 -> {small * 1e6:.0f} us; "
        f"n=1e6 -> {huge * 1e6:.0f} us (both O(k))"
    )
