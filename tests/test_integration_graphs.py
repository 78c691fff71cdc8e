"""Integration: every dynamics on every graph family (Section 2.5).

The paper's analysis is specific to the complete graph with self-loops;
its open questions ask about other families.  These tests pin down the
*implemented* behaviour off the complete graph: the dynamics run, keep
their invariants, and converge on well-connected families within
generous budgets.  They also smoke the metastability phenomenon of the
k = 2 literature (two-community SBM slows 2-Choices down, [CNS19]).
"""

from __future__ import annotations

import numpy as np
import pytest

from dynamics_ids import dynamics_id
from repro.core import (
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    Voter,
)
from repro.engine import BatchAgentEngine, BatchPopulationEngine
from repro.graphs import (
    CompleteGraph,
    core_periphery,
    cycle_graph,
    erdos_renyi,
    random_regular,
    stochastic_block_model,
    torus_grid,
)
from repro.state import counts_to_agents

N = 400
DYNAMICS = [
    ThreeMajority(),
    TwoChoices(),
    Voter(),
    MedianRule(),
    HMajority(5),
]


def _graph_chain(dynamics, graph, opinions, k, seed):
    """A lone chain on ``graph``: the graph engine with one row."""
    return BatchAgentEngine(
        dynamics, graph, opinions, num_replicas=1, num_opinions=k, seed=seed
    )


def _graphs(rng):
    return [
        CompleteGraph(N),
        random_regular(N, 10, seed=rng, self_loops=True),
        erdos_renyi(N, 0.05, seed=rng, self_loops=True),
        torus_grid(20, self_loops=True),
        core_periphery(40, N - 40, attachment=2, seed=rng),
    ]


@pytest.mark.parametrize("dynamics", DYNAMICS, ids=dynamics_id)
def test_converges_on_well_connected_graphs(dynamics, rng):
    budget = 60_000 if dynamics.name in ("voter", "2-choices") else 20_000
    for graph in _graphs(rng):
        opinions = counts_to_agents(
            np.asarray([N // 2, N - N // 2]), rng=rng, shuffle=True
        )
        engine = _graph_chain(dynamics, graph, opinions, 2, seed=rng)
        (result,) = engine.run_until_consensus(budget)
        assert result.converged, f"{dynamics.name} stuck on {graph!r}"
        assert result.final_counts.sum() == N


@pytest.mark.parametrize("dynamics", DYNAMICS, ids=dynamics_id)
def test_mass_conserved_on_cycle(dynamics, rng):
    graph = cycle_graph(60, self_loops=True)
    opinions = counts_to_agents(
        np.asarray([20, 20, 20]), rng=rng, shuffle=True
    )
    engine = _graph_chain(dynamics, graph, opinions, 3, seed=rng)
    for _ in range(50):
        engine.step()
        assert engine.counts.sum() == 60
        assert np.all(engine.counts >= 0)


def test_sbm_metastability_slows_two_choices(rng_factory):
    """[CNS19] shape: strong communities each reach internal agreement
    and then disagree across the cut far longer than a complete graph
    takes to finish outright."""
    half = 150
    complete_times = []
    sbm_times = []
    budget = 4000
    for seed in range(3):
        rng = rng_factory(seed)
        opinions = np.concatenate(
            [np.zeros(half, np.int64), np.ones(half, np.int64)]
        )
        sbm = stochastic_block_model(
            [half, half], p_in=0.2, p_out=0.002, seed=rng
        )
        engine = _graph_chain(TwoChoices(), sbm, opinions, 2, seed=rng)
        (result,) = engine.run_until_consensus(budget)
        sbm_times.append(result.rounds if result.converged else budget)
        complete = _graph_chain(
            TwoChoices(),
            CompleteGraph(2 * half),
            opinions.copy(),
            2,
            seed=rng_factory(100 + seed),
        )
        (result,) = complete.run_until_consensus(budget)
        complete_times.append(
            result.rounds if result.converged else budget
        )
    assert np.median(sbm_times) > 3 * np.median(complete_times)


def test_three_majority_expander_matches_complete_scaling(rng_factory):
    """Open question smoke: expander consensus times sit within a small
    factor of the complete graph at the same (n, k)."""
    k = 8
    times = {"expander": [], "complete": []}
    for seed in range(3):
        rng = rng_factory(seed)
        opinions = counts_to_agents(
            np.full(k, N // k, dtype=np.int64), rng=rng, shuffle=True
        )
        expander = random_regular(N, 12, seed=rng, self_loops=True)
        engine = _graph_chain(
            ThreeMajority(), expander, opinions, k, seed=rng
        )
        (result,) = engine.run_until_consensus(20_000)
        assert result.converged
        times["expander"].append(result.rounds)
        engine = _graph_chain(
            ThreeMajority(),
            CompleteGraph(N),
            opinions.copy(),
            k,
            seed=rng_factory(50 + seed),
        )
        (result,) = engine.run_until_consensus(20_000)
        assert result.converged
        times["complete"].append(result.rounds)
    ratio = np.median(times["expander"]) / np.median(times["complete"])
    assert ratio < 5.0


class TestDegenerateSystems:
    def test_single_opinion_immediate_consensus(self):
        engine = BatchPopulationEngine(
            ThreeMajority(), [7], num_replicas=1, seed=0
        )
        assert engine.all_consensus()
        (result,) = engine.run_until_consensus(10)
        assert result.rounds == 0

    def test_two_vertices(self):
        engine = BatchPopulationEngine(
            ThreeMajority(), [1, 1], num_replicas=1, seed=0
        )
        (result,) = engine.run_until_consensus(10_000)
        assert result.converged

    def test_validated_population_step_catches_bad_dynamics(self, rng):
        from repro.core.base import Dynamics
        from repro.errors import StateError

        class Leaky(Dynamics):
            name = "leaky"

            def population_step_batch(self, counts, rng):
                bad = counts.copy()
                bad[:, 0] += 1  # creates mass from nothing
                return bad

            def vertex_update(self, own, seen, rng):
                return own

        with pytest.raises(StateError):
            Leaky().validated_population_step(
                np.asarray([5, 5], dtype=np.int64), rng
            )
