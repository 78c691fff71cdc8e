"""Tests for a lone chain on each engine: the engines with one row."""

from __future__ import annotations

import numpy as np
import pytest

from repro.configs import balanced, two_block
from repro.core import ThreeMajority, TwoChoices, Voter
from repro.engine import (
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
)
from repro.errors import ConfigurationError, StateError
from repro.graphs import CompleteGraph, cycle_graph
from repro.state import counts_to_agents


def _population_chain(dynamics, counts, seed):
    return BatchPopulationEngine(dynamics, counts, num_replicas=1, seed=seed)


class TestPopulationEngine:
    """A lone chain on the ``population`` engine: ``batch``, one row."""

    def test_initial_state(self):
        engine = _population_chain(ThreeMajority(), [10, 20, 30], seed=0)
        assert engine.num_vertices == 60
        assert engine.num_opinions == 3
        assert engine.round_index == 0
        assert engine.alive[0] == 3
        assert not engine.frozen[0]
        assert engine.results()[0].winner is None

    def test_input_not_aliased(self):
        counts = np.asarray([30, 30], dtype=np.int64)
        engine = _population_chain(ThreeMajority(), counts, seed=0)
        engine.step()
        assert counts.tolist() == [30, 30]

    def test_step_advances_round(self):
        engine = _population_chain(ThreeMajority(), [50, 50], seed=0)
        engine.step()
        assert engine.round_index == 1
        assert engine.counts.sum() == 100

    def test_run_fixed_rounds(self):
        engine = _population_chain(Voter(), [500, 500], seed=0)
        for _ in range(10):
            engine.step()
        assert engine.round_index == 10

    def test_alpha_and_gamma(self):
        engine = _population_chain(ThreeMajority(), [25, 75], seed=0)
        assert engine.alpha[0].tolist() == [0.25, 0.75]
        assert engine.gamma[0] == pytest.approx(0.0625 + 0.5625)

    def test_consensus_and_winner(self):
        engine = _population_chain(ThreeMajority(), [0, 7], seed=0)
        assert engine.all_consensus()
        assert engine.results()[0].winner == 1

    def test_rejects_bad_counts(self):
        with pytest.raises(StateError):
            _population_chain(ThreeMajority(), [-1, 2], seed=0)

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            engine = _population_chain(
                ThreeMajority(), balanced(1000, 10), seed=77
            )
            for _ in range(20):
                engine.step()
            runs.append(engine.counts.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_reaches_consensus_eventually(self):
        engine = _population_chain(
            ThreeMajority(), balanced(2000, 8), seed=5
        )
        (result,) = engine.run_until_consensus(5000)
        assert result.converged
        assert engine.all_consensus()


class TestAgentEngine:
    """A lone chain on the ``agent`` engine: ``agent-batch``, one row."""

    def test_requires_matching_sizes(self):
        with pytest.raises(ConfigurationError, match="vertices"):
            BatchAgentEngine(
                ThreeMajority(),
                CompleteGraph(5),
                np.zeros(4, dtype=np.int64),
                num_replicas=1,
            )

    def test_counts_view(self):
        opinions = np.asarray([0, 1, 1, 2], dtype=np.int64)
        engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(4),
            opinions,
            num_replicas=1,
            num_opinions=4,
        )
        assert engine.counts[0].tolist() == [1, 2, 1, 0]
        assert engine.num_opinions == 4

    def test_num_opinions_inferred(self):
        opinions = np.asarray([0, 3], dtype=np.int64)
        engine = BatchAgentEngine(
            ThreeMajority(), CompleteGraph(2), opinions, num_replicas=1
        )
        assert engine.num_opinions == 4

    def test_step_and_round(self):
        engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(50),
            counts_to_agents(balanced(50, 5)),
            num_replicas=1,
            seed=0,
        )
        engine.step()
        assert engine.round_index == 1
        assert engine.counts.sum() == 50

    def test_consensus_on_cycle(self):
        """Dynamics work on sparse graphs too (slower, but correct)."""
        graph = cycle_graph(30, self_loops=True)
        engine = BatchAgentEngine(
            TwoChoices(),
            graph,
            counts_to_agents(np.asarray([15, 15])),
            num_replicas=1,
            seed=3,
        )
        (result,) = engine.run_until_consensus(20_000)
        assert result.converged
        assert engine.all_consensus()

    def test_gamma_alpha_alive(self):
        engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(4),
            np.asarray([0, 0, 1, 1], dtype=np.int64),
            num_replicas=1,
            num_opinions=2,
        )
        assert engine.alive[0] == 2
        assert engine.gamma[0] == pytest.approx(0.5)
        assert engine.alpha[0].tolist() == [0.5, 0.5]


class TestAsyncChain:
    """A lone asynchronous chain: the async engine with one row."""

    @staticmethod
    def _chain(dynamics, counts, seed):
        return AsyncBatchPopulationEngine(
            dynamics, counts, num_replicas=1, seed=seed
        )

    def test_one_tick_moves_at_most_one(self):
        engine = self._chain(ThreeMajority(), [50, 50], seed=0)
        before = engine.counts.copy()
        engine.step()
        moved = np.abs(engine.counts - before).sum()
        assert moved in (0, 2)
        assert engine.tick_index == 1

    def test_round_index_fractional(self):
        engine = self._chain(ThreeMajority(), [5, 5], seed=0)
        engine.run_ticks(5)
        assert engine.round_index == pytest.approx(0.5)

    def test_run_until_consensus(self):
        engine = self._chain(ThreeMajority(), balanced(200, 4), seed=1)
        (result,) = engine.run_until_consensus(2_000_000)
        assert result.converged
        assert engine.all_consensus()
        assert result.winner is not None
        assert result.metrics["ticks"] == engine.consensus_ticks[0]

    def test_budget_exhaustion_censors(self):
        engine = self._chain(ThreeMajority(), balanced(1000, 500), seed=1)
        (result,) = engine.run_until_consensus(3)
        assert not result.converged
        assert result.metrics["ticks"] == 3

    def test_already_consensus(self):
        engine = self._chain(ThreeMajority(), [0, 10], seed=0)
        (result,) = engine.run_until_consensus(100)
        assert result.converged
        assert result.metrics["ticks"] == 0

    def test_mass_conserved_across_ticks(self):
        engine = self._chain(ThreeMajority(), balanced(300, 7), seed=4)
        engine.run_ticks(500)
        assert engine.counts.sum() == 300
        assert np.all(engine.counts >= 0)

    def test_async_matches_sync_scaling(self):
        """ticks/n should be within a constant factor of sync rounds."""
        sync_rounds = []
        async_rounds = []
        for seed in range(3):
            sync = _population_chain(
                ThreeMajority(), two_block(400, 4, 0.5), seed=seed
            )
            (result,) = sync.run_until_consensus(10_000)
            sync_rounds.append(result.rounds)
            asy = self._chain(
                ThreeMajority(), two_block(400, 4, 0.5), seed=seed
            )
            (result,) = asy.run_until_consensus(10_000_000)
            async_rounds.append(result.metrics["ticks"] / 400)
        ratio = np.median(async_rounds) / max(np.median(sync_rounds), 1)
        assert 0.1 < ratio < 10.0
