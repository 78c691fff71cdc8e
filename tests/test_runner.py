"""Tests for run control on a lone chain: run_until_consensus, the
spec budget policy, and recording rounds through ``record_hook``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.configs import balanced
from repro.core import ThreeMajority, Voter
from repro.engine import BatchPopulationEngine, TrajectoryRecorder
from repro.engine.batch import engine_from_spec, run_to_budget
from repro.errors import ConfigurationError, ConsensusNotReached
from repro.simulation import SimulationSpec


def _chain(dynamics, counts, seed=0, **kwargs):
    return BatchPopulationEngine(
        dynamics, counts, num_replicas=1, seed=seed, **kwargs
    )


def _recorded_run(recorder, dynamics, counts, max_rounds):
    """Run a one-row chain with ``recorder`` fed from ``record_hook``."""
    engine = _chain(
        dynamics,
        counts,
        record_hook=lambda i, rows, _: recorder.observe(i, rows[0]),
    )
    recorder.observe(0, engine.counts[0])
    (result,) = engine.run_until_consensus(max_rounds)
    return result


class TestRunUntilConsensus:
    def test_converges_and_reports(self):
        engine = _chain(ThreeMajority(), balanced(1000, 5))
        (result,) = engine.run_until_consensus(5000)
        assert result.converged
        assert result.consensus_time == result.rounds
        assert result.winner in range(5)
        assert result.final_counts.max() == 1000

    def test_budget_returns_unconverged(self):
        engine = _chain(ThreeMajority(), balanced(10_000, 100))
        (result,) = engine.run_until_consensus(2)
        assert not result.converged
        assert result.consensus_time is None
        assert result.rounds == 2
        assert result.winner is None

    def test_budget_raise_mode(self):
        spec = SimulationSpec(
            n=10_000, k=100, max_rounds=2, on_budget="raise"
        )
        with pytest.raises(ConsensusNotReached):
            run_to_budget(engine_from_spec(spec), spec)

    def test_bad_on_budget(self):
        with pytest.raises(ConfigurationError):
            SimulationSpec(counts=[5, 5], on_budget="explode")

    def test_negative_budget(self):
        engine = _chain(ThreeMajority(), [5, 5])
        with pytest.raises(ConfigurationError):
            engine.run_until_consensus(-1)

    def test_already_at_consensus(self):
        engine = _chain(ThreeMajority(), [0, 10])
        (result,) = engine.run_until_consensus(100)
        assert result.converged
        assert result.rounds == 0
        assert result.winner == 1

    def test_custom_target(self):
        engine = _chain(
            ThreeMajority(),
            balanced(1000, 4),
            target=lambda c: c.max() >= 600,
        )
        (result,) = engine.run_until_consensus(5000)
        assert result.converged
        assert result.final_counts.max() >= 600

    def test_record_hook_sees_every_round(self):
        seen = []
        engine = _chain(
            ThreeMajority(),
            balanced(500, 4),
            record_hook=lambda i, counts, frozen: seen.append(i),
        )
        (result,) = engine.run_until_consensus(5000)
        assert seen == list(range(1, result.rounds + 1))

    def test_final_counts_is_copy(self):
        engine = _chain(ThreeMajority(), [0, 10])
        (result,) = engine.run_until_consensus(1)
        result.final_counts[0] = 99
        assert engine.counts[0, 0] == 0


class TestTrajectoryRecorder:
    def test_records_gamma_and_alive(self):
        recorder = TrajectoryRecorder()
        result = _recorded_run(
            recorder, ThreeMajority(), balanced(500, 4), 5000
        )
        arrays = recorder.as_arrays()
        assert arrays["round"].size == result.rounds + 1
        assert arrays["gamma"][0] == pytest.approx(0.25)
        assert arrays["gamma"][-1] == pytest.approx(1.0)
        assert arrays["alive"][-1] == 1

    def test_bias_and_max_alpha(self):
        recorder = TrajectoryRecorder(
            record_max_alpha=True, bias_pair=(0, 1)
        )
        _recorded_run(recorder, ThreeMajority(), [60, 40], 1)
        arrays = recorder.as_arrays()
        assert arrays["bias"][0] == pytest.approx(0.2)
        assert arrays["max_alpha"][0] == pytest.approx(0.6)

    def test_snapshots_stride(self):
        recorder = TrajectoryRecorder(counts_stride=2)
        engine = _chain(Voter(), balanced(100, 3))
        for _ in range(5):
            recorder.observe(engine.round_index, engine.counts[0])
            engine.step()
        rounds = [r for r, _ in recorder.snapshots]
        assert rounds == [0, 2, 4]

    def test_snapshots_are_copies_of_the_live_row(self):
        recorder = TrajectoryRecorder(counts_stride=1)
        result = _recorded_run(recorder, Voter(), balanced(100, 3), 20)
        first_round, first_counts = recorder.snapshots[0]
        assert first_round == 0
        assert first_counts.tolist() == balanced(100, 3).tolist()
        assert recorder.snapshots[-1][1].tolist() == (
            result.final_counts.tolist()
        )


class TestRunResultMetrics:
    def test_metrics_dict_attachable(self):
        engine = _chain(ThreeMajority(), [0, 5])
        (result,) = engine.run_until_consensus(1)
        result.metrics["note"] = np.asarray([1, 2])
        assert "note" in result.metrics
