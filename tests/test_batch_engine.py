"""Tests for the vectorised batch-replica engine.

Ledger-style guarantees, mirroring the invariant suites used for
stateful simulators: per-replica mass is conserved every round, the
round index is bounded and monotone, frozen rows never change again,
and recorded consensus rounds are final.  The consensus-round law
itself is checked against an exact small-chain oracle in
``tests/test_exact_distributions.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from dynamics_ids import dynamics_id
from repro.configs import balanced, zipf
from repro.core import (
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    Voter,
)
from repro.engine import (
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
)
from repro.errors import ConfigurationError, StateError
from repro.graphs.complete import CompleteGraph


#: One constructor per batch engine, taking the start and num_replicas.
_BATCH_ENGINES = {
    "batch": lambda start, num_replicas: BatchPopulationEngine(
        ThreeMajority(), start, num_replicas=num_replicas
    ),
    "agent-batch": lambda start, num_replicas: BatchAgentEngine(
        ThreeMajority(),
        CompleteGraph(start.shape[-1]),
        start,
        num_replicas=num_replicas,
    ),
    "async-batch": lambda start, num_replicas: AsyncBatchPopulationEngine(
        ThreeMajority(), start, num_replicas=num_replicas
    ),
}


class TestConstruction:
    @pytest.mark.parametrize(
        "shape,num_replicas",
        [((0, 10), None), ((0, 10), 0), ((10,), 0)],
        ids=["no-rows", "no-rows-zero-replicas", "vector-zero-replicas"],
    )
    @pytest.mark.parametrize("engine", sorted(_BATCH_ENGINES))
    def test_rejects_zero_replicas(self, engine, shape, num_replicas):
        # Unchecked, a (0, width) start escapes as numpy's "need at
        # least one array to stack" ValueError.  np.ones(10) is a valid
        # start for every engine: ten opinions of one vertex each as
        # counts, all ten vertices on opinion 1 as opinions.
        start = np.ones(shape, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="replica"):
            _BATCH_ENGINES[engine](start, num_replicas)

    def test_tile_from_single_configuration(self):
        engine = BatchPopulationEngine(
            ThreeMajority(), balanced(100, 4), num_replicas=5, seed=0
        )
        assert engine.counts.shape == (5, 4)
        assert (engine.counts.sum(axis=1) == 100).all()

    def test_matrix_start(self):
        matrix = np.stack([balanced(60, 3), zipf(60, 3)])
        engine = BatchPopulationEngine(TwoChoices(), matrix, seed=0)
        assert engine.num_replicas == 2
        assert engine.num_vertices == 60

    def test_requires_num_replicas_for_vector(self):
        with pytest.raises(ConfigurationError, match="num_replicas"):
            BatchPopulationEngine(ThreeMajority(), balanced(100, 4))

    def test_rejects_replica_count_mismatch(self):
        matrix = np.stack([balanced(60, 3)] * 2)
        with pytest.raises(ConfigurationError, match="rows"):
            BatchPopulationEngine(
                ThreeMajority(), matrix, num_replicas=3
            )

    def test_rejects_unequal_mass_rows(self):
        matrix = np.asarray([[50, 50], [60, 50]])
        with pytest.raises(ConfigurationError, match="total mass"):
            BatchPopulationEngine(ThreeMajority(), matrix)

    def test_rejects_3d_counts(self):
        with pytest.raises(ConfigurationError, match="shape"):
            BatchPopulationEngine(
                ThreeMajority(), np.ones((2, 2, 2), dtype=np.int64)
            )

    def test_consensus_start_is_frozen_immediately(self):
        engine = BatchPopulationEngine(
            ThreeMajority(),
            np.asarray([100, 0, 0]),
            num_replicas=3,
            seed=0,
        )
        assert engine.frozen.all()
        results = engine.run_until_consensus(10)
        assert all(r.converged and r.rounds == 0 for r in results)
        assert all(r.winner == 0 for r in results)


class TestConservationLedger:
    """SNIPPETS-style strict invariants, checked after every round."""

    @pytest.mark.parametrize(
        "dynamics",
        [
            ThreeMajority(),
            TwoChoices(),
            Voter(),
            HMajority(5),
            MedianRule(),
        ],
        ids=dynamics_id,
    )
    def test_stepwise_invariants(self, dynamics):
        engine = BatchPopulationEngine(
            dynamics, balanced(200, 6), num_replicas=8, seed=42
        )
        n = engine.num_vertices
        prev_round = engine.round_index
        prev_frozen = engine.frozen.copy()
        frozen_snapshots: dict[int, np.ndarray] = {}
        # Budget covers the Voter baseline too, which needs Theta(n)
        # rounds rather than the paper dynamics' polylog-ish times.
        for _ in range(5000):
            engine.step()
            # 1. Mass conserved in every replica row, every round.
            assert (engine.counts.sum(axis=1) == n).all()
            # 2. Counts stay within [0, n].
            assert (engine.counts >= 0).all()
            assert (engine.counts <= n).all()
            # 3. Round index is monotone, advancing by exactly one.
            assert engine.round_index == prev_round + 1
            prev_round = engine.round_index
            # 4. Frozen is monotone: a frozen row never thaws...
            assert (engine.frozen | ~prev_frozen).all()
            # ...and its counts never change again.
            for row, snapshot in frozen_snapshots.items():
                assert (engine.counts[row] == snapshot).all()
            for row in np.flatnonzero(engine.frozen & ~prev_frozen):
                frozen_snapshots[int(row)] = engine.counts[row].copy()
            # 5. Consensus rounds are recorded exactly for frozen rows.
            assert (engine.consensus_rounds[engine.frozen] >= 0).all()
            assert (
                engine.consensus_rounds[engine.frozen]
                <= engine.round_index
            ).all()
            assert (engine.consensus_rounds[~engine.frozen] == -1).all()
            prev_frozen = engine.frozen.copy()
            if engine.all_consensus():
                break
        assert engine.all_consensus(), (
            f"{dynamics.name} batch did not finish within the budget"
        )

    def test_results_report_recorded_consensus_rounds(self):
        engine = BatchPopulationEngine(
            ThreeMajority(), balanced(400, 4), num_replicas=6, seed=7
        )
        results = engine.run_until_consensus(100_000)
        assert len(results) == 6
        for r, recorded in zip(results, engine.consensus_rounds):
            assert r.converged
            assert r.rounds == recorded
            assert r.winner is not None
            assert r.final_counts[r.winner] == 400

    def test_budget_censoring(self):
        engine = BatchPopulationEngine(
            TwoChoices(), balanced(4096, 512), num_replicas=4, seed=0
        )
        results = engine.run_until_consensus(2)
        assert engine.round_index == 2
        assert all(not r.converged for r in results)
        assert all(r.rounds == 2 and r.winner is None for r in results)

    def test_negative_budget_rejected(self):
        engine = BatchPopulationEngine(
            ThreeMajority(), balanced(100, 2), num_replicas=2, seed=0
        )
        with pytest.raises(ConfigurationError, match="non-negative"):
            engine.run_until_consensus(-1)


class TestDistributionalEquivalence:
    """Symmetry of the batched sampler at a size no oracle enumerates."""

    def test_winner_distribution_uniform_from_balanced(self):
        # From an exactly balanced start every opinion is equally likely
        # to win; a grossly skewed histogram would betray a bias in the
        # batched sampler (e.g. favouring low indices).
        engine = BatchPopulationEngine(
            ThreeMajority(), balanced(512, 4), num_replicas=400, seed=9
        )
        results = engine.run_until_consensus(100_000)
        histogram = np.bincount(
            [r.winner for r in results], minlength=4
        )
        assert histogram.sum() == 400
        # Expected 100 per bin; 5-sigma band for Binomial(400, 1/4).
        assert (np.abs(histogram - 100) < 5 * np.sqrt(400 * 0.25 * 0.75)).all()


class TestBatchMultinomialErrors:
    def test_bad_row_reported_with_shape_and_dynamics(self):
        from repro.core import batch_multinomial_counts

        rng = np.random.default_rng(0)
        probabilities = np.asarray([[0.5, 0.5], [0.9, 0.3]])
        with pytest.raises(StateError) as excinfo:
            batch_multinomial_counts(
                np.asarray([10, 10]), probabilities, rng, "3-majority"
            )
        message = str(excinfo.value)
        assert "row 1" in message
        assert "(2, 2)" in message
        assert "3-majority" in message
