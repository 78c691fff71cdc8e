"""Tests for vectorised adversaries on the batch-replica engine.

Two families of guarantees:

* **corrupt_batch contract (property-style)** — over a seeded sweep of
  random count matrices and budgets, every strategy's vectorised
  ``corrupt_batch`` conserves each row's mass, never exceeds the F
  budget, matches the per-row sequential ``corrupt`` law (exact multiset
  equality for the deterministic strategies), and the stalling
  strategies leave consensus rows untouched;
* **engine integration** — frozen rows are never corrupted, mass is
  conserved every round, per-row ``target`` masking stops rows
  independently, and a contract-violating adversary raises an explicit
  error (no ``assert``, so the check survives ``python -O``).

The adversarial stopping-round law itself is checked against an exact
small-chain oracle in ``tests/test_exact_distributions.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    Adversary,
    RandomCorruption,
    ReviveWeakest,
    SupportRunnerUp,
    enforce_corruption_contract_batch,
)
from repro.configs import balanced
from repro.core import ThreeMajority
from repro.engine import BatchPopulationEngine
from repro.errors import ConfigurationError, StateError

STRATEGIES = {
    "random": RandomCorruption,
    "runner-up": SupportRunnerUp,
    "revive-weakest": ReviveWeakest,
}


def _random_count_matrices(seed: int = 0, cases: int = 40):
    """Seeded stream of (R, k) count matrices with equal row mass."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        num_rows = int(rng.integers(1, 9))
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 500))
        alpha = rng.dirichlet(np.full(k, 0.5), size=num_rows)
        matrix = rng.multinomial(n, alpha)
        # Sprinkle in consensus and near-consensus rows.
        if rng.random() < 0.3:
            matrix[0] = 0
            matrix[0, int(rng.integers(k))] = n
        yield matrix.astype(np.int64)


class TestCorruptBatchProperties:
    """Property-style contract sweep for every strategy and budget."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES), ids=str)
    @pytest.mark.parametrize("budget", [0, 1, 7, 10_000])
    def test_mass_conserved_and_budget_respected(self, name, budget):
        adversary = STRATEGIES[name](budget)
        rng = np.random.default_rng(99)
        for matrix in _random_count_matrices(seed=budget + 1):
            corrupted = adversary.corrupt_batch(matrix.copy(), rng)
            assert corrupted.shape == matrix.shape
            assert (corrupted >= 0).all()
            # Row mass conserved...
            assert (
                corrupted.sum(axis=1) == matrix.sum(axis=1)
            ).all(), (name, budget)
            # ...and every row moved at most F vertices.
            moved = np.abs(corrupted - matrix).sum(axis=1) // 2
            assert (moved <= budget).all(), (name, budget)

    @pytest.mark.parametrize(
        "name", ["runner-up", "revive-weakest"], ids=str
    )
    def test_stalling_strategies_leave_consensus_rows_untouched(
        self, name
    ):
        adversary = STRATEGIES[name](25)
        rng = np.random.default_rng(3)
        consensus = np.zeros((4, 5), dtype=np.int64)
        consensus[np.arange(4), [0, 2, 4, 1]] = 300
        corrupted = adversary.corrupt_batch(consensus.copy(), rng)
        assert (corrupted == consensus).all()

    @pytest.mark.parametrize(
        "name", ["runner-up", "revive-weakest"], ids=str
    )
    def test_deterministic_strategies_match_sequential_rows(self, name):
        """Vectorised rows equal per-row corrupt up to tie relabelling."""
        for budget in (1, 5, 123):
            adversary = STRATEGIES[name](budget)
            rng = np.random.default_rng(7)
            for matrix in _random_count_matrices(seed=17 + budget):
                batched = adversary.corrupt_batch(matrix.copy(), rng)
                for row, brow in zip(matrix, batched):
                    srow = adversary.corrupt(row.copy(), rng)
                    # Ties may route the move to a different (equal)
                    # index; the resulting count multiset is identical.
                    assert sorted(brow) == sorted(srow), (
                        name,
                        budget,
                        row,
                    )

    def test_random_corruption_batch_matches_sequential_law(self):
        """Same first moment as the sequential sampler (10-sigma band)."""
        budget, reps = 60, 4000
        base = np.asarray([500, 300, 200], dtype=np.int64)
        adversary = RandomCorruption(budget)
        rng = np.random.default_rng(11)
        batched = adversary.corrupt_batch(
            np.tile(base, (reps, 1)), rng
        ).mean(axis=0)
        sequential = np.mean(
            [adversary.corrupt(base.copy(), rng) for _ in range(reps)],
            axis=0,
        )
        # Per-coordinate changes are bounded by the budget, so the
        # standard error of each mean is at most budget / sqrt(reps).
        tolerance = 10 * budget / np.sqrt(reps)
        assert np.abs(batched - sequential).max() < tolerance

    def test_base_class_row_loop_fallback(self):
        """Strategies without an override still run batched, per row."""

        class MoveOne(Adversary):
            def corrupt(self, counts, rng):
                new = counts.copy()
                if counts[0] > 0 and counts.size > 1:
                    new[0] -= 1
                    new[1] += 1
                return new

        matrix = np.asarray([[5, 5], [10, 0], [0, 10]], dtype=np.int64)
        corrupted = MoveOne(1).corrupt_batch(
            matrix, np.random.default_rng(0)
        )
        assert corrupted.tolist() == [[4, 6], [9, 1], [0, 10]]
        # The input matrix is never mutated by the fallback.
        assert matrix.tolist() == [[5, 5], [10, 0], [0, 10]]


class TestBatchContractEnforcement:
    def test_mass_violation_raises_explicitly(self):
        before = np.asarray([[50, 50], [60, 40]], dtype=np.int64)
        after = before.copy()
        after[1, 0] -= 1  # leak one vertex
        with pytest.raises(StateError, match="row 1"):
            enforce_corruption_contract_batch(before, after, 10)

    def test_budget_violation_raises_explicitly(self):
        before = np.asarray([[50, 50], [60, 40]], dtype=np.int64)
        after = before.copy()
        after[0] = [45, 55]
        with pytest.raises(ConfigurationError, match="exceeding"):
            enforce_corruption_contract_batch(before, after, 3)

    def test_negative_counts_raise(self):
        before = np.asarray([[2, 98]], dtype=np.int64)
        after = np.asarray([[-1, 101]], dtype=np.int64)
        with pytest.raises(StateError, match="negative"):
            enforce_corruption_contract_batch(before, after, 10)

    def test_in_place_mutating_corrupt_batch_still_detected(self):
        """A corrupt_batch mutating its input cannot dodge the check."""

        class InPlaceDrainer(Adversary):
            def corrupt(self, counts, rng):  # pragma: no cover
                return counts

            def corrupt_batch(self, counts, rng):
                counts[:, 0] += 5  # creates mass, in place
                return counts

        engine = BatchPopulationEngine(
            ThreeMajority(),
            balanced(1000, 4),
            num_replicas=3,
            seed=0,
            adversary=InPlaceDrainer(1),
        )
        with pytest.raises(StateError, match="mass"):
            engine.step()

    def test_cheating_adversary_detected_inside_engine(self):
        class Cheater(Adversary):
            def corrupt(self, counts, rng):
                new = counts.copy()
                move = min(self.budget + 5, int(new.max()))
                leader = int(new.argmax())
                new[leader] -= move
                new[(leader + 1) % new.size] += move
                return new

        engine = BatchPopulationEngine(
            ThreeMajority(),
            balanced(1000, 4),
            num_replicas=3,
            seed=0,
            adversary=Cheater(2),
        )
        with pytest.raises(ConfigurationError, match="exceeding"):
            engine.step()


class TestAdversarialEngineIntegration:
    @pytest.mark.parametrize("name", sorted(STRATEGIES), ids=str)
    def test_frozen_rows_never_corrupted(self, name):
        """Ledger invariant: a frozen row's counts never change again."""
        engine = BatchPopulationEngine(
            ThreeMajority(),
            balanced(400, 4),
            num_replicas=8,
            seed=21,
            adversary=STRATEGIES[name](2),
            target=lambda counts: counts.max() >= 392,
        )
        snapshots: dict[int, np.ndarray] = {}
        for _ in range(5000):
            engine.step()
            assert (engine.counts.sum(axis=1) == 400).all()
            for row, snap in snapshots.items():
                assert (engine.counts[row] == snap).all()
            for row in np.flatnonzero(engine.frozen):
                if int(row) not in snapshots:
                    snapshots[int(row)] = engine.counts[row].copy()
            if engine.all_consensus():
                break
        assert engine.all_consensus(), name

    def test_target_rows_stop_independently(self):
        target = lambda counts: counts.max() >= 380  # noqa: E731
        engine = BatchPopulationEngine(
            ThreeMajority(),
            balanced(400, 4),
            num_replicas=12,
            seed=5,
            target=target,
        )
        results = engine.run_until_consensus(100_000)
        rounds = {r.rounds for r in results}
        assert all(r.converged for r in results)
        assert all(target(r.final_counts) for r in results)
        # Independent chains almost surely stop at different rounds.
        assert len(rounds) > 1

    def test_vectorised_threshold_target_matches_plain_predicate(self):
        """A .batch-capable target stops exactly like its scalar form."""
        from repro.adversary import near_consensus_target

        vector_target = near_consensus_target(400, 5)  # threshold 380
        plain_target = lambda counts: int(counts.max()) >= 380  # noqa: E731
        fast = BatchPopulationEngine(
            ThreeMajority(),
            balanced(400, 4),
            num_replicas=10,
            seed=77,
            target=vector_target,
        )
        slow = BatchPopulationEngine(
            ThreeMajority(),
            balanced(400, 4),
            num_replicas=10,
            seed=77,
            target=plain_target,
        )
        fast_results = fast.run_until_consensus(100_000)
        slow_results = slow.run_until_consensus(100_000)
        assert [r.rounds for r in fast_results] == [
            r.rounds for r in slow_results
        ]

    def test_target_frozen_at_start(self):
        engine = BatchPopulationEngine(
            ThreeMajority(),
            balanced(400, 4),
            num_replicas=3,
            seed=0,
            target=lambda counts: True,
        )
        assert engine.frozen.all()
        results = engine.run_until_consensus(10)
        assert all(r.converged and r.rounds == 0 for r in results)

