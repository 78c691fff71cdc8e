"""Tests for the F-bounded adversary substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    RandomCorruption,
    ReviveWeakest,
    SupportRunnerUp,
    available_adversaries,
    enforce_corruption_contract_batch,
    make_adversary,
    near_consensus_target,
    near_consensus_threshold,
)
from repro.adversary.base import Adversary
from repro.configs import balanced, two_block
from repro.core import ThreeMajority
from repro.engine import BatchAgentEngine, BatchPopulationEngine
from repro.errors import ConfigurationError, StateError
from repro.graphs.complete import CompleteGraph
from repro.state import counts_to_agents


class TestStrategies:
    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            RandomCorruption(-1)

    @pytest.mark.parametrize(
        "adversary",
        [RandomCorruption(5), SupportRunnerUp(5), ReviveWeakest(5)],
        ids=["random", "runner-up", "revive"],
    )
    def test_mass_conserved(self, adversary, rng):
        counts = np.asarray([40, 30, 20, 10], dtype=np.int64)
        new = adversary.corrupt(counts, rng)
        assert new.sum() == 100
        assert np.all(new >= 0)

    @pytest.mark.parametrize(
        "adversary",
        [RandomCorruption(5), SupportRunnerUp(5), ReviveWeakest(5)],
        ids=["random", "runner-up", "revive"],
    )
    def test_budget_respected(self, adversary, rng):
        counts = np.asarray([40, 30, 20, 10], dtype=np.int64)
        new = adversary.corrupt(counts, rng)
        moved = int(np.abs(new - counts).sum()) // 2
        assert moved <= 5

    def test_zero_budget_noop(self, rng):
        counts = np.asarray([40, 60], dtype=np.int64)
        for adversary in (
            RandomCorruption(0),
            SupportRunnerUp(0),
            ReviveWeakest(0),
        ):
            assert np.array_equal(adversary.corrupt(counts, rng), counts)

    def test_support_runner_up_direction(self, rng):
        counts = np.asarray([70, 20, 10], dtype=np.int64)
        new = SupportRunnerUp(8).corrupt(counts, rng)
        assert new[0] < 70
        assert new[1] > 20
        assert new[2] == 10

    def test_support_runner_up_never_overtakes(self, rng):
        counts = np.asarray([52, 48], dtype=np.int64)
        new = SupportRunnerUp(100).corrupt(counts, rng)
        assert new[0] >= new[1]

    def test_support_runner_up_at_consensus_noop(self, rng):
        counts = np.asarray([0, 100], dtype=np.int64)
        assert np.array_equal(
            SupportRunnerUp(10).corrupt(counts, rng), counts
        )

    def test_revive_weakest_direction(self, rng):
        counts = np.asarray([70, 20, 10], dtype=np.int64)
        new = ReviveWeakest(5).corrupt(counts, rng)
        assert new[2] == 15
        assert new[0] == 65

    def test_revive_weakest_ignores_dead(self, rng):
        counts = np.asarray([70, 0, 30], dtype=np.int64)
        new = ReviveWeakest(5).corrupt(counts, rng)
        assert new[1] == 0  # dead opinions are not resurrected

    def test_random_corruption_spreads(self, rng):
        counts = np.asarray([1000, 0, 0, 0], dtype=np.int64)
        new = RandomCorruption(400).corrupt(counts, rng)
        # Victims are re-assigned uniformly, so other opinions appear.
        assert (new[1:] > 0).any()


class TestAdversaryRegistry:
    def test_known_names_resolve(self):
        assert isinstance(
            make_adversary("random", 3), RandomCorruption
        )
        assert isinstance(
            make_adversary("runner-up", 3), SupportRunnerUp
        )
        assert isinstance(
            make_adversary("support-runner-up", 3), SupportRunnerUp
        )
        assert isinstance(
            make_adversary("revive-weakest", 3), ReviveWeakest
        )

    def test_instance_passthrough(self):
        adversary = SupportRunnerUp(5)
        assert make_adversary(adversary) is adversary
        assert make_adversary(adversary, 5) is adversary
        with pytest.raises(ConfigurationError, match="conflicts"):
            make_adversary(adversary, 6)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="revive-weakest"):
            make_adversary("gremlin", 1)

    def test_name_requires_budget(self):
        with pytest.raises(ConfigurationError, match="budget"):
            make_adversary("random")

    def test_available_names(self):
        names = available_adversaries()
        assert {"random", "runner-up", "revive-weakest"} <= set(names)


class TestNearConsensusConvention:
    """The shared n - 4F (majority-floored) agreement threshold."""

    def test_zero_budget_is_strict_consensus(self):
        assert near_consensus_threshold(1000, 0) == 1000

    def test_small_budget_is_n_minus_4f(self):
        assert near_consensus_threshold(1000, 10) == 960

    def test_large_budget_floored_at_strict_majority(self):
        # n - 4F = 200 would be satisfied by a balanced 2-way tie,
        # reporting the strongest adversaries as instant successes.
        assert near_consensus_threshold(1000, 200) == 501
        assert near_consensus_threshold(1000, 10_000) == 501

    def test_target_predicate_matches_threshold(self):
        target = near_consensus_target(1000, 10)
        assert target(np.asarray([960, 40]))
        assert not target(np.asarray([959, 41]))

    def test_target_batch_evaluation_matches_per_row(self):
        target = near_consensus_target(100, 5)
        rows = np.asarray([[80, 20], [79, 21], [100, 0], [50, 50]])
        batched = target.batch(rows)
        assert batched.tolist() == [target(row) for row in rows]

    def test_targets_with_equal_thresholds_compare_equal(self):
        assert near_consensus_target(1000, 10) == near_consensus_target(
            1000, 10
        )
        assert near_consensus_target(1000, 10) != near_consensus_target(
            1000, 11
        )


def _population_chain(counts, seed, adversary):
    return BatchPopulationEngine(
        ThreeMajority(),
        counts,
        num_replicas=1,
        seed=seed,
        adversary=adversary,
    )


class TestCorruptionContract:
    """The contract is an explicit raise — it survives ``python -O``.

    Checked on one replica row, the form every engine checks it in.
    """

    @staticmethod
    def _check(before, after, budget):
        return enforce_corruption_contract_batch(
            np.asarray([before], dtype=np.int64),
            np.asarray([after], dtype=np.int64),
            budget,
        )[0]

    def test_valid_corruption_passes(self):
        checked = self._check([40, 60], [43, 57], 3)
        assert checked.tolist() == [43, 57]

    def test_budget_violation_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="exceeding"):
            self._check([40, 60], [45, 55], 3)

    def test_mass_violation_is_state_error(self):
        with pytest.raises(StateError, match="mass"):
            self._check([40, 60], [40, 59], 3)


class TestUnifiedEngineAdversaries:
    """All engines accept an adversary and enforce its contract."""

    def test_population_engine_interleaves_corruption(self):
        engine = _population_chain(
            two_block(1000, 4, 0.6), seed=0, adversary=ReviveWeakest(3)
        )
        engine.step()
        assert engine.round_index == 1
        assert engine.counts.sum() == 1000

    def test_population_engine_detects_cheater(self):
        class Cheater(Adversary):
            def corrupt(self, counts, rng):
                new = counts.copy()
                move = min(self.budget + 5, int(new[0]))
                new[0] -= move
                new[1] += move
                return new

        engine = _population_chain([500, 500], seed=0, adversary=Cheater(2))
        with pytest.raises(ConfigurationError, match="exceeding"):
            engine.step()

    def test_agent_engine_lifts_count_corruption_onto_vertices(self):
        n, k = 300, 3
        counts = balanced(n, k)
        rng = np.random.default_rng(0)
        engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(n),
            counts_to_agents(counts, rng=rng, shuffle=True),
            num_replicas=1,
            num_opinions=k,
            seed=rng,
            adversary=SupportRunnerUp(5),
        )
        for _ in range(20):
            engine.step()
            after = engine.counts
            assert after.sum() == n
            assert (after >= 0).all()
        assert engine.round_index == 20

    def test_agent_engine_detects_cheater(self):
        class Cheater(Adversary):
            def corrupt(self, counts, rng):
                new = counts.copy()
                move = min(self.budget + 5, int(new.max()))
                leader = int(new.argmax())
                new[leader] -= move
                new[(leader + 1) % new.size] += move
                return new

        n = 100
        engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(n),
            counts_to_agents(balanced(n, 2)),
            num_replicas=1,
            num_opinions=2,
            seed=0,
            adversary=Cheater(1),
        )
        with pytest.raises(ConfigurationError, match="exceeding"):
            engine.step()

    def test_in_place_mutating_cheater_still_detected(self):
        """A corrupt() that mutates its input cannot dodge the contract."""

        class InPlaceDrainer(Adversary):
            def corrupt(self, counts, rng):
                counts[counts.argmax()] -= 50  # destroys mass, in place
                return counts

        engine = _population_chain(
            balanced(1000, 4), seed=0, adversary=InPlaceDrainer(1)
        )
        with pytest.raises(StateError, match="mass"):
            engine.step()
        # The engine's own state was never corrupted by the attempt.
        assert engine.counts.sum() == 1000

    def test_no_adversary_stream_untouched(self):
        """adversary=None must not perturb the seed stream."""
        counts = balanced(500, 4)
        plain = BatchPopulationEngine(
            ThreeMajority(), counts, num_replicas=1, seed=9
        )
        explicit = _population_chain(counts, seed=9, adversary=None)
        for _ in range(10):
            plain.step()
            explicit.step()
        assert (plain.counts == explicit.counts).all()


class TestAdversarialPopulationChain:
    """The corrupted population chain, end to end."""

    def test_mass_violation_detected(self):
        class Leaker(Adversary):
            def corrupt(self, counts, rng):
                new = counts.copy()
                new[0] = max(new[0] - 1, 0)
                return new

        engine = _population_chain([500, 500], seed=0, adversary=Leaker(5))
        with pytest.raises(StateError, match="mass"):
            engine.step()

    def test_zero_budget_reaches_consensus(self):
        engine = _population_chain(
            balanced(1000, 4), seed=1, adversary=SupportRunnerUp(0)
        )
        (result,) = engine.run_until_consensus(5000)
        assert result.converged
        assert result.winner is not None

    def test_large_budget_stalls(self):
        """A budget ~n/8 per round pins the top two together."""
        engine = _population_chain(
            balanced(800, 2), seed=2, adversary=SupportRunnerUp(100)
        )
        (result,) = engine.run_until_consensus(2000)
        assert not result.converged
        assert engine.round_index == 2000

    def test_small_budget_still_converges_nearly(self):
        """F = 1 cannot stop the leader from taking all but O(1)."""
        engine = BatchPopulationEngine(
            ThreeMajority(),
            two_block(2000, 4, 0.5),
            num_replicas=1,
            seed=3,
            adversary=SupportRunnerUp(1),
            target=lambda counts: counts.max() >= 2000 - 4,
        )
        (result,) = engine.run_until_consensus(4000)
        assert result.converged
        assert result.final_counts.max() >= 2000 - 4
