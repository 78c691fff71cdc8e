"""Tests for the asynchronous engine (``async-batch``, also ``async``).

Mirrors the guarantees of the synchronous batch-engine suite:

* **one engine, two names** — ``async`` and ``async-batch`` return the
  same results at a seed, and the tick is each dynamics' own
  ``vertex_update`` (the tick laws themselves are checked against
  exact small-chain oracles in ``test_exact_distributions.py``);
* **ledger integrity** — per-row mass conservation every tick, frozen
  rows never change, recorded consensus ticks are final, and the
  active-row masking edge cases (R = 1, all-frozen-at-start, budget
  exhaustion under ``on_budget="raise"``) behave;
* **helper contracts** — the integer-exact holder sampler.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adversary import SupportRunnerUp
from repro.configs import balanced
from repro.core import (
    Dynamics,
    ThreeMajority,
    UndecidedStateDynamics,
    sample_holders_batch,
)
from repro.engine import (
    AsyncBatchPopulationEngine,
    available_engines,
    get_engine,
)
from repro.errors import ConfigurationError, ConsensusNotReached
from repro.simulation import SimulationSpec, execute


class TestOneAsyncEngine:
    @pytest.mark.parametrize("adversary", [None, "runner-up"])
    def test_async_returns_what_async_batch_returns(self, adversary):
        # The budget censors some rows, so the comparison covers
        # converged and censored rows alike.
        def run(engine):
            return execute(
                SimulationSpec(
                    n=48,
                    k=3,
                    engine=engine,
                    replicas=6,
                    seed=13,
                    adversary=adversary,
                    adversary_budget=1 if adversary else None,
                    max_rounds=10,
                )
            )

        expected, actual = run("async-batch"), run("async")
        assert len(actual) == len(expected) == 6
        for a, b in zip(actual, expected):
            assert a.converged == b.converged
            assert a.rounds == b.rounds
            assert a.winner == b.winner
            assert a.final_counts.tolist() == b.final_counts.tolist()
            assert a.metrics["ticks"] == b.metrics["ticks"]

    def test_dynamics_without_vertex_update_cannot_be_built(self):
        # The tick is derived from vertex_update, which is abstract: a
        # dynamics without a rule fails at construction, before any
        # engine can tick it.
        class SyncOnly(Dynamics):
            def population_step_batch(self, counts, rng):
                return counts

        with pytest.raises(TypeError, match="vertex_update"):
            SyncOnly()

    def test_tick_applies_the_dynamics_rule(self):
        # A rule that always picks the empty label 1 moves exactly one
        # vertex per row to it, whatever the neighbours hold.
        class ToOne(ThreeMajority):
            def vertex_update(self, own, seen, rng):
                assert seen.shape == (3,) + own.shape
                return np.ones_like(own)

        engine = AsyncBatchPopulationEngine(
            ToOne(), np.asarray([10, 0, 10]), num_replicas=3, seed=0
        )
        engine.step()
        assert (engine.counts[:, 1] == 1).all()
        assert (engine.counts.sum(axis=1) == 20).all()

    def test_usd_tick_reads_the_bound_undecided_label(self):
        # The engine binds the opinion space, so the tick's rule reads
        # the last column as undecided; stepped directly, an unbound USD
        # raises rather than guess.
        dynamics = UndecidedStateDynamics()
        AsyncBatchPopulationEngine(
            dynamics, np.asarray([3, 3, 0]), num_replicas=1, seed=0
        )
        assert dynamics.num_decided == 2
        with pytest.raises(ConfigurationError, match="num_decided"):
            UndecidedStateDynamics().async_population_step_batch(
                np.asarray([[3, 3, 0]]), np.random.default_rng(0)
            )


class TestDistributionalEquivalence:
    def test_winner_distribution_uniform_from_balanced(self):
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(), balanced(64, 4), num_replicas=400, seed=9
        )
        results = engine.run_until_consensus(10_000_000)
        histogram = np.bincount(
            [r.winner for r in results], minlength=4
        )
        assert histogram.sum() == 400
        # Expected 100 per bin; 5-sigma band for Binomial(400, 1/4).
        assert (
            np.abs(histogram - 100) < 5 * np.sqrt(400 * 0.25 * 0.75)
        ).all()


class TestLedger:
    @pytest.mark.parametrize("num_replicas", [1, 7])
    def test_stepwise_invariants(self, num_replicas):
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(),
            balanced(80, 4),
            num_replicas=num_replicas,
            seed=42,
        )
        n = engine.num_vertices
        frozen_snapshots: dict[int, np.ndarray] = {}
        prev_frozen = engine.frozen.copy()
        for _ in range(50_000):
            engine.step()
            assert (engine.counts.sum(axis=1) == n).all()
            assert (engine.counts >= 0).all()
            # Frozen is monotone and frozen rows never change again.
            assert (engine.frozen | ~prev_frozen).all()
            for row, snapshot in frozen_snapshots.items():
                assert (engine.counts[row] == snapshot).all()
            for row in np.flatnonzero(engine.frozen & ~prev_frozen):
                frozen_snapshots[int(row)] = engine.counts[row].copy()
            assert (
                engine.consensus_ticks[engine.frozen] >= 0
            ).all()
            assert (
                engine.consensus_ticks[~engine.frozen] == -1
            ).all()
            prev_frozen = engine.frozen.copy()
            if engine.all_consensus():
                break
        assert engine.all_consensus()

    def test_all_frozen_at_start(self):
        """A consensus start freezes every row before any tick."""
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(),
            np.asarray([50, 0, 0]),
            num_replicas=3,
            seed=0,
        )
        assert engine.frozen.all()
        results = engine.run_until_consensus(1000)
        assert engine.tick_index == 0
        for r in results:
            assert r.converged
            assert r.rounds == 0
            assert r.metrics["ticks"] == 0
            assert r.winner == 0

    def test_usd_all_undecided_never_freezes(self):
        """All-undecided rows are absorbing but not consensus."""
        counts = np.asarray([0, 0, 30])  # k = 2 decided + undecided
        engine = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(), counts, num_replicas=4, seed=1
        )
        engine.run_ticks(200)
        assert not engine.frozen.any()
        results = engine.results()
        assert all(not r.converged for r in results)
        assert all(r.winner is None for r in results)

    def test_results_units(self):
        """rounds = ceil(ticks/n); consensus_rounds = ticks // n."""
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(), balanced(50, 3), num_replicas=5, seed=3
        )
        results = engine.run_until_consensus(10_000_000)
        for r, ticks, whole in zip(
            results, engine.consensus_ticks, engine.consensus_rounds
        ):
            assert r.metrics["ticks"] == ticks
            assert r.rounds == math.ceil(ticks / 50)
            assert whole == ticks // 50

    def test_budget_censoring(self):
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(), balanced(512, 16), num_replicas=3, seed=0
        )
        results = engine.run_until_consensus(10)
        assert engine.tick_index == 10
        for r in results:
            assert not r.converged
            assert r.metrics["ticks"] == 10
            assert r.rounds == 1  # ceil(10 / 512)
            assert r.winner is None

    def test_negative_budget_rejected(self):
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(), balanced(50, 2), num_replicas=2, seed=0
        )
        with pytest.raises(ConfigurationError, match="non-negative"):
            engine.run_until_consensus(-1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            engine.run_ticks(-1)

    def test_deterministic_under_seed(self):
        def run():
            engine = AsyncBatchPopulationEngine(
                ThreeMajority(), balanced(60, 3), num_replicas=6, seed=17
            )
            return engine.run_until_consensus(10_000_000)

        a, b = run(), run()
        assert [r.metrics["ticks"] for r in a] == [
            r.metrics["ticks"] for r in b
        ]
        assert [r.winner for r in a] == [r.winner for r in b]

    def test_shares_batch_start_validation(self):
        with pytest.raises(ConfigurationError, match="num_replicas"):
            AsyncBatchPopulationEngine(ThreeMajority(), balanced(60, 3))
        with pytest.raises(ConfigurationError, match="total mass"):
            AsyncBatchPopulationEngine(
                ThreeMajority(), np.asarray([[5, 5], [6, 5]])
            )


class TestAdversary:
    def test_corruption_once_per_round_mass_conserved(self):
        n, budget = 40, 2
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(),
            balanced(n, 4),
            num_replicas=5,
            seed=8,
            adversary=SupportRunnerUp(budget),
        )
        for _ in range(3 * n):
            before = engine.counts.copy()
            engine.step()
            assert (engine.counts.sum(axis=1) == n).all()
            if engine.tick_index % n == 0:
                # Corruption tick: at most 1 (dynamics) + budget moves
                # per active row.
                moved = (
                    np.abs(engine.counts - before).sum(axis=1) // 2
                )
                assert (moved <= 1 + budget).all()

    def test_adversary_slows_consensus(self):
        """Statistical sanity: a runner-up adversary delays the chain."""

        def median_ticks(adversary):
            engine = AsyncBatchPopulationEngine(
                ThreeMajority(),
                balanced(64, 2),
                num_replicas=40,
                seed=5,
                adversary=adversary,
            )
            results = engine.run_until_consensus(2_000_000)
            return np.median(
                [r.metrics["ticks"] for r in results if r.converged]
            )

        assert median_ticks(SupportRunnerUp(2)) > median_ticks(None)


class TestSpecIntegration:
    def test_registered_with_capabilities(self):
        assert "async-batch" in available_engines()
        info = get_engine("async-batch")
        assert info.supports_adversary
        assert not info.supports_graph
        assert not info.supports_target

    def test_spec_round_budget_is_ticks_over_n(self):
        spec = SimulationSpec(
            n=64, k=4, engine="async-batch", replicas=8, seed=2,
        )
        results = execute(spec)
        assert len(results) == 8
        for r in results:
            assert r.converged
            assert r.rounds == math.ceil(r.metrics["ticks"] / 64)

    def test_on_budget_raise(self):
        spec = SimulationSpec(
            n=1024,
            k=64,
            engine="async-batch",
            replicas=4,
            seed=0,
            max_rounds=1,
            on_budget="raise",
        )
        with pytest.raises(ConsensusNotReached, match="ticks"):
            get_engine("async-batch").run(spec)

    def test_graph_rejected(self):
        from repro.graphs import CompleteGraph

        with pytest.raises(ConfigurationError, match="graph"):
            SimulationSpec(
                n=16,
                k=2,
                engine="async-batch",
                graph=CompleteGraph(16),
            )


class TestHelpers:
    def test_sample_holders_never_picks_dead_labels(self):
        counts = np.asarray([[5, 0, 7], [0, 12, 0]])
        rng = np.random.default_rng(0)
        draws = sample_holders_batch(counts, 64, rng)
        assert draws.shape == (2, 64)
        assert set(np.unique(draws[0])) <= {0, 2}
        assert set(np.unique(draws[1])) == {1}

    def test_sample_holders_matches_alpha(self):
        counts = np.asarray([[10, 30, 60]])
        rng = np.random.default_rng(1)
        draws = sample_holders_batch(counts, 20_000, rng)
        freq = np.bincount(draws[0], minlength=3) / 20_000
        assert np.allclose(freq, [0.1, 0.3, 0.6], atol=0.02)
