"""Tests for the newly vectorised batch dynamics (Median, USD, h-Majority).

Mirrors the guarantees of ``test_batch_engine.py`` for the dynamics that
gained ``population_step_batch`` overrides:

* **one-step means** — Monte-Carlo means of the batched samplers
  against ``expected_alpha_next`` (their consensus-round laws are
  checked against an exact oracle in ``tests/test_exact_distributions.py``);
* **label conventions** — USD's ``k + 1``-label consensus convention
  (one *decided* opinion holds everything; all-undecided is censored,
  never a winner) as seen through the batch engine;
* **helper contracts** — the batched sampling primitives, the
  row-chunking memory guard and the dynamics' element-budget knob;
* **no-row-loop guard** — every catalogued dynamics must keep its
  vectorised override (also enforced by the CI benchmark job via
  ``benchmarks/bench_batch_dynamics.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from dynamics_ids import dynamics_id
from repro.configs import balanced
from repro.core import (
    Dynamics,
    HMajority,
    MedianRule,
    UndecidedStateDynamics,
    available_dynamics,
    batch_binomial,
    iter_row_chunks,
    make_dynamics,
    sample_opinions_from_counts_batch,
    with_undecided_slot,
)
from repro.engine import BatchPopulationEngine
from repro.errors import ConfigurationError, StateError


class TestDistributionalEquivalence:
    """Moments of the batched samplers against the closed forms."""

    def test_one_step_mean_matches_closed_form(self):
        # Monte-Carlo one-step means of the batched samplers against
        # expected_alpha_next, a sharper per-coordinate check than the
        # KS endpoint tests above.
        rng = np.random.default_rng(5)
        reps = 4000
        cases = [
            (MedianRule(), np.asarray([300, 500, 200])),
            (UndecidedStateDynamics(), np.asarray([300, 300, 200])),
        ]
        for dynamics, start in cases:
            n = int(start.sum())
            matrix = np.tile(start, (reps, 1))
            mean = (
                dynamics.population_step_batch(matrix, rng).mean(axis=0)
                / n
            )
            expected = dynamics.expected_alpha_next(start / n)
            assert mean == pytest.approx(expected, abs=5e-3), (
                dynamics.name
            )

    @pytest.mark.parametrize(
        "dynamics",
        [
            MedianRule(),
            HMajority(5),
        ],
        ids=dynamics_id,
    )
    def test_mass_conserved_every_round(self, dynamics):
        engine = BatchPopulationEngine(
            dynamics, balanced(300, 5), num_replicas=16, seed=3
        )
        for _ in range(200):
            engine.step()
            assert (engine.counts.sum(axis=1) == 300).all()
            assert (engine.counts >= 0).all()
            if engine.all_consensus():
                break
        assert engine.all_consensus()

    def test_usd_mass_conserved_every_round(self):
        engine = BatchPopulationEngine(
            UndecidedStateDynamics(),
            with_undecided_slot(balanced(300, 4)),
            num_replicas=16,
            seed=3,
        )
        for _ in range(5000):
            engine.step()
            assert (engine.counts.sum(axis=1) == 300).all()
            assert (engine.counts >= 0).all()
            if engine.all_consensus():
                break
        assert engine.all_consensus()


class TestUndecidedConsensusConvention:
    """USD's k+1-label convention as the batch engine sees it."""

    def test_consensus_mask_requires_decided_winner(self):
        dynamics = UndecidedStateDynamics()
        rows = np.asarray(
            [
                [100, 0, 0],  # decided consensus
                [0, 100, 0],  # decided consensus (second opinion)
                [0, 0, 100],  # all undecided: absorbing, NOT consensus
                [90, 0, 10],  # leader + undecided pool: not consensus
                [50, 50, 0],  # split: not consensus
            ]
        )
        mask = dynamics.consensus_mask_batch(rows)
        assert mask.tolist() == [True, True, False, False, False]

    def test_decided_consensus_start_frozen_with_winner(self):
        engine = BatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([0, 100, 0]),
            num_replicas=3,
            seed=0,
        )
        assert engine.frozen.all()
        results = engine.run_until_consensus(10)
        assert all(r.converged and r.rounds == 0 for r in results)
        assert all(r.winner == 1 for r in results)

    def test_all_undecided_start_is_censored_not_winner(self):
        # The all-undecided configuration is absorbing; under the k+1
        # convention it must surface as a censored run, never as
        # "consensus on the undecided label".
        engine = BatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([0, 0, 100]),
            num_replicas=4,
            seed=0,
        )
        results = engine.run_until_consensus(20)
        assert engine.round_index == 20
        assert all(not r.converged for r in results)
        assert all(r.winner is None for r in results)

    def test_batch_run_reports_decided_winners_only(self):
        counts = with_undecided_slot(balanced(256, 3))
        engine = BatchPopulationEngine(
            UndecidedStateDynamics(), counts, num_replicas=40, seed=7
        )
        results = engine.run_until_consensus(100_000)
        undecided_label = counts.size - 1
        for r in results:
            assert r.converged
            assert r.winner is not None and r.winner < undecided_label
            assert r.final_counts[undecided_label] == 0
            assert r.final_counts[r.winner] == 256

    def test_spec_run_through_batch_engine(self):
        from repro.simulation import SimulationSpec

        results = SimulationSpec(
            dynamics="undecided",
            counts=with_undecided_slot(balanced(128, 2)),
            engine="batch",
            replicas=8,
            seed=1,
        ).run()
        assert results.num_converged == 8
        assert all(r.winner in (0, 1) for r in results)

    def test_target_stop_never_reports_undecided_winner(self):
        """A custom target that halts at the all-undecided state gets
        converged=True (its predicate fired) but no winner."""
        engine = BatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([0, 0, 100]),
            num_replicas=1,
            seed=0,
            target=lambda c: c[-1] == c.sum(),
        )
        (result,) = engine.run_until_consensus(5)
        assert result.converged
        assert result.winner is None


class TestBatchedSamplingHelpers:
    def test_iter_row_chunks_covers_all_rows(self):
        chunks = list(iter_row_chunks(10, 3, 9))  # 3 rows per chunk
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        # A row wider than the budget still runs, one row at a time.
        assert list(iter_row_chunks(2, 100, 10)) == [(0, 1), (1, 2)]

    def test_engine_element_budget_knob(self):
        """The budget on the dynamics instance is the one knob: the
        engine steps the caller's instance, and a budget that splits
        every row into its own chunk changes no draw."""
        counts = balanced(2048, 16)
        whole = BatchPopulationEngine(
            MedianRule(), counts, num_replicas=6, seed=3
        )
        dynamics = MedianRule()
        dynamics.batch_element_budget = 1
        chunk_rows = []
        step_rows = dynamics._step_rows

        def spy(rows, rng):
            chunk_rows.append(len(rows))
            return step_rows(rows, rng)

        dynamics._step_rows = spy
        chunked = BatchPopulationEngine(
            dynamics, counts, num_replicas=6, seed=3
        )
        assert chunked.dynamics is dynamics
        for _ in range(5):
            whole.step()
            chunked.step()
        assert set(chunk_rows) == {1}
        assert np.array_equal(whole.counts, chunked.counts)

    def test_sample_opinions_batch_rowwise_law(self):
        rng = np.random.default_rng(0)
        counts = np.asarray([[90, 10, 0], [10, 0, 90]])
        samples = sample_opinions_from_counts_batch(counts, 5000, rng)
        assert samples.shape == (2, 5000)
        # Dead opinions are never sampled.
        assert not (samples[0] == 2).any()
        assert not (samples[1] == 1).any()
        # Per-row frequencies track each row's own alpha.
        freq0 = (samples[0] == 0).mean()
        freq1 = (samples[1] == 2).mean()
        assert freq0 == pytest.approx(0.9, abs=0.02)
        assert freq1 == pytest.approx(0.9, abs=0.02)

    def test_batch_binomial_clips_ulp_overshoot(self):
        rng = np.random.default_rng(0)
        p = np.asarray([1.0 + 1e-12, 0.5])
        out = batch_binomial(np.asarray([10, 10]), p, rng)
        assert out[0] == 10

    def test_batch_binomial_rejects_material_violation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StateError, match="outside"):
            batch_binomial(
                np.asarray([10]), np.asarray([1.5]), rng, "undecided"
            )


class TestNoRowLoopFallback:
    """Every catalogued dynamics must keep its vectorised override."""

    def test_catalogue_is_fully_vectorised(self):
        specs = list(available_dynamics()) + ["5-majority", "7-majority"]
        for spec in specs:
            dynamics = make_dynamics(spec)
            assert (
                type(dynamics).population_step_batch
                is not Dynamics.population_step_batch
            ), (
                f"{spec} lost its vectorised population_step_batch "
                "override and would fall back to the Python row loop"
            )
