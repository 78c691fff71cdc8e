"""The asynchronous Undecided-State and Voter chains.

Both run on :class:`~repro.engine.AsyncBatchPopulationEngine`, the one
asynchronous engine ([CMRSS25]: one uniformly random vertex updates per
tick; parallel time is ``ticks / n``).  ``test_async_batch.py`` checks
the engine's ledger on 3-Majority and ``test_exact_distributions.py``
the one-tick laws; this module checks what these two dynamics add:

* **the tick** — the rule tables, at most one vertex moving per tick
  (for USD always through the undecided slot), extinct opinions staying
  extinct, and the updating vertex sampling itself (self-loops);
* **the USD chain** — undecided vertices block consensus, a single
  decided opinion absorbs them, a clear majority wins, parallel time
  grows slowly with ``n``;
* **the Voter chain** — the winner law is the initial share (the
  fractions are a martingale), and consensus takes far longer than USD;
* **the spec path** — both dynamics run through ``engine="async"``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.configs import balanced
from repro.core import UndecidedStateDynamics, Voter, with_undecided_slot
from repro.engine import AsyncBatchPopulationEngine
from repro.errors import ConfigurationError
from repro.simulation import SimulationSpec

# k = 2 decided opinions plus the undecided slot for USD; Voter has no
# undecided state, so its start is the decided block alone.
STARTS = {
    "undecided": (UndecidedStateDynamics, np.asarray([20, 0, 20, 0])),
    "voter": (Voter, np.asarray([20, 0, 20])),
}


def _median_parallel_time(engine: AsyncBatchPopulationEngine) -> float:
    results = engine.run_until_consensus(5_000 * engine.num_vertices)
    assert all(r.converged for r in results)
    return float(
        np.median(
            [r.metrics["ticks"] / engine.num_vertices for r in results]
        )
    )


class TestTick:
    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_mass_conserved_and_one_vertex_moves(self, name):
        make, start = STARTS[name]
        engine = AsyncBatchPopulationEngine(
            make(), start, num_replicas=6, seed=3
        )
        for _ in range(2_000):
            before = engine.counts.copy()
            engine.step()
            assert (engine.counts.sum(axis=1) == 40).all()
            assert (engine.counts >= 0).all()
            assert (np.abs(engine.counts - before).sum(axis=1) <= 2).all()

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_extinct_opinion_stays_extinct(self, name):
        # Both rules only copy opinions someone holds (or, for USD, go
        # undecided), so the empty decided label 1 is never revived.
        make, start = STARTS[name]
        engine = AsyncBatchPopulationEngine(
            make(), start, num_replicas=6, seed=4
        )
        engine.run_ticks(2_000)
        assert (engine.counts[:, 1] == 0).all()

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_updating_vertex_samples_itself(self, name):
        # n = 2 holding two opinions: the updating vertex sees itself
        # with probability 1/2 and keeps its opinion; otherwise it sees
        # the other vertex and moves (Voter adopts, USD clashes).  A
        # distinct neighbour would move it every time.
        make, start = STARTS[name]
        start = np.minimum(start, 1)
        rows = 4_000
        engine = AsyncBatchPopulationEngine(
            make(), start, num_replicas=rows, seed=5
        )
        engine.step()
        moved = int((engine.counts != start).any(axis=1).sum())
        assert abs(moved - rows / 2) < 5 * np.sqrt(rows / 4)

    def test_undecided_rule_table(self, rng):
        dynamics = UndecidedStateDynamics(num_decided=3)
        undecided = 3
        own = np.asarray([undecided, undecided, 0, 0, 0])
        seen = np.asarray([[1, undecided, 1, 0, undecided]])
        # Undecided adopts what it sees (or stays undecided); decided
        # keeps its opinion on agreement or on meeting an undecided
        # vertex, and goes undecided on a clash.
        assert dynamics.vertex_update(own, seen, rng).tolist() == [
            1,
            undecided,
            undecided,
            0,
            0,
        ]

    def test_undecided_tick_moves_through_the_undecided_slot(self):
        # A USD tick never turns one decided opinion into another: a row
        # either stays put or moves one vertex between a decided label
        # and the undecided slot.
        engine = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([20, 15, 10, 5]),
            num_replicas=8,
            seed=6,
        )
        for _ in range(2_000):
            before = engine.counts.copy()
            engine.step()
            delta = engine.counts - before
            moved = delta.any(axis=1)
            assert (np.abs(delta[:, -1]) == moved).all()
            assert (np.abs(delta[:, :-1]).sum(axis=1) == moved).all()

    def test_voter_rule_adopts_the_seen_opinion(self, rng):
        own = np.asarray([0, 1, 2, 3])
        seen = np.asarray([[3, 3, 0, 1]])
        assert Voter().vertex_update(own, seen, rng).tolist() == [
            3,
            3,
            0,
            1,
        ]


class TestUndecidedChain:
    def test_undecided_vertices_block_consensus(self):
        dynamics = UndecidedStateDynamics()
        decided = AsyncBatchPopulationEngine(
            dynamics, np.asarray([10, 0, 0]), num_replicas=2, seed=0
        )
        assert decided.frozen.all()
        assert [r.winner for r in decided.results()] == [0, 0]
        # One undecided vertex left: no output consensus yet.
        pending = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([9, 0, 1]),
            num_replicas=2,
            seed=0,
        )
        assert not pending.frozen.any()
        assert all(
            not r.converged and r.winner is None
            for r in pending.results()
        )

    def test_one_decided_opinion_absorbs_the_undecided(self):
        # With k = 1 no clash is possible: the undecided count never
        # grows, and every row ends with all vertices on opinion 0.
        engine = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([5, 35]),
            num_replicas=4,
            seed=7,
        )
        undecided = engine.counts[:, 1].copy()
        while not engine.all_consensus():
            engine.step()
            assert (engine.counts[:, 1] <= undecided).all()
            undecided = engine.counts[:, 1].copy()
        for r in engine.results():
            assert r.converged
            assert r.winner == 0
            assert r.final_counts.tolist() == [40, 0]

    def test_reused_instance_must_match_the_opinion_space(self):
        # The engine binds k from its number of labels; an instance
        # already bound to another k raises rather than relabel which
        # column is undecided.
        dynamics = UndecidedStateDynamics()
        AsyncBatchPopulationEngine(
            dynamics, np.asarray([5, 5, 0]), num_replicas=1, seed=0
        )
        with pytest.raises(ConfigurationError, match="fresh instance"):
            AsyncBatchPopulationEngine(
                dynamics, np.asarray([4, 3, 3, 0]), num_replicas=1, seed=0
            )

    def test_clear_majority_wins(self):
        n = 400
        engine = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(),
            with_undecided_slot(np.asarray([260, 140])),
            num_replicas=8,
            seed=1,
        )
        results = engine.run_until_consensus(2_000 * n)
        assert all(r.converged for r in results)
        assert [r.winner for r in results] == [0] * 8

    def test_biased_three_opinion_start_reaches_decided_consensus(self):
        engine = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(),
            np.asarray([260, 120, 120, 0]),
            num_replicas=4,
            seed=5,
        )
        for r in engine.run_until_consensus(1_000 * 500):
            assert r.converged
            assert r.winner in (0, 1, 2)
            assert r.final_counts[r.winner] == 500
            assert r.final_counts[-1] == 0

    def test_parallel_time_grows_slowly_with_n(self):
        # O(log n) parallel time from a balanced two-opinion start:
        # quadrupling n does not even double it.
        def median(n):
            return _median_parallel_time(
                AsyncBatchPopulationEngine(
                    UndecidedStateDynamics(),
                    with_undecided_slot(balanced(n, 2)),
                    num_replicas=5,
                    seed=(2, n),
                )
            )

        assert median(512) < 2 * median(128)

    def test_parallel_time_is_ticks_over_n(self):
        engine = AsyncBatchPopulationEngine(
            UndecidedStateDynamics(),
            with_undecided_slot(np.asarray([250, 250])),
            num_replicas=3,
            seed=0,
        )
        engine.run_ticks(1_250)
        assert engine.round_index == pytest.approx(2.5)
        for r in engine.results():
            assert r.metrics["ticks"] / 500 == pytest.approx(2.5)
            assert r.rounds == 3


class TestVoterChain:
    def test_winner_law_is_initial_share(self):
        # The Voter fractions are a martingale, so opinion 0 wins with
        # probability equal to its initial share, 3/4.
        rows = 4_000
        engine = AsyncBatchPopulationEngine(
            Voter(), np.asarray([15, 5]), num_replicas=rows, seed=3
        )
        results = engine.run_until_consensus(10_000_000)
        wins = sum(r.winner == 0 for r in results)
        assert len(results) == rows
        assert abs(wins - 0.75 * rows) < 5 * np.sqrt(rows * 0.75 * 0.25)

    def test_consensus_much_slower_than_undecided(self):
        # Voter needs Theta(n) parallel time, USD O(log n): at three
        # times USD's median parallel time most Voter rows are still
        # running, i.e. the Voter median is more than three times
        # larger (without waiting out the Voter tail).
        n, rows = 256, 9
        undecided = _median_parallel_time(
            AsyncBatchPopulationEngine(
                UndecidedStateDynamics(),
                with_undecided_slot(balanced(n, 2)),
                num_replicas=rows,
                seed=(8, n),
            )
        )
        voter = AsyncBatchPopulationEngine(
            Voter(), balanced(n, 2), num_replicas=rows, seed=(7, n)
        )
        results = voter.run_until_consensus(int(3 * undecided * n))
        assert sum(not r.converged for r in results) > rows / 2


class TestSpecPath:
    @pytest.mark.parametrize(
        "dynamics, counts",
        [
            ("undecided", with_undecided_slot(balanced(128, 2))),
            ("voter", balanced(64, 2)),
        ],
        ids=["undecided", "voter"],
    )
    def test_runs_on_the_async_engine(self, dynamics, counts):
        results = SimulationSpec(
            dynamics=dynamics,
            counts=counts,
            engine="async",
            replicas=6,
            seed=1,
        ).run()
        assert results.num_converged == 6
        n = int(counts.sum())
        for r in results:
            assert r.winner in (0, 1)
            assert r.final_counts[r.winner] == n
            assert r.rounds == -(-r.metrics["ticks"] // n)
