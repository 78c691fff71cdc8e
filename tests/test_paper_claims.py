"""Integration tests: the paper's qualitative claims at test scale.

These are small-n statistical versions of the headline statements —
cheap enough for the unit suite, strong enough to catch a broken
dynamics or drift implementation.  The full-scale versions live in the
benchmark harness (one per paper artefact).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.configs import balanced, biased, two_block
from repro.core import ThreeMajority, TwoChoices
from repro.engine import BatchPopulationEngine, TrajectoryRecorder
from repro.seeding import spawn_generators
from repro.theory.quantities import gamma_of_alpha
from repro.theory.stopping import classify_opinions

N = 4096


def _chain(dynamics, counts, seed, **kwargs):
    """A lone population chain: the batch engine with one row."""
    return BatchPopulationEngine(
        dynamics, counts, num_replicas=1, seed=seed, **kwargs
    )


def _run(dynamics, counts, seed, budget, **kwargs):
    (result,) = _chain(dynamics, counts, seed, **kwargs).run_until_consensus(
        budget
    )
    return result


def _times(dynamics, counts, runs, seed, budget=200_000):
    """Consensus rounds of ``runs`` lone chains, one per spawned stream."""
    results = [
        _run(dynamics, counts, rng, budget)
        for rng in spawn_generators(seed, runs)
    ]
    return np.asarray(
        [r.rounds for r in results if r.converged], dtype=float
    )


class TestTheorem11Shape:
    def test_three_majority_plateau(self):
        """T(k = n) barely exceeds T(k = sqrt n) for 3-Majority."""
        sqrt_k = int(math.sqrt(N))
        t_mid = np.median(_times(ThreeMajority(), balanced(N, sqrt_k), 3, 1))
        t_max = np.median(_times(ThreeMajority(), balanced(N, N), 3, 2))
        assert t_max <= 6 * t_mid

    def test_two_choices_no_plateau(self):
        """T(k) keeps growing for 2-Choices beyond sqrt(n)."""
        sqrt_k = int(math.sqrt(N))
        t_mid = np.median(_times(TwoChoices(), balanced(N, sqrt_k), 3, 3))
        t_big = np.median(
            _times(TwoChoices(), balanced(N, 8 * sqrt_k), 3, 4)
        )
        assert t_big >= 3 * t_mid

    def test_three_majority_beats_two_choices_at_large_k(self):
        k = 8 * int(math.sqrt(N))
        t3 = np.median(_times(ThreeMajority(), balanced(N, k), 3, 5))
        t2 = np.median(_times(TwoChoices(), balanced(N, k), 3, 6))
        assert t2 >= 2 * t3


class TestGammaSubmartingale:
    @pytest.mark.parametrize(
        "dynamics", [ThreeMajority(), TwoChoices()], ids=lambda d: d.name
    )
    def test_gamma_trends_up_along_run(self, dynamics):
        recorder = TrajectoryRecorder(record_gamma=True)
        engine = _chain(
            dynamics,
            balanced(N, 64),
            seed=0,
            record_hook=lambda i, counts, _: recorder.observe(i, counts[0]),
        )
        recorder.observe(0, engine.counts[0])
        engine.run_until_consensus(100_000)
        gamma = np.asarray(recorder.gamma)
        # Submartingale + strong drift: no deep collapse, final = 1.
        assert gamma[-1] == pytest.approx(1.0)
        assert gamma.min() >= 0.5 * gamma[0]

    def test_consensus_time_scales_with_inverse_gamma(self):
        """Theorem 2.1 shape: halving gamma_0 roughly doubles T."""
        slow = two_block(N, 256, 0.05)
        fast = two_block(N, 256, 0.4)
        t_slow = np.median(_times(ThreeMajority(), slow, 3, 7))
        t_fast = np.median(_times(ThreeMajority(), fast, 3, 8))
        ratio = gamma_of_alpha(fast / N) / gamma_of_alpha(slow / N)
        assert t_slow > t_fast
        assert t_slow / t_fast > ratio / 8


class TestWeakOpinionVanishes:
    @pytest.mark.parametrize(
        "dynamics", [ThreeMajority(), TwoChoices()], ids=lambda d: d.name
    )
    def test_lemma52(self, dynamics):
        """A weak opinion dies within ~C log n / gamma_0 rounds."""
        counts = two_block(N, 16, 0.5)
        weak_idx = 1
        counts[weak_idx] = max(1, counts[weak_idx] // 8)
        counts[0] += N - counts.sum()
        gamma0 = gamma_of_alpha(counts / N)
        alpha = counts / N
        assert classify_opinions(alpha)[weak_idx]  # setup sanity
        window = int(40 * math.log(N) / gamma0)
        died = 0
        runs = 5
        for seed in range(runs):
            result = _run(
                dynamics,
                counts,
                (9, seed),
                window,
                target=lambda c: c[weak_idx] == 0,
            )
            died += bool(result.converged)
        assert died == runs


class TestPluralityConsensus:
    def test_theorem26_margin_wins(self):
        """A 10x-threshold margin gives plurality consensus reliably."""
        margin = 10.0 * math.sqrt(math.log(N) / N)
        counts = biased(N, 16, margin)
        wins = 0
        runs = 10
        for seed in range(runs):
            result = _run(ThreeMajority(), counts, (3, seed), 50_000)
            wins += result.converged and result.winner == 0
        assert wins >= 9

    def test_balanced_control_fair(self):
        """Without a margin every opinion wins ~uniformly (validity)."""
        winners = []
        for seed in range(12):
            result = _run(ThreeMajority(), balanced(N, 4), (4, seed), 50_000)
            winners.append(result.winner)
        assert len(set(winners)) >= 2  # not rigged towards one opinion


class TestLowerBound:
    def test_theorem27_linear_floor(self):
        """From balanced k, consensus needs >= ~k/4 rounds."""
        for k in (8, 32, 128):
            times = _times(ThreeMajority(), balanced(N, k), 3, (5, k))
            assert times.min() >= k / 4
