"""Tests for stopping times (Def. 4.4) and the bound formulas (Fig. 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ThreeMajority
from repro.engine import BatchPopulationEngine
from repro.errors import ConfigurationError
from repro.theory.bounds import (
    exponent_curve_prior,
    exponent_curve_this_work,
    gamma_condition,
    lower_bound,
    plurality_margin,
    prior_upper_bound,
    upper_bound,
)
from repro.theory.stopping import (
    DriftConstants,
    StoppingTimeTracker,
    classify_opinions,
)


class TestDriftConstants:
    def test_paper_defaults(self):
        c = DriftConstants()
        assert c.c_weak == pytest.approx(0.1)
        assert c.c_active == pytest.approx(0.05)
        assert c.c_down_gamma == pytest.approx(1 / 30)

    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError, match="requires"):
            DriftConstants(c_active=0.2)  # violates c_active < c_weak

    def test_c_weak_range(self):
        with pytest.raises(ConfigurationError):
            DriftConstants(c_weak=0.6)


class TestClassifyOpinions:
    def test_leader_never_weak(self):
        for alpha in (
            np.asarray([0.5, 0.3, 0.2]),
            np.full(10, 0.1),
            np.asarray([0.9, 0.05, 0.05]),
        ):
            weak = classify_opinions(alpha)
            assert not weak[int(np.argmax(alpha))]

    def test_small_opinion_weak(self):
        alpha = np.asarray([0.59, 0.40, 0.01])
        weak = classify_opinions(alpha)
        assert weak[2]
        assert not weak[0]

    def test_balanced_all_strong(self):
        alpha = np.full(5, 0.2)
        assert not classify_opinions(alpha).any()


class TestStoppingTimeTracker:
    def _feed(self, tracker, sequence):
        for round_index, counts in enumerate(sequence):
            tracker.observe(round_index, np.asarray(counts))

    def test_vanish_detection(self):
        tracker = StoppingTimeTracker(pair=(0, 1))
        self._feed(
            tracker, [[50, 50, 0], [30, 70, 0], [0, 100, 0]]
        )
        assert tracker.times["vanish_i"] == 2
        assert "vanish_j" not in tracker.times

    def test_band_exits(self):
        tracker = StoppingTimeTracker(pair=(0, 1))
        # alpha_0: 0.50 -> 0.56 (>= 1.1x needs 0.55): up_i at round 1.
        self._feed(tracker, [[50, 50], [56, 44]])
        assert tracker.times["up_i"] == 1
        assert tracker.times["down_j"] == 1

    def test_plus_delta_threshold(self):
        tracker = StoppingTimeTracker(pair=(0, 1), x_delta=0.3)
        self._feed(tracker, [[50, 50], [60, 40], [70, 30]])
        assert tracker.times["plus_delta"] == 2

    def test_weak_firing(self):
        tracker = StoppingTimeTracker(pair=(0, 1))
        # Round 1: alpha = (0.7, 0.02, ...), gamma ~ 0.5 -> j weak.
        self._feed(tracker, [[50, 50, 0], [70, 2, 28]])
        assert tracker.times["weak_j"] == 1

    def test_eta_threshold(self):
        tracker = StoppingTimeTracker(pair=(0, 1), x_eta=0.2)
        # eta = (alpha_0 - alpha_1) / sqrt(max): round 1 has
        # (0.64 - 0.36) / 0.8 = 0.35 >= 0.2.
        self._feed(tracker, [[50, 50], [64, 36]])
        assert tracker.times["plus_eta"] == 1

    def test_up_eta_relative_growth(self):
        tracker = StoppingTimeTracker(pair=(0, 1))
        # eta grows from 0.1/sqrt(0.55) to 0.3/sqrt(0.65): >> 1.001x.
        self._feed(tracker, [[55, 45], [65, 35]])
        assert tracker.times["up_eta"] == 1

    def test_first_helper(self):
        tracker = StoppingTimeTracker(pair=(0, 1))
        self._feed(tracker, [[50, 50], [56, 44]])
        assert tracker.first("up_i", "vanish_i") == 1
        assert tracker.first("vanish_i") is None

    def test_round0_conditions_can_fire(self):
        tracker = StoppingTimeTracker(pair=(0, 1))
        self._feed(tracker, [[90, 1, 9]])
        assert tracker.times.get("weak_j") == 0

    def test_integration_with_engine(self):
        tracker = StoppingTimeTracker(pair=(0, 1), x_gamma=0.9)
        engine = BatchPopulationEngine(
            ThreeMajority(),
            [400, 300, 300],
            num_replicas=1,
            seed=0,
            record_hook=lambda i, counts, _: tracker.observe(i, counts[0]),
        )
        tracker.observe(0, engine.counts[0])
        engine.run_until_consensus(10_000)
        # At consensus one of the pair vanished or gamma hit 0.9.
        assert tracker.first(
            "vanish_i", "vanish_j", "plus_gamma"
        ) is not None


class TestBoundFormulas:
    def test_upper_bound_crossover_3maj(self):
        n = 10_000
        small_k = upper_bound("3-majority", n, 4)
        log_n = math.log(n)
        assert small_k == pytest.approx(4 * log_n)
        big_k = upper_bound("3-majority", n, n)
        assert big_k == pytest.approx(math.sqrt(n) * log_n**2)

    def test_upper_bound_2cho_linear(self):
        n = 10_000
        assert upper_bound("2-choices", n, 50) == pytest.approx(
            50 * math.log(n)
        )

    def test_prior_bound_regimes(self):
        n = 10**6
        # Small k: k log n for both.
        assert prior_upper_bound("3-majority", n, 10) == pytest.approx(
            10 * math.log(n)
        )
        # Large k: n^{2/3} polylog for 3-majority; None for 2-choices.
        assert prior_upper_bound("3-majority", n, n // 2) == (
            pytest.approx(n ** (2 / 3) * math.log(n) ** 1.5)
        )
        assert prior_upper_bound("2-choices", n, n // 2) is None

    def test_lower_bound(self):
        n = 10_000
        assert lower_bound("2-choices", n, 100) == 100
        assert lower_bound("3-majority", n, n) == pytest.approx(
            math.sqrt(n / math.log(n))
        )

    def test_gamma_condition(self):
        n = 10_000
        assert gamma_condition("3-majority", n) == pytest.approx(
            math.log(n) / math.sqrt(n)
        )
        assert gamma_condition("2-choices", n) == pytest.approx(
            math.log(n) ** 2 / n
        )

    def test_plurality_margin(self):
        n = 10_000
        assert plurality_margin("3-majority", n) == pytest.approx(
            math.sqrt(math.log(n) / n)
        )
        assert plurality_margin(
            "2-choices", n, alpha_leader=0.25
        ) == pytest.approx(math.sqrt(0.25 * math.log(n) / n))

    def test_plurality_margin_2cho_requires_leader(self):
        with pytest.raises(ConfigurationError):
            plurality_margin("2-choices", 100)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            upper_bound("3-majority", 100, 1)
        with pytest.raises(ConfigurationError):
            upper_bound("3-majority", 100, 101)

    def test_rejects_unknown_dynamics(self):
        with pytest.raises(ConfigurationError):
            upper_bound("voter", 100, 5)


class TestExponentCurves:
    def test_this_work_matches_figure_1b(self):
        assert exponent_curve_this_work("3-majority", 0.3) == 0.3
        assert exponent_curve_this_work("3-majority", 0.8) == 0.5
        assert exponent_curve_this_work("2-choices", 0.8) == 0.8

    def test_prior_matches_figure_1a(self):
        assert exponent_curve_prior("3-majority", 0.2) == 0.2
        assert exponent_curve_prior("3-majority", 0.5) == pytest.approx(
            2 / 3
        )
        assert exponent_curve_prior("2-choices", 0.4) == 0.4
        assert exponent_curve_prior("2-choices", 0.7) is None

    def test_improvement_region(self):
        """This work strictly improves in (1/3, 1) for 3-Majority."""
        for kappa in (0.4, 0.5, 0.7, 0.9):
            new = exponent_curve_this_work("3-majority", kappa)
            old = exponent_curve_prior("3-majority", kappa)
            assert new <= old
            if kappa > 1 / 3 and kappa != 2 / 3:
                assert new < old or kappa < 0.5

    def test_kappa_domain(self):
        with pytest.raises(ConfigurationError):
            exponent_curve_this_work("3-majority", 1.5)
