"""Tests for the optional-stopping bounds (Lemmas 5.7/5.13/5.11)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ThreeMajority, TwoChoices
from repro.engine import BatchPopulationEngine
from repro.errors import ConfigurationError
from repro.theory.ost import (
    bias_drift_floor,
    bias_hitting_time_bound,
    drift_doubling_rounds,
    empirical_bias_drift,
    gamma_drift_floor,
    gamma_hitting_time_bound,
)


class TestBiasDriftFloor:
    def test_positive_for_non_weak_pair(self):
        alpha = np.asarray([0.4, 0.35, 0.25])
        for dynamics in ("3-majority", "2-choices"):
            assert bias_drift_floor(alpha, 0, 1, 1000, dynamics) > 0

    def test_three_majority_scales_linearly(self):
        alpha = np.asarray([0.4, 0.35, 0.25])
        floor_a = bias_drift_floor(alpha, 0, 1, 1000, "3-majority")
        floor_b = bias_drift_floor(alpha, 0, 1, 2000, "3-majority")
        assert floor_a == pytest.approx(2 * floor_b)

    def test_unknown_dynamics(self):
        with pytest.raises(ConfigurationError):
            bias_drift_floor(np.asarray([0.5, 0.5]), 0, 1, 10, "voter")

    def test_floor_below_variance_bound(self):
        """s_{5.7} must not exceed the Lemma 4.6(ii) variance floor."""
        alpha = np.asarray([0.45, 0.45, 0.1])
        n = 5000
        for dynamics in ("3-majority", "2-choices"):
            floor = bias_drift_floor(alpha, 0, 1, n, dynamics)
            variance = empirical_bias_drift(alpha, 0, 1, n, dynamics)
            assert floor <= variance * 1.01

    def test_squared_bias_additive_drift_monte_carlo(self, rng):
        """One-step E[delta_t^2] - delta^2 >= s_{5.7} (Lemma 5.7)."""
        n = 20_000
        counts = np.asarray([9000, 8000, 3000], dtype=np.int64)
        alpha = counts / n
        delta0 = float(alpha[0] - alpha[1])
        reps = 4000
        total = 0.0
        for _ in range(reps):
            new = ThreeMajority().population_step(counts, rng) / n
            total += float(new[0] - new[1]) ** 2
        gain = total / reps - delta0**2
        floor = bias_drift_floor(alpha, 0, 1, n, "3-majority")
        assert gain >= floor * 0.9


class TestBiasHittingBound:
    def test_bound_positive_and_finite(self):
        alpha = np.asarray([0.45, 0.45, 0.1])
        bound = bias_hitting_time_bound(
            alpha, 0, 1, 4096, "3-majority", x_delta=0.01
        )
        assert 0 < bound < math.inf

    def test_rejects_bad_x_delta(self):
        with pytest.raises(ConfigurationError):
            bias_hitting_time_bound(
                np.asarray([0.5, 0.5]), 0, 1, 100, "3-majority", 0.0
            )

    def test_simulated_hitting_below_bound(self):
        """Measured E[tau^+_delta] respects the Lemma 5.7/5.8 bound."""
        n = 4096
        counts = np.asarray([n // 2 - n // 8, n // 2 - n // 8, n // 4])
        alpha = counts / n
        x_delta = 2.0 * math.sqrt(math.log(n) / n)
        bound = bias_hitting_time_bound(
            alpha, 0, 1, n, "3-majority", x_delta=x_delta
        )
        times = []
        for seed in range(10):
            engine = BatchPopulationEngine(
                ThreeMajority(), counts, num_replicas=1, seed=(21, seed)
            )
            for rounds in range(1, int(bound * 20) + 1):
                engine.step()
                a = engine.alpha[0]
                if abs(float(a[0] - a[1])) >= x_delta:
                    times.append(rounds)
                    break
        assert times, "bias never reached x_delta"
        assert np.mean(times) <= bound


class TestGammaBounds:
    def test_floor_values(self):
        assert gamma_drift_floor(100, "3-majority") == pytest.approx(
            0.5 / 100
        )
        assert gamma_drift_floor(100, "2-choices") == pytest.approx(
            0.25 / 3e4
        )

    def test_floor_epsilon_domain(self):
        with pytest.raises(ConfigurationError):
            gamma_drift_floor(100, "3-majority", epsilon=1.5)

    def test_hitting_bound_scales(self):
        b1 = gamma_hitting_time_bound(1000, "3-majority", 0.1)
        b2 = gamma_hitting_time_bound(2000, "3-majority", 0.1)
        assert b2 == pytest.approx(2 * b1)

    def test_hitting_bound_domain(self):
        with pytest.raises(ConfigurationError):
            gamma_hitting_time_bound(1000, "3-majority", 0.9)

    def test_simulated_gamma_hitting_below_bound(self):
        """Theorem 2.2 shape via Lemma 5.13: measured time <= bound."""
        n = 2048
        x_gamma = 0.25
        bound = gamma_hitting_time_bound(n, "3-majority", x_gamma)
        times = []
        for seed in range(5):
            engine = BatchPopulationEngine(
                ThreeMajority(),
                np.ones(n, dtype=np.int64),
                num_replicas=1,
                seed=(33, seed),
            )
            for rounds in range(1, int(bound) + 1):
                engine.step()
                if engine.gamma[0] >= x_gamma:
                    times.append(rounds)
                    break
        assert len(times) == 5
        assert np.mean(times) <= bound

    def test_two_choices_quadratic_in_n(self):
        b1 = gamma_hitting_time_bound(1000, "2-choices", 0.1)
        b2 = gamma_hitting_time_bound(2000, "2-choices", 0.1)
        assert b2 == pytest.approx(4 * b1)


class TestDriftDoubling:
    def test_monotone_in_target(self):
        a = drift_doubling_rounds(10, 1.0, 4.0, 0.01)
        b = drift_doubling_rounds(10, 1.0, 16.0, 0.01)
        assert b > a

    def test_monotone_in_confidence(self):
        a = drift_doubling_rounds(10, 1.0, 4.0, 0.1)
        b = drift_doubling_rounds(10, 1.0, 4.0, 0.001)
        assert b > a

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            drift_doubling_rounds(0, 1.0, 2.0, 0.1)
        with pytest.raises(ConfigurationError):
            drift_doubling_rounds(1, 2.0, 1.0, 0.1)
        with pytest.raises(ConfigurationError):
            drift_doubling_rounds(1, 1.0, 2.0, 1.5)
        with pytest.raises(ConfigurationError):
            drift_doubling_rounds(1, 1.0, 2.0, 0.1, growth_factor=1.0)

    def test_lemma510_window_shape(self):
        """Bias amplification horizon ~ window * log(x*/x0)."""
        window = 50.0
        rounds = drift_doubling_rounds(
            window, 0.001, 0.1, 0.01, growth_factor=1.05
        )
        # log(100)/log(1.05) ~ 94 doublings + log(100) retries.
        assert rounds == pytest.approx(
            4.0 * window * (math.log(100) + math.log(100) / math.log(1.05)),
            rel=1e-6,
        )
