"""Tests for the Bernstein condition toolbox (Def. 3.3, Lemmas 3.4/4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ThreeMajority, TwoChoices
from repro.errors import ConfigurationError
from repro.theory.bernstein import (
    BernsteinParams,
    alpha_params,
    delta_params,
    empirical_mgf_check,
    gamma_params,
    mgf_bound,
)
from repro.theory.drift import expected_alpha_next
from repro.theory.quantities import gamma_of_alpha


class TestBernsteinParams:
    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            BernsteinParams(-1.0, 1.0)

    def test_weaken(self):
        params = BernsteinParams(1.0, 2.0).weaken(2.0, 3.0)
        assert params.D == 2.0 and params.s == 3.0

    def test_weaken_rejects_tightening(self):
        with pytest.raises(ConfigurationError):
            BernsteinParams(1.0, 2.0).weaken(0.5, 3.0)

    def test_scale(self):
        params = BernsteinParams(2.0, 3.0).scale(-2.0)
        assert params.D == 4.0
        assert params.s == 12.0

    def test_scale_one_sided_negative_rejected(self):
        one_sided = BernsteinParams(1.0, 1.0, one_sided=True)
        with pytest.raises(ConfigurationError, match="flips the side"):
            one_sided.scale(-1.0)

    def test_add_independent(self):
        a = BernsteinParams(1.0, 2.0)
        b = BernsteinParams(1.0, 3.0)
        assert a.add_independent(b).s == 5.0

    def test_add_independent_requires_same_d(self):
        with pytest.raises(ConfigurationError, match="share D"):
            BernsteinParams(1.0, 1.0).add_independent(
                BernsteinParams(2.0, 1.0)
            )

    def test_sum_family(self):
        family = [BernsteinParams(0.5, 1.0), BernsteinParams(1.0, 2.0)]
        combined = BernsteinParams.sum_family(family)
        assert combined.D == 1.0
        assert combined.s == 3.0
        assert not combined.one_sided

    def test_sum_family_na_is_one_sided(self):
        combined = BernsteinParams.sum_family(
            [BernsteinParams(1.0, 1.0)], negatively_associated=True
        )
        assert combined.one_sided

    def test_sum_family_empty(self):
        with pytest.raises(ConfigurationError):
            BernsteinParams.sum_family([])


class TestMgfBound:
    def test_domain(self):
        params = BernsteinParams(1.0, 1.0)
        with pytest.raises(ConfigurationError, match="domain"):
            mgf_bound(3.0, params)

    def test_one_sided_rejects_negative_lambda(self):
        params = BernsteinParams(1.0, 1.0, one_sided=True)
        with pytest.raises(ConfigurationError):
            mgf_bound(-0.5, params)

    def test_value(self):
        params = BernsteinParams(0.0, 2.0)
        assert mgf_bound(1.0, params) == pytest.approx(np.e)

    def test_bounded_variable_satisfies_condition(self, rng):
        """Lemma 3.4(i): |X| <= D, E X = 0 => (D, Var X)-Bernstein."""
        samples = rng.uniform(-1.0, 1.0, size=200_000)
        samples -= samples.mean()
        params = BernsteinParams(1.0, float(samples.var()))
        report = empirical_mgf_check(samples, params)
        assert report["ok"], report

    def test_gaussian_violates_small_d_bound(self, rng):
        """A heavy-ish variable with an understated s must fail."""
        samples = rng.normal(0.0, 1.0, size=100_000)
        params = BernsteinParams(0.1, 0.01)  # s far below Var = 1
        report = empirical_mgf_check(samples, params)
        assert not report["ok"]


class TestDynamicsParams:
    """Lemma 4.2: the paper's (D, s) pairs certify real increments."""

    def _alpha_increments(self, dynamics, counts, i, reps, rng):
        n = int(counts.sum())
        alpha = counts / n
        expected = expected_alpha_next(alpha)[i]
        new = dynamics.population_step_batch(np.tile(counts, (reps, 1)), rng)
        return new[:, i] / n - expected

    @pytest.mark.parametrize(
        "dynamics,name",
        [(ThreeMajority(), "3-majority"), (TwoChoices(), "2-choices")],
        ids=["3maj", "2cho"],
    )
    def test_alpha_increment_certificate(self, dynamics, name, rng):
        counts = np.asarray([600, 250, 150], dtype=np.int64)
        n = int(counts.sum())
        alpha = counts / n
        params = alpha_params(alpha, 0, n, name)
        assert params.D == pytest.approx(1.0 / n)
        samples = self._alpha_increments(dynamics, counts, 0, 40_000, rng)
        report = empirical_mgf_check(samples, params, slack=1.02)
        assert report["ok"], report

    def test_delta_params_shape(self):
        alpha = np.asarray([0.5, 0.3, 0.2])
        params = delta_params(alpha, 0, 1, 100, "3-majority")
        assert params.D == pytest.approx(2.0 / 100)
        assert params.s == pytest.approx(2.0 * 0.8 / 100)

    @pytest.mark.parametrize(
        "dynamics,name",
        [(ThreeMajority(), "3-majority"), (TwoChoices(), "2-choices")],
        ids=["3maj", "2cho"],
    )
    def test_gamma_decrease_certificate(self, dynamics, name, rng):
        """Lemma 4.2(iii): gamma_{t-1} - gamma_t is one-sided Bernstein."""
        counts = np.asarray([500, 300, 200], dtype=np.int64)
        n = int(counts.sum())
        alpha = counts / n
        gamma0 = gamma_of_alpha(alpha)
        params = gamma_params(alpha, n, name)
        assert params.one_sided
        reps = 40_000
        new = (
            dynamics.population_step_batch(np.tile(counts, (reps, 1)), rng)
            / n
        )
        samples = gamma0 - np.einsum("rk,rk->r", new, new)
        # One-sided condition controls the MGF for lambda >= 0; the
        # increments also carry a drift (gamma is a submartingale) that
        # only helps, so the certificate must pass.
        report = empirical_mgf_check(samples, params, slack=1.02)
        assert report["ok"], report

    def test_gamma_params_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            gamma_params(np.asarray([0.5, 0.5]), 10, "voter")
