"""Property tests: every closed-form single-vertex law is a distribution.

The exact-law oracles and the theory cross-checks rely on
``Dynamics.single_vertex_law``; these tests sweep random configurations
with hypothesis and assert the basic probabilistic contracts, plus the
consistency between each law and its ``expected_alpha_next``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamics_ids import dynamics_id
from repro.core import (
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    Voter,
)

alphas = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6
).map(lambda raw: np.asarray(raw) / sum(raw))

LAW_DYNAMICS = [
    ThreeMajority(),
    TwoChoices(),
    Voter(),
    MedianRule(),
    HMajority(3),
    HMajority(4),
]


@pytest.mark.parametrize(
    "dynamics", LAW_DYNAMICS, ids=dynamics_id
)
class TestLawContracts:
    @given(alpha=alphas)
    @settings(max_examples=30, deadline=None)
    def test_law_is_distribution(self, dynamics, alpha):
        for current in range(alpha.size):
            law = dynamics.single_vertex_law(alpha, current)
            assert law.shape == alpha.shape
            assert np.all(law >= -1e-12)
            assert law.sum() == pytest.approx(1.0, abs=1e-9)

    @given(alpha=alphas)
    @settings(max_examples=30, deadline=None)
    def test_dead_opinions_stay_dead(self, dynamics, alpha):
        padded = np.concatenate([alpha, [0.0]])
        law = dynamics.single_vertex_law(padded, 0)
        assert law[-1] == pytest.approx(0.0, abs=1e-12)

    @given(alpha=alphas)
    @settings(max_examples=20, deadline=None)
    def test_mixture_matches_expected_alpha(self, dynamics, alpha):
        """sum_m alpha_m * law(., m) == E[alpha'] (law of total prob.)."""
        mixed = np.zeros_like(alpha)
        for m in range(alpha.size):
            mixed += alpha[m] * dynamics.single_vertex_law(alpha, int(m))
        expected = dynamics.expected_alpha_next(alpha)
        assert mixed == pytest.approx(expected, abs=1e-9)


class TestUndecidedLawContract:
    @given(alpha=alphas)
    @settings(max_examples=30, deadline=None)
    def test_law_is_distribution(self, alpha):
        dynamics = UndecidedStateDynamics()
        # Interpret the last entry as the undecided share.
        for current in range(alpha.size):
            law = dynamics.single_vertex_law(alpha, current)
            assert law.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(law >= -1e-12)

    @given(alpha=alphas)
    @settings(max_examples=20, deadline=None)
    def test_mixture_matches_expected(self, alpha):
        dynamics = UndecidedStateDynamics()
        mixed = np.zeros_like(alpha)
        for m in range(alpha.size):
            mixed += alpha[m] * dynamics.single_vertex_law(alpha, int(m))
        assert mixed == pytest.approx(
            dynamics.expected_alpha_next(alpha), abs=1e-9
        )
