"""Tests for the dynamics implementations (correctness of the chains).

The load-bearing checks:

* both step flavours conserve mass and never revive dead opinions;
* consensus is absorbing;
* the closed-form laws (eqs. (5), (6)) match Monte-Carlo estimates from
  both the population and the agent engines — i.e. the exact count-level
  simulation and the vertex-level simulation are the same Markov chain;
* 3-Majority's "first-two-else-third" rule is majority-of-three with
  uniform tie-breaking (the HMajority(3) cross-check);
* MedianRule coincides with 2-Choices for k = 2 (the [DGMSS11] remark).
"""

from __future__ import annotations

import itertools
import math

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
    three_majority_law,
    two_choices_law,
    with_undecided_slot,
)
from repro.core.h_majority import majority_winners
from repro.graphs import CompleteGraph
from repro.state import counts_to_agents

ALL_SIMPLE_DYNAMICS = [
    ThreeMajority(),
    TwoChoices(),
    Voter(),
    MedianRule(),
    HMajority(3),
    HMajority(5),
]

count_vectors = st.lists(
    st.integers(min_value=0, max_value=30), min_size=2, max_size=8
).filter(lambda c: sum(c) >= 2)


@pytest.mark.parametrize(
    "dynamics", ALL_SIMPLE_DYNAMICS, ids=dynamics_id
)
class TestUniversalInvariants:
    def test_population_step_conserves_mass(self, dynamics, rng):
        counts = np.asarray([10, 20, 5, 0, 15], dtype=np.int64)
        new = dynamics.population_step(counts, rng)
        assert new.sum() == counts.sum()
        assert new.dtype == np.int64

    def test_population_step_never_revives_dead(self, dynamics, rng):
        counts = np.asarray([25, 0, 25, 0], dtype=np.int64)
        for _ in range(20):
            counts = dynamics.population_step(counts, rng)
            assert counts[1] == 0 and counts[3] == 0

    def test_consensus_absorbing_population(self, dynamics, rng):
        counts = np.asarray([0, 50, 0], dtype=np.int64)
        for _ in range(5):
            counts = dynamics.population_step(counts, rng)
        assert counts.tolist() == [0, 50, 0]

    def test_agent_step_shape_and_labels(self, dynamics, rng):
        graph = CompleteGraph(40)
        opinions = counts_to_agents(np.asarray([10, 20, 10]))
        new = dynamics.agent_step_batch(opinions[None], graph, rng)[0]
        assert new.shape == opinions.shape
        assert set(np.unique(new)) <= {0, 1, 2}

    def test_consensus_absorbing_agent(self, dynamics, rng):
        graph = CompleteGraph(30)
        opinions = np.full(30, 2, dtype=np.int64)
        new = dynamics.agent_step_batch(opinions[None], graph, rng)[0]
        assert np.all(new == 2)

    @given(counts=count_vectors)
    @settings(max_examples=25, deadline=None)
    def test_population_step_property(self, dynamics, counts):
        local_rng = np.random.default_rng(0)
        counts = np.asarray(counts, dtype=np.int64)
        new = dynamics.population_step(counts, local_rng)
        assert new.sum() == counts.sum()
        assert np.all(new >= 0)
        assert np.all(new[counts == 0] == 0)


class TestThreeMajorityLaw:
    def test_law_sums_to_one(self):
        alpha = np.asarray([0.5, 0.3, 0.2])
        assert three_majority_law(alpha).sum() == pytest.approx(1.0)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=9
        ).filter(lambda a: sum(a) > 0)
    )
    @settings(max_examples=100, deadline=None)
    def test_law_is_distribution(self, raw):
        alpha = np.asarray(raw)
        alpha = alpha / alpha.sum()
        law = three_majority_law(alpha)
        assert law.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(law >= -1e-12)

    def test_law_matches_enumeration(self):
        """Eq. (5) equals brute-force enumeration over (w1, w2, w3)."""
        alpha = np.asarray([0.5, 0.3, 0.2])
        k = alpha.size
        law = np.zeros(k)
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    p = alpha[a] * alpha[b] * alpha[c]
                    winner = a if a == b else c
                    law[winner] += p
        assert three_majority_law(alpha) == pytest.approx(law)

    def test_rule_equals_majority_with_random_ties(self):
        """First-two-else-third == majority-of-3, uniform tie-break.

        With all three distinct (a tie), each sampled opinion should win
        w.p. 1/3: P[adopt c-slot value] covers that case.  Verified via
        the exact law against HMajority(3)'s DP law.
        """
        alpha = np.asarray([0.4, 0.35, 0.25])
        dp_law = HMajority(3).single_vertex_law(alpha, 0)
        assert three_majority_law(alpha) == pytest.approx(dp_law)

    def test_population_step_matches_law(self, rng):
        n = 200_000
        counts = np.asarray([n // 2, 3 * n // 10, n // 5])
        alpha = counts / n
        new = ThreeMajority().population_step(counts, rng)
        law = three_majority_law(alpha)
        sigma = np.sqrt(n * law * (1 - law))
        assert np.all(np.abs(new - n * law) < 5 * sigma)

    def test_expected_alpha_next(self):
        alpha = np.asarray([0.6, 0.4])
        expected = ThreeMajority().expected_alpha_next(alpha)
        gamma = 0.36 + 0.16
        assert expected[0] == pytest.approx(0.6 * (1 + 0.6 - gamma))


class TestTwoChoicesLaw:
    def test_law_sums_to_one(self):
        alpha = np.asarray([0.5, 0.3, 0.2])
        for current in range(3):
            law = two_choices_law(alpha, current)
            assert law.sum() == pytest.approx(1.0)

    def test_law_matches_enumeration(self):
        """Eq. (6) equals brute-force enumeration over (w1, w2)."""
        alpha = np.asarray([0.5, 0.3, 0.2])
        k = alpha.size
        for own in range(k):
            law = np.zeros(k)
            for a in range(k):
                for b in range(k):
                    p = alpha[a] * alpha[b]
                    law[a if a == b else own] += p
            assert two_choices_law(alpha, own) == pytest.approx(law)

    def test_population_step_matches_mean(self, rng):
        n = 100_000
        counts = np.asarray([60_000, 40_000])
        alpha = counts / n
        total = np.zeros(2)
        reps = 50
        for _ in range(reps):
            total += TwoChoices().population_step(counts, rng)
        mean = total / reps / n
        expected = TwoChoices().expected_alpha_next(alpha)
        assert mean == pytest.approx(expected, abs=3e-3)


def _enumerated_majority_law(alpha, h):
    """Majority-of-h law by summing over every count vector of h draws."""
    alpha = np.asarray(alpha, dtype=np.float64)
    law = np.zeros_like(alpha)
    for combo in itertools.product(range(h + 1), repeat=alpha.size):
        if sum(combo) != h:
            continue
        prob = math.factorial(h)
        for c, a in zip(combo, alpha):
            prob *= a**c / math.factorial(c)
        top = max(combo)
        winners = [i for i, c in enumerate(combo) if c == top]
        for i in winners:
            law[i] += prob / len(winners)
    return law


class TestHMajority:
    def test_h1_is_voter(self, rng):
        alpha = np.asarray([0.3, 0.7])
        law = HMajority(1).single_vertex_law(alpha, 0)
        assert law == pytest.approx(alpha)

    def test_rejects_h0(self):
        with pytest.raises(ValueError):
            HMajority(0)

    def test_majority_winners_clear_majority(self, rng):
        samples = np.asarray([[1, 1, 2], [0, 2, 2], [3, 3, 3]])
        winners = majority_winners(samples, rng)
        assert winners.tolist() == [1, 2, 3]

    def test_majority_winners_tie_uniform(self, rng):
        samples = np.tile(np.asarray([[0, 1, 2]]), (30_000, 1))
        winners = majority_winners(samples, rng)
        histogram = np.bincount(winners, minlength=3) / 30_000
        assert np.all(np.abs(histogram - 1 / 3) < 0.02)

    def test_exact_law_is_distribution(self):
        alpha = np.asarray([0.25, 0.25, 0.5])
        for h in (2, 3, 4, 5):
            law = HMajority(h).single_vertex_law(alpha, 0)
            assert law.sum() == pytest.approx(1.0)
            assert np.all(law >= 0)

    def test_exact_law_support_20_is_uniform(self):
        alpha = np.full(20, 1 / 20)
        law = HMajority(3).single_vertex_law(alpha, 0)
        np.testing.assert_allclose(law, 1 / 20, rtol=0, atol=1e-15)

    def test_law_batch_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for k in range(1, 6):
            rows = [rng.dirichlet(np.ones(k)) for _ in range(3)]
            rows += list(np.eye(k))  # one-hot (consensus) rows
            if k > 2:
                dead = rng.dirichlet(np.ones(k))
                dead[[0, k - 1]] = 0.0
                rows.append(dead / dead.sum())
            alpha = np.stack(rows)
            for h in range(1, 7):
                law = HMajority(h).law_batch(alpha)
                expected = np.stack(
                    [_enumerated_majority_law(row, h) for row in alpha]
                )
                np.testing.assert_allclose(
                    law, expected, rtol=0, atol=1e-12, err_msg=f"h={h}"
                )
                assert (law[alpha == 0] == 0).all()

    def test_law_batch_h1_is_alpha(self):
        alpha = np.random.default_rng(1).dirichlet(np.ones(7), size=6)
        law = HMajority(1).law_batch(alpha)
        np.testing.assert_allclose(law, alpha, rtol=0, atol=1e-14)

    def test_law_batch_h3_is_three_majority_law(self):
        alpha = np.random.default_rng(2).dirichlet(np.ones(9), size=6)
        law = HMajority(3).law_batch(alpha)
        expected = np.stack([three_majority_law(row) for row in alpha])
        np.testing.assert_allclose(law, expected, rtol=0, atol=1e-14)

    def test_law_batch_rows_equal_single_vertex_law(self):
        alpha = np.random.default_rng(3).dirichlet(np.ones(6), size=5)
        alpha[1] = [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]
        dynamics = HMajority(5)
        law = dynamics.law_batch(alpha)
        for row in range(alpha.shape[0]):
            np.testing.assert_allclose(
                law[row],
                dynamics.single_vertex_law(alpha[row], 0),
                rtol=0,
                atol=1e-15,
            )

    @pytest.mark.parametrize(
        "h,k",
        [(h, k) for h in (2, 5, 7, 9, 15) for k in (2, 16, 256)]
        + [(31, 2), (130, 2)],
    )
    def test_law_batch_is_stable(self, h, k):
        alpha = np.random.default_rng(h * 1000 + k).dirichlet(
            np.ones(k), size=4
        )
        alpha[0] = 1 / k
        law = HMajority(h).law_batch(alpha)
        assert np.abs(law.sum(axis=1) - 1).max() <= 1e-12
        assert law.min() >= -1e-15

    def test_batch_uneven_row_mass(self):
        # Rows with different totals each keep their own mass.
        matrix = np.asarray([[30, 30, 40], [10, 20, 30]])
        out = HMajority(3).population_step_batch(
            matrix, np.random.default_rng(0)
        )
        assert out.sum(axis=1).tolist() == [100, 60]

    def test_population_step_matches_exact_law(self, rng):
        n = 100_000
        counts = np.asarray([n // 2, n // 4, n // 4])
        alpha = counts / n
        law = HMajority(5).single_vertex_law(alpha, 0)
        new = HMajority(5).population_step(counts, rng)
        sigma = np.sqrt(n * law * (1 - law))
        assert np.all(np.abs(new - n * law) < 5 * sigma)

    def test_larger_h_amplifies_leader(self):
        alpha = np.asarray([0.6, 0.4])
        p3 = HMajority(3).single_vertex_law(alpha, 0)[0]
        p7 = HMajority(7).single_vertex_law(alpha, 0)[0]
        assert p7 > p3 > alpha[0]


class TestVoter:
    def test_martingale(self):
        alpha = np.asarray([0.1, 0.9])
        assert Voter().expected_alpha_next(alpha) == pytest.approx(alpha)

    def test_population_step_multinomial(self, rng):
        counts = np.asarray([5000, 5000])
        new = Voter().population_step(counts, rng)
        assert abs(int(new[0]) - 5000) < 500


class TestMedianRule:
    def test_single_vertex_law_distribution(self):
        alpha = np.asarray([0.2, 0.3, 0.5])
        for own in range(3):
            law = MedianRule().single_vertex_law(alpha, own)
            assert law.sum() == pytest.approx(1.0)
            assert np.all(law >= 0)

    def test_law_matches_enumeration(self):
        alpha = np.asarray([0.2, 0.3, 0.1, 0.4])
        k = alpha.size
        for own in range(k):
            brute = np.zeros(k)
            for a in range(k):
                for b in range(k):
                    med = sorted((own, a, b))[1]
                    brute[med] += alpha[a] * alpha[b]
            law = MedianRule().single_vertex_law(alpha, own)
            assert law == pytest.approx(brute, abs=1e-12)

    def test_coincides_with_two_choices_for_k2(self):
        """[DGMSS11]: median of {own, X, Y} == 2-Choices when k = 2."""
        alpha = np.asarray([0.35, 0.65])
        for own in range(2):
            med = MedianRule().single_vertex_law(alpha, own)
            cho = two_choices_law(alpha, own)
            assert med == pytest.approx(cho)

    def test_median_validity_not_plurality(self):
        """The median rule can elect a non-plurality opinion: with mass
        on the extremes, the middle opinion wins — the validity caveat
        that motivates majority dynamics for k > 2."""
        alpha = np.asarray([0.45, 0.1, 0.45])
        expected = MedianRule().expected_alpha_next(alpha)
        assert expected[1] > alpha[1]


class TestUndecided:
    def test_with_undecided_slot(self):
        out = with_undecided_slot(np.asarray([3, 4]))
        assert out.tolist() == [3, 4, 0]

    def test_population_step_conserves(self, rng):
        dynamics = UndecidedStateDynamics()
        counts = with_undecided_slot(np.asarray([40, 40, 20]))
        for _ in range(10):
            counts = dynamics.population_step(counts, rng)
            assert counts.sum() == 100

    def test_clash_produces_undecided(self, rng):
        dynamics = UndecidedStateDynamics()
        counts = with_undecided_slot(np.asarray([500, 500]))
        new = dynamics.population_step(counts, rng)
        assert new[2] > 0  # clashes must have occurred w.o.p.

    def test_single_vertex_law(self):
        dynamics = UndecidedStateDynamics()
        alpha = np.asarray([0.4, 0.4, 0.2])  # last = undecided
        law = dynamics.single_vertex_law(alpha, 0)
        assert law[0] == pytest.approx(0.6)  # stay: alpha_0 + alpha_u
        assert law[2] == pytest.approx(0.4)
        law_u = dynamics.single_vertex_law(alpha, 2)
        assert law_u == pytest.approx(alpha)

    def test_expected_alpha_next_sums_to_one(self):
        dynamics = UndecidedStateDynamics()
        alpha = np.asarray([0.3, 0.3, 0.2, 0.2])
        expected = dynamics.expected_alpha_next(alpha)
        assert expected.sum() == pytest.approx(1.0)

    def test_agent_step_semantics(self, rng):
        dynamics = UndecidedStateDynamics(num_decided=2)
        graph = CompleteGraph(6)
        # All vertices decided 0 except one undecided (label 2).
        opinions = np.asarray([0, 0, 0, 0, 0, 2], dtype=np.int64)
        new = dynamics.agent_step_batch(opinions[None], graph, rng)[0]
        # Decided-0 vertices can only stay 0 (they see 0 or undecided).
        assert set(np.unique(new[:5])) <= {0}

    def test_agent_step_requires_label_binding(self, rng):
        """Regression: no more opinions.max() fallback, which mistook
        the top decided label for the undecided state on any fully
        decided start."""
        from repro.errors import ConfigurationError

        dynamics = UndecidedStateDynamics()
        opinions = np.asarray([0, 1, 0, 1], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="num_decided"):
            dynamics.agent_step_batch(opinions[None], CompleteGraph(4), rng)

    def test_decided_start_on_non_complete_graph(self, rng):
        """Regression: from a fully decided start on a non-complete
        graph, vertices holding the top decided label must clash into
        the undecided state — never be treated as undecided and adopt
        a decided opinion directly."""
        from repro.engine import BatchAgentEngine
        from repro.graphs.generators import random_regular

        n = 200
        graph = random_regular(n, 8, seed=1, self_loops=True)
        opinions = np.asarray([0, 1] * (n // 2), dtype=np.int64)
        engine = BatchAgentEngine(
            UndecidedStateDynamics(),
            graph,
            opinions,
            num_replicas=1,
            num_opinions=3,  # binds the undecided label to 2
            seed=rng,
        )
        assert engine.dynamics.num_decided == 2
        new = engine.step()[0]
        # One synchronous USD step can only keep a decided opinion or
        # clash into undecided; a decided vertex can never jump to the
        # *other* decided opinion in one round.
        assert set(np.unique(new[opinions == 0])) <= {0, 2}
        assert set(np.unique(new[opinions == 1])) <= {1, 2}
        # Clashes must actually occur w.o.p. from a half/half start.
        assert (new == 2).any()

    def test_bind_opinion_space_conflict_raises(self):
        from repro.errors import ConfigurationError

        dynamics = UndecidedStateDynamics(num_decided=2)
        dynamics.bind_opinion_space(3)  # consistent: idempotent
        assert dynamics.num_decided == 2
        with pytest.raises(ConfigurationError, match="fresh instance"):
            dynamics.bind_opinion_space(5)

    def test_agent_engine_inferred_labels_fail_loudly(self, rng):
        """The graph engine's label-maximum num_opinions fallback must
        not silently bind a fully decided start's top label as
        undecided — the unbound dynamics raises as soon as the engine
        checks the start for consensus."""
        from repro.engine import BatchAgentEngine
        from repro.errors import ConfigurationError

        dynamics = UndecidedStateDynamics()
        with pytest.raises(ConfigurationError, match="num_decided"):
            BatchAgentEngine(
                dynamics,
                CompleteGraph(4),
                np.asarray([0, 1, 0, 1], dtype=np.int64),
                num_replicas=1,
                seed=rng,  # num_opinions omitted on purpose
            )
        assert dynamics.num_decided is None

    def test_population_matches_expected(self, rng):
        dynamics = UndecidedStateDynamics()
        counts = with_undecided_slot(np.asarray([600, 300]))
        counts[2] = 100
        counts[0] -= 100
        n = counts.sum()
        alpha = counts / n
        total = np.zeros(3)
        reps = 400
        for _ in range(reps):
            total += dynamics.population_step(counts, rng)
        mean = total / reps / n
        assert mean == pytest.approx(
            dynamics.expected_alpha_next(alpha), abs=5e-3
        )


class TestEngineEquivalence:
    """Population and agent chains agree on the complete graph."""

    @pytest.mark.parametrize(
        "dynamics",
        [
            ThreeMajority(),
            TwoChoices(),
            Voter(),
            MedianRule(),
            HMajority(5),
            HMajority(7),
        ],
        ids=lambda d: d.name,
    )
    def test_one_step_mean_agreement(self, dynamics, rng_factory):
        counts = np.asarray([500, 300, 200], dtype=np.int64)
        n = int(counts.sum())
        k = counts.size
        reps = 1200
        rng_a, rng_b = rng_factory(11), rng_factory(12)
        pop_mean = dynamics.population_step_batch(
            np.tile(counts, (reps, 1)), rng_a
        ).mean(axis=0)
        new = dynamics.agent_step_batch(
            np.tile(counts_to_agents(counts), (reps, 1)),
            CompleteGraph(n),
            rng_b,
        )
        agent_mean = np.asarray(
            [(new == label).sum(axis=1).mean() for label in range(k)]
        )
        # Means should agree within a few standard errors (~ sqrt(n)).
        tolerance = 6 * np.sqrt(n) / np.sqrt(reps) * 3
        assert np.all(np.abs(pop_mean - agent_mean) < tolerance)
