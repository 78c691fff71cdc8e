"""Exact-distribution tests on tiny systems.

For very small n the full next-configuration distribution of each chain
can be enumerated in closed form; these tests compare the engines'
sampled frequencies against those exact distributions with chi-square
-style tolerances.  This is the strongest correctness statement in the
suite: not just matching moments, but matching *laws*.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core import HMajority, ThreeMajority, TwoChoices, Voter
from repro.core.three_majority import three_majority_law
from repro.core.two_choices import two_choices_law
from repro.graphs import CompleteGraph
from repro.state import agents_to_counts, counts_to_agents


def _multinomial_pmf(counts, probabilities):
    n = int(sum(counts))
    log_p = math.lgamma(n + 1)
    for c, p in zip(counts, probabilities):
        if c and p == 0.0:
            return 0.0
        log_p -= math.lgamma(c + 1)
        if c:
            log_p += c * math.log(p)
    return math.exp(log_p)


def _multinomial_distribution(n, law):
    """Every outcome of ``Multinomial(n, law)`` with its probability."""
    dist = {}
    for combo in itertools.product(range(n + 1), repeat=len(law)):
        if sum(combo) != n:
            continue
        p = _multinomial_pmf(combo, law)
        if p > 0:
            dist[combo] = p
    return dist


def _next_count_distribution_3maj(counts):
    """Exact law of the next count vector for 3-Majority."""
    n = int(sum(counts))
    return _multinomial_distribution(
        n, three_majority_law(np.asarray(counts) / n)
    )


def _next_count_distribution_2cho(counts):
    """Exact law for 2-Choices: convolution of per-group multinomials."""
    n = int(sum(counts))
    alpha = np.asarray(counts) / n
    k = len(counts)
    dist = {tuple([0] * k): 1.0}
    for group, size in enumerate(counts):
        if size == 0:
            continue
        law = two_choices_law(alpha, group)
        new_dist = {}
        for combo in itertools.product(range(size + 1), repeat=k):
            if sum(combo) != size:
                continue
            p_group = _multinomial_pmf(combo, law)
            if p_group == 0:
                continue
            for partial, p_prev in dist.items():
                key = tuple(a + b for a, b in zip(partial, combo))
                new_dist[key] = new_dist.get(key, 0.0) + p_prev * p_group
        dist = new_dist
    return dist


def _sampled_frequencies(step, reps):
    freq = {}
    for _ in range(reps):
        key = tuple(int(x) for x in step())
        freq[key] = freq.get(key, 0) + 1
    return {key: count / reps for key, count in freq.items()}


def _row_frequencies(rows):
    """Empirical law of the count vectors in the rows of a matrix."""
    outcomes, counts = np.unique(rows, axis=0, return_counts=True)
    return {
        tuple(int(x) for x in outcome): count / len(rows)
        for outcome, count in zip(outcomes, counts)
    }


def _compare(exact, sampled, reps, label):
    for key, p in exact.items():
        q = sampled.get(key, 0.0)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / reps)
        assert abs(q - p) < 6 * sigma + 1e-4, (
            f"{label}: outcome {key} exact {p:.4f} vs sampled {q:.4f}"
        )
    # No phantom outcomes.
    for key in sampled:
        assert key in exact, f"{label}: impossible outcome {key} sampled"


REPS = 40_000

#: Two rows of different mass per batch input, so a step that mixes up
#: per-row offsets shows.  The sparse pair has a dead label between
#: alive ones and unequal alive counts.
BATCH_INPUTS = {
    "dense": ([3, 2, 0], [2, 1, 1]),
    "sparse": ([2, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 2, 0, 2, 1]),
}


def _batch_samples(dynamics, first, second, rng):
    """REPS steps of each row, drawn by one call on a tiled matrix."""
    matrix = np.tile(np.asarray([first, second], dtype=np.int64), (REPS, 1))
    new = dynamics.population_step_batch(matrix, rng)
    return new[0::2], new[1::2]


class TestExactLaws:
    def test_three_majority_population(self, rng):
        counts = [3, 2]
        exact = _next_count_distribution_3maj(counts)
        dynamics = ThreeMajority()
        base = np.asarray(counts, dtype=np.int64)
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(base, rng), REPS
        )
        _compare(exact, sampled, REPS, "3maj population")

    def test_three_majority_agent_matches_population_law(self, rng):
        counts = [3, 2]
        exact = _next_count_distribution_3maj(counts)
        dynamics = ThreeMajority()
        graph = CompleteGraph(5)
        opinions = counts_to_agents(np.asarray(counts))
        sampled = _sampled_frequencies(
            lambda: agents_to_counts(
                dynamics.agent_step(opinions, graph, rng), 2
            ),
            REPS,
        )
        _compare(exact, sampled, REPS, "3maj agent")

    def test_two_choices_population(self, rng):
        counts = [3, 2]
        exact = _next_count_distribution_2cho(counts)
        dynamics = TwoChoices()
        base = np.asarray(counts, dtype=np.int64)
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(base, rng), REPS
        )
        _compare(exact, sampled, REPS, "2cho population")

    def test_two_choices_pair_strategy(self, rng):
        counts = np.asarray([3, 2], dtype=np.int64)
        exact = _next_count_distribution_2cho([3, 2])
        dynamics = TwoChoices()
        alive = np.flatnonzero(counts)
        sampled = _sampled_frequencies(
            lambda: dynamics._population_step_pairs(counts, alive, 5, rng),
            REPS,
        )
        _compare(exact, sampled, REPS, "2cho pairs")

    @pytest.mark.parametrize("strategy", sorted(BATCH_INPUTS))
    def test_two_choices_batch(self, strategy, rng, monkeypatch):
        dynamics = TwoChoices()
        called = []
        for name in ("dense", "sparse"):
            original = getattr(dynamics, f"_batch_step_{name}")

            def spy(*args, _name=name, _original=original):
                called.append(_name)
                return _original(*args)

            monkeypatch.setattr(dynamics, f"_batch_step_{name}", spy)
        first, second = BATCH_INPUTS[strategy]
        samples = _batch_samples(dynamics, first, second, rng)
        assert called == [strategy]
        for counts, rows in zip((first, second), samples):
            exact = _next_count_distribution_2cho(counts)
            _compare(
                exact, _row_frequencies(rows), REPS, f"2cho batch {counts}"
            )

    def test_three_majority_batch(self, rng):
        first, second = BATCH_INPUTS["dense"]
        samples = _batch_samples(ThreeMajority(), first, second, rng)
        for counts, rows in zip((first, second), samples):
            exact = _next_count_distribution_3maj(counts)
            _compare(
                exact, _row_frequencies(rows), REPS, f"3maj batch {counts}"
            )

    def test_two_choices_agent(self, rng):
        counts = [3, 2]
        exact = _next_count_distribution_2cho(counts)
        dynamics = TwoChoices()
        graph = CompleteGraph(5)
        opinions = counts_to_agents(np.asarray(counts))
        sampled = _sampled_frequencies(
            lambda: agents_to_counts(
                dynamics.agent_step(opinions, graph, rng), 2
            ),
            REPS,
        )
        _compare(exact, sampled, REPS, "2cho agent")

    def test_three_opinions_three_majority(self, rng):
        counts = [2, 1, 1]
        exact = _next_count_distribution_3maj(counts)
        dynamics = ThreeMajority()
        base = np.asarray(counts, dtype=np.int64)
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(base, rng), REPS
        )
        _compare(exact, sampled, REPS, "3maj k=3")

    def test_h_majority_agent_matches_population_law(self, rng):
        # h = 4 over three opinions exercises two- and three-way ties.
        counts = np.asarray([2, 2, 1])
        dynamics = HMajority(4)
        law = dynamics.single_vertex_law(counts / 5, 0)
        exact = _multinomial_distribution(5, law)
        graph = CompleteGraph(5)
        opinions = counts_to_agents(counts)
        sampled = _sampled_frequencies(
            lambda: agents_to_counts(
                dynamics.agent_step(opinions, graph, rng), 3
            ),
            REPS,
        )
        _compare(exact, sampled, REPS, "4-majority agent")

    def test_voter_exact(self, rng):
        counts = np.asarray([2, 2], dtype=np.int64)
        alpha = counts / 4
        exact = {}
        for combo in itertools.product(range(5), repeat=2):
            if sum(combo) == 4:
                p = _multinomial_pmf(combo, alpha)
                if p > 0:
                    exact[combo] = p
        dynamics = Voter()
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(counts, rng), REPS
        )
        _compare(exact, sampled, REPS, "voter")
