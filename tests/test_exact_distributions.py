"""Exact-distribution tests on tiny systems.

For very small n the full next-configuration distribution of each chain
can be enumerated in closed form; these tests compare the engines'
sampled frequencies against those exact distributions with chi-square
-style tolerances.  This is the strongest correctness statement in the
suite: not just matching moments, but matching *laws*.

The reference is one oracle for every dynamics: on the complete graph
with self-loops the vertices update independently given the current
configuration, and a vertex's next-opinion law depends on nothing but
its own opinion, so the next count vector is the convolution over
opinion groups of one multinomial per group over
``dynamics.single_vertex_law``.  Each ``single_vertex_law`` is checked
on its own elsewhere (by enumeration for 3-Majority, 2-Choices, Median
and h-Majority, by hand-computed values for Undecided-State; Voter's is
``alpha`` itself), and every ``population_step_batch`` — both
strategies of 2-Choices and of the Median rule included — is checked
against the oracle here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    Voter,
)
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


def _compositions(n, parts):
    """Every tuple of ``parts`` non-negative integers summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _multinomial_distribution(n, law):
    """Every outcome of ``Multinomial(n, law)`` with its probability."""
    dist = {}
    for combo in _compositions(n, len(law)):
        p = _multinomial_pmf(combo, law)
        if p > 0:
            dist[combo] = p
    return dist


def _next_count_distribution(dynamics, counts):
    """Exact law of the next count vector: per-group multinomials over
    ``dynamics.single_vertex_law``, convolved."""
    alpha = np.asarray(counts) / sum(counts)
    dist = {tuple([0] * len(counts)): 1.0}
    for group, size in enumerate(counts):
        if size == 0:
            continue
        law = dynamics.single_vertex_law(alpha, group)
        new_dist = {}
        for combo, p_group in _multinomial_distribution(size, law).items():
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

#: The Median rule's two strategies, picked by input size: n = 5, k = 3
#: runs the law tensor (k^2 R <= 4 sum_r n_r) and n = 7, k = 8 the
#: per-vertex strategy.  Each pair again differs in mass, and the
#: per-vertex pair has dead labels between alive ones.
MEDIAN_INPUTS = {
    "tensor": ([2, 1, 2], [1, 2, 1]),
    "vertices": ([2, 1, 0, 1, 0, 2, 1, 0], [0, 1, 0, 0, 3, 0, 0, 1]),
}

#: Single-strategy batch steps besides 3-Majority's (which
#: ``test_three_majority_batch`` checks): (dynamics, first row, second
#: row).  Undecided-State rows end in the undecided label, whose mass
#: differs from every decided label's, so a step that misplaces it shows.
BATCH_LAW_CASES = {
    "voter": (Voter(), [3, 2, 0], [2, 1, 1]),
    "undecided": (UndecidedStateDynamics(), [3, 1, 2], [1, 3, 1]),
    "5-majority": (HMajority(5), [2, 2, 1], [1, 3, 0]),
}


def _batch_samples(dynamics, first, second, rng):
    """REPS steps of each row, drawn by one call on a tiled matrix."""
    matrix = np.tile(np.asarray([first, second], dtype=np.int64), (REPS, 1))
    new = dynamics.population_step_batch(matrix, rng)
    return new[0::2], new[1::2]


def _spy_strategies(dynamics, methods, monkeypatch):
    """Record, by label, which of ``methods`` (label -> method name) run."""
    called = []
    for label, method in methods.items():
        original = getattr(dynamics, method)

        def spy(*args, _label=label, _original=original):
            called.append(_label)
            return _original(*args)

        monkeypatch.setattr(dynamics, method, spy)
    return called


def _compare_batch(dynamics, first, second, rng, label):
    samples = _batch_samples(dynamics, first, second, rng)
    for counts, rows in zip((first, second), samples):
        exact = _next_count_distribution(dynamics, counts)
        _compare(
            exact, _row_frequencies(rows), REPS, f"{label} batch {counts}"
        )


class TestExactLaws:
    def test_three_majority_population(self, rng):
        counts = [3, 2]
        dynamics = ThreeMajority()
        exact = _next_count_distribution(dynamics, counts)
        base = np.asarray(counts, dtype=np.int64)
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(base, rng), REPS
        )
        _compare(exact, sampled, REPS, "3maj population")

    def test_three_majority_agent_matches_population_law(self, rng):
        counts = [3, 2]
        dynamics = ThreeMajority()
        exact = _next_count_distribution(dynamics, counts)
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
        dynamics = TwoChoices()
        exact = _next_count_distribution(dynamics, counts)
        base = np.asarray(counts, dtype=np.int64)
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(base, rng), REPS
        )
        _compare(exact, sampled, REPS, "2cho population")

    @pytest.mark.parametrize("strategy", sorted(BATCH_INPUTS))
    def test_two_choices_batch(self, strategy, rng, monkeypatch):
        dynamics = TwoChoices()
        called = _spy_strategies(
            dynamics,
            {name: f"_batch_step_{name}" for name in ("dense", "sparse")},
            monkeypatch,
        )
        first, second = BATCH_INPUTS[strategy]
        _compare_batch(dynamics, first, second, rng, "2cho")
        assert called == [strategy]

    def test_three_majority_batch(self, rng):
        first, second = BATCH_INPUTS["dense"]
        _compare_batch(ThreeMajority(), first, second, rng, "3maj")

    @pytest.mark.parametrize("strategy", sorted(MEDIAN_INPUTS))
    def test_median_batch(self, strategy, rng, monkeypatch):
        dynamics = MedianRule()
        called = _spy_strategies(
            dynamics,
            {"tensor": "_step_rows", "vertices": "_step_vertices"},
            monkeypatch,
        )
        first, second = MEDIAN_INPUTS[strategy]
        _compare_batch(dynamics, first, second, rng, "median")
        assert called == [strategy]

    @pytest.mark.parametrize("case", sorted(BATCH_LAW_CASES))
    def test_batch_step_matches_exact_law(self, case, rng):
        dynamics, first, second = BATCH_LAW_CASES[case]
        _compare_batch(dynamics, first, second, rng, case)

    def test_two_choices_agent(self, rng):
        counts = [3, 2]
        dynamics = TwoChoices()
        exact = _next_count_distribution(dynamics, counts)
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
        dynamics = ThreeMajority()
        exact = _next_count_distribution(dynamics, counts)
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
        exact = _multinomial_distribution(4, counts / 4)
        dynamics = Voter()
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(counts, rng), REPS
        )
        _compare(exact, sampled, REPS, "voter")
