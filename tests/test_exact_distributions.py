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

Off the complete graph the same law holds vertex by vertex: given the
opinions, vertices update independently and vertex v draws from
``single_vertex_law(alpha_N(v), x_v)``, where ``alpha_N(v)`` is the
opinion frequency over v's neighbourhood.  The next count vector is the
convolution of these per-vertex laws, which checks ``agent_step_batch``
on sparse graphs, per outcome and per vertex.

The asynchronous chain gets the same treatment from the same laws: one
tick moves one unit from label i to label j with probability
``alpha_i * single_vertex_law(alpha, i)[j]``.  That one-tick law checks
every ``async_population_step_batch``.

Multi-step laws come from one absorbing-chain helper: the exact
transition matrix of a one-step law over all compositions of a tiny n
gives the law of the stopping step and of the leader when the chain
stops.  The engines' runs must match it (a two-sided DKW bound on the
stopping-step CDF, 6σ on the leaders): the synchronous chain's consensus
round on ``batch`` and on ``agent-batch`` over the complete graph, its
stopping round under each adversary (one round is the dynamics' law,
then the corruption's), and the asynchronous chain's consensus tick.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.adversary import (
    RandomCorruption,
    ReviveWeakest,
    SupportRunnerUp,
    near_consensus_target,
)
from repro.core import (
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    Voter,
)
from repro.engine import (
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
)
from repro.graphs import CompleteGraph, cycle_graph
from repro.graphs.generators import erdos_renyi, random_regular
from repro.state import counts_to_agents


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


def _next_tick_distribution(dynamics, counts):
    """Exact law of the count vector after one asynchronous tick.

    The updating vertex holds label i with probability ``alpha_i`` and
    moves to label j with probability
    ``dynamics.single_vertex_law(alpha, i)[j]``; j = i leaves the
    configuration unchanged.
    """
    counts = tuple(int(c) for c in counts)
    alpha = np.asarray(counts) / sum(counts)
    dist = {}
    for old, share in enumerate(alpha):
        if share == 0.0:
            continue
        law = dynamics.single_vertex_law(alpha, old)
        for new, p in enumerate(law):
            if p <= 0.0:
                continue
            moved = list(counts)
            moved[old] -= 1
            moved[new] += 1
            key = tuple(moved)
            dist[key] = dist.get(key, 0.0) + share * p
    return dist


def _corruption_distribution(adversary, counts):
    """Exact law of one corruption of ``counts``.

    ``SupportRunnerUp`` and ``ReviveWeakest`` are deterministic, so each
    state maps through their own ``corrupt``.  ``RandomCorruption`` at
    F = 1 moves one victim, of label i with probability ``alpha_i``, to
    a uniformly random label.
    """
    if isinstance(adversary, RandomCorruption):
        assert adversary.budget == 1
        k = len(counts)
        dist = {}
        for old, size in enumerate(counts):
            for new in range(k):
                moved = list(counts)
                moved[old] -= 1
                moved[new] += 1
                key = tuple(moved)
                dist[key] = dist.get(key, 0.0) + size / sum(counts) / k
        return {key: p for key, p in dist.items() if p > 0.0}
    corrupted = adversary.corrupt(np.asarray(counts, dtype=np.int64), None)
    return {tuple(int(c) for c in corrupted): 1.0}


def _adversarial_round_distribution(dynamics, adversary, counts):
    """Exact law of one adversarial round: the dynamics, then the
    corruption."""
    dist = {}
    for mid, p in _next_count_distribution(dynamics, counts).items():
        for out, q in _corruption_distribution(adversary, mid).items():
            dist[out] = dist.get(out, 0.0) + p * q
    return dist


def _absorption_law(step_law, stop, start, tol=1e-12):
    """Exact stopping-step CDF and stop-state leader law of a chain.

    ``step_law(state)`` is the exact law of the next state (a dict), and
    ``stop(counts)`` the stopping rule.  Builds the transition matrix
    over every composition of ``n = sum(start)`` and pushes the start's
    mass through it, removing mass as it reaches a stopping state.
    Returns ``(cdf, leaders)``: ``cdf[t]`` is the probability of having
    stopped by step t, ``leaders[j]`` that label j leads the stop
    state.  Mass caught in an absorbing non-stopping state (USD's
    all-undecided one) is censored: it never reaches the CDF.
    """
    n, k = sum(start), len(start)
    states = list(_compositions(n, k))
    index = {state: i for i, state in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for state in states:
        for nxt, p in step_law(state).items():
            matrix[index[state], index[nxt]] += p
    stopped = np.asarray([bool(stop(np.asarray(s))) for s in states])
    live = ~stopped & (np.diag(matrix) < 1.0 - tol)
    mass = np.zeros(len(states))
    mass[index[tuple(start)]] = 1.0
    absorbed = np.zeros(len(states))
    cdf = []
    while True:
        absorbed += np.where(stopped, mass, 0.0)
        mass = np.where(stopped, 0.0, mass)
        cdf.append(absorbed.sum())
        if mass[live].sum() < tol:
            break
        mass = mass @ matrix
    leaders = np.zeros(k)
    for state, p in zip(states, absorbed):
        if p > 0.0:
            leaders[int(np.argmax(state))] += p
    return np.asarray(cdf), leaders


def _is_consensus(dynamics, counts):
    """The dynamics' own consensus rule on one count vector."""
    return bool(dynamics.consensus_mask_batch(counts[None])[0])


def _check_stopping_law(label, results, cdf, leaders, steps):
    """Runs against an exact absorption law: a two-sided DKW bound on
    the stopping-step CDF, 6σ on the stop-state leaders.  ``steps(r)``
    reads a result's stopping step."""
    runs = len(results)
    stopped = [r for r in results if r.converged]
    times = np.asarray([steps(r) for r in stopped], dtype=np.int64)
    horizon = max(len(cdf), int(times.max(initial=0)) + 1)
    exact = np.concatenate([cdf, np.full(horizon - len(cdf), cdf[-1])])
    sampled = np.bincount(times, minlength=horizon).cumsum() / runs
    gap = np.abs(sampled - exact).max()
    bound = math.sqrt(math.log(2 / DKW_DELTA) / (2 * runs))
    assert gap < bound, (
        f"{label}: stopping-step CDF off the exact chain by {gap:.4f} "
        f"(DKW bound {bound:.4f})"
    )
    led = np.bincount(
        [int(np.argmax(r.final_counts)) for r in stopped],
        minlength=len(leaders),
    ) / runs
    sigma = np.sqrt(leaders * (1 - leaders) / runs)
    assert (np.abs(led - leaders) < 6 * sigma + 1e-4).all(), (
        f"{label}: leader frequencies {led} vs exact {leaders}"
    )


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


def _agent_frequencies(dynamics, graph, counts, rng):
    """Empirical law of the next count vector of REPS agent-level rows,
    all starting from ``counts``' label blocks, stepped in one call."""
    opinions = counts_to_agents(np.asarray(counts))
    new = dynamics.agent_step_batch(np.tile(opinions, (REPS, 1)), graph, rng)
    return _row_frequencies(_label_counts(new, len(counts)))


def _label_counts(opinions, k):
    """Per-row count vectors of an ``(R, n)`` opinion matrix."""
    return np.stack(
        [(opinions == label).sum(axis=1) for label in range(k)], axis=1
    )


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
        sampled = _agent_frequencies(dynamics, CompleteGraph(5), counts, rng)
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
        sampled = _agent_frequencies(dynamics, CompleteGraph(5), counts, rng)
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
        sampled = _agent_frequencies(dynamics, CompleteGraph(5), counts, rng)
        _compare(exact, sampled, REPS, "4-majority agent")

    def test_voter_exact(self, rng):
        counts = np.asarray([2, 2], dtype=np.int64)
        exact = _multinomial_distribution(4, counts / 4)
        dynamics = Voter()
        sampled = _sampled_frequencies(
            lambda: dynamics.population_step(counts, rng), REPS
        )
        _compare(exact, sampled, REPS, "voter")


#: One-tick cases: (dynamics, first row, second row), rows of different
#: mass.  4-Majority exercises ties among the sampled neighbours.
TICK_LAW_CASES = {
    "3-majority": (ThreeMajority(), [3, 2, 0], [2, 1, 1]),
    "2-choices": (TwoChoices(), [3, 2, 0], [2, 1, 1]),
    "voter": (Voter(), [3, 2, 0], [2, 1, 1]),
    "median": (MedianRule(), [2, 1, 2], [1, 2, 1]),
    "undecided": (UndecidedStateDynamics(), [3, 1, 2], [1, 3, 1]),
    "5-majority": (HMajority(5), [2, 2, 1], [1, 3, 0]),
    "4-majority": (HMajority(4), [2, 2, 1], [1, 2, 1]),
}

#: Consensus-tick cases at n = 4: (dynamics, start).  The Undecided-State
#: start holds two decided opinions and one undecided vertex (last).
#: n stays at 4 on purpose: a stop recorded one tick late shifts the
#: tick CDF by more than the DKW bound here, and by less at n = 6.
CONSENSUS_TICK_CASES = {
    "3-majority": (ThreeMajority(), [2, 1, 1]),
    "2-choices": (TwoChoices(), [2, 1, 1]),
    "voter": (Voter(), [2, 2]),
    "median": (MedianRule(), [2, 1, 1]),
    "undecided": (UndecidedStateDynamics(), [2, 1, 1]),
    "4-majority": (HMajority(4), [2, 1, 1]),
}

#: Asynchronous rows per consensus-tick case, and the DKW confidence.
TICK_RUNS = 4_000
DKW_DELTA = 1e-6


class TestAsyncExactLaws:
    @pytest.mark.parametrize("case", sorted(TICK_LAW_CASES))
    def test_one_tick_matches_exact_law(self, case, rng):
        dynamics, first, second = TICK_LAW_CASES[case]
        matrix = np.tile(
            np.asarray([first, second], dtype=np.int64), (REPS, 1)
        )
        new = dynamics.async_population_step_batch(matrix, rng)
        for counts, rows in zip((first, second), (new[0::2], new[1::2])):
            _compare(
                _next_tick_distribution(dynamics, counts),
                _row_frequencies(rows),
                REPS,
                f"{case} tick {counts}",
            )

    @pytest.mark.parametrize("case", sorted(CONSENSUS_TICK_CASES))
    def test_consensus_tick_law_matches_exact_chain(self, case):
        dynamics, start = CONSENSUS_TICK_CASES[case]
        cdf, leaders = _absorption_law(
            functools.partial(_next_tick_distribution, dynamics),
            functools.partial(_is_consensus, dynamics),
            start,
        )
        engine = AsyncBatchPopulationEngine(
            dynamics, np.asarray(start), num_replicas=TICK_RUNS, seed=7
        )
        results = engine.run_until_consensus(100 * len(cdf))
        _check_stopping_law(
            f"{case} async",
            results,
            cdf,
            leaders,
            lambda r: r.metrics["ticks"],
        )


#: Adversarial stopping-round cases: 3-Majority at n = 9 from a balanced
#: three-way start, F = 1, stopping at the near-consensus threshold.
ADVERSARIAL_START = [3, 3, 3]
ADVERSARIES = {
    "random": RandomCorruption,
    "runner-up": SupportRunnerUp,
    "revive-weakest": ReviveWeakest,
}


class TestSynchronousStoppingLaws:
    """Consensus and stopping rounds against the exact absorbing chain,
    with the consensus-tick cases' dynamics and starts at n = 4."""

    @staticmethod
    def _round_law(dynamics, start):
        return _absorption_law(
            functools.partial(_next_count_distribution, dynamics),
            functools.partial(_is_consensus, dynamics),
            start,
        )

    @pytest.mark.parametrize("case", sorted(CONSENSUS_TICK_CASES))
    def test_population_consensus_round_law(self, case):
        dynamics, start = CONSENSUS_TICK_CASES[case]
        cdf, leaders = self._round_law(dynamics, start)
        engine = BatchPopulationEngine(
            dynamics, np.asarray(start), num_replicas=TICK_RUNS, seed=7
        )
        results = engine.run_until_consensus(100 * len(cdf))
        _check_stopping_law(
            f"{case} batch", results, cdf, leaders, lambda r: r.rounds
        )

    @pytest.mark.parametrize("case", sorted(CONSENSUS_TICK_CASES))
    def test_complete_graph_consensus_round_law(self, case):
        dynamics, start = CONSENSUS_TICK_CASES[case]
        cdf, leaders = self._round_law(dynamics, start)
        engine = BatchAgentEngine(
            dynamics,
            CompleteGraph(sum(start)),
            counts_to_agents(np.asarray(start)),
            num_replicas=TICK_RUNS,
            num_opinions=len(start),
            seed=7,
        )
        results = engine.run_until_consensus(100 * len(cdf))
        _check_stopping_law(
            f"{case} agent-batch", results, cdf, leaders, lambda r: r.rounds
        )

    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_adversarial_stopping_round_law(self, name):
        dynamics, adversary = ThreeMajority(), ADVERSARIES[name](1)
        n = sum(ADVERSARIAL_START)
        target = near_consensus_target(n, adversary.budget)
        cdf, leaders = _absorption_law(
            functools.partial(
                _adversarial_round_distribution, dynamics, adversary
            ),
            target,
            ADVERSARIAL_START,
        )
        engine = BatchPopulationEngine(
            dynamics,
            np.asarray(ADVERSARIAL_START),
            num_replicas=TICK_RUNS,
            seed=7,
            adversary=adversary,
            target=target,
        )
        results = engine.run_until_consensus(100 * len(cdf))
        _check_stopping_law(
            f"3-majority vs {name}", results, cdf, leaders, lambda r: r.rounds
        )


#: One-step graph cases: (graph factory, rows per ``agent_step_batch``
#: call, None for all REPS rows in one call), with one fixed 3-label
#: start.  A self-looped 3-regular graph (degree 4, the raw-bit offset
#: path), a self-looped cycle (degree 3, the bounded-integer path) and
#: a self-looped G(n, p) graph (degrees 2-8, the per-vertex-bound
#: path).  The chunked case steps the regular graph 777 rows per call:
#: 52 calls, each drawing 777 * 12 * s offsets, which is not a whole
#: number of 8-offset raw words when s is odd.
GRAPH_STEP_CASES = {
    "regular": (functools.partial(random_regular, 12, 3, seed=3), None),
    "regular-chunked": (
        functools.partial(random_regular, 12, 3, seed=3),
        777,
    ),
    "cycle": (functools.partial(cycle_graph, 12), None),
    "gnp": (functools.partial(erdos_renyi, 12, 0.3, seed=5), None),
}
GRAPH_START = np.asarray([0, 0, 1, 2, 2, 2, 1, 0, 1, 1, 0, 2])
#: Every catalogued dynamics: 4-Majority exercises ties among the
#: sampled neighbours, and Undecided-State reads label 2 as undecided.
GRAPH_DYNAMICS = {
    "2-choices": TwoChoices,
    "3-majority": ThreeMajority,
    "4-majority": functools.partial(HMajority, 4),
    "median": MedianRule,
    "undecided": functools.partial(UndecidedStateDynamics, num_decided=2),
    "voter": Voter,
}


def _next_agent_count_distribution(dynamics, graph, opinions, k):
    """Exact law of the next count vector on ``graph``, and each
    vertex's next-opinion law (one row per vertex).

    Vertex v draws from ``single_vertex_law(alpha_N(v), x_v)``, with
    ``alpha_N(v)`` the opinion frequency over v's adjacency list
    (multiplicities and self-loop included); vertices are independent,
    so the count law is the convolution of the per-vertex laws.
    """
    indptr, indices = graph.csr_arrays()
    laws = []
    dist = {tuple([0] * k): 1.0}
    for vertex, own in enumerate(opinions):
        seen = opinions[indices[indptr[vertex] : indptr[vertex + 1]]]
        alpha = np.bincount(seen, minlength=k) / seen.size
        law = dynamics.single_vertex_law(alpha, int(own))
        laws.append(law)
        new_dist = {}
        for key, p in dist.items():
            for label in np.flatnonzero(law > 0.0):
                moved = list(key)
                moved[label] += 1
                moved = tuple(moved)
                new_dist[moved] = new_dist.get(moved, 0.0) + p * law[label]
        dist = new_dist
    return dist, np.asarray(laws)


class TestAgentStepOnGraphs:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_STEP_CASES))
    @pytest.mark.parametrize("name", sorted(GRAPH_DYNAMICS))
    def test_one_step_law_on_sparse_graph(self, name, graph_name, rng):
        dynamics = GRAPH_DYNAMICS[name]()
        factory, rows_per_call = GRAPH_STEP_CASES[graph_name]
        graph = factory()
        if rows_per_call is not None:
            dynamics.batch_element_budget = (
                rows_per_call * dynamics.samples_per_round * graph.num_vertices
            )
        k = int(GRAPH_START.max()) + 1
        exact, laws = _next_agent_count_distribution(
            dynamics, graph, GRAPH_START, k
        )
        rows = np.tile(GRAPH_START.astype(np.int8), (REPS, 1))
        new = dynamics.agent_step_batch(rows, graph, rng)
        label = f"{name} on {graph_name}"
        _compare(
            exact, _row_frequencies(_label_counts(new, k)), REPS, label
        )
        marginals = np.stack(
            [(new == j).mean(axis=0) for j in range(k)], axis=1
        )
        sigma = np.sqrt(laws * (1 - laws) / REPS)
        z = np.abs(marginals - laws) / np.maximum(sigma, 1e-12)
        assert (np.abs(marginals - laws) < 6 * sigma + 1e-4).all(), (
            f"{label}: per-vertex marginals off by up to {z.max():.1f}σ"
        )
