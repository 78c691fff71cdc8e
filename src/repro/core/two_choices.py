"""The 2-Choices dynamics (paper Definition 3.1).

Each vertex ``v`` picks two uniformly random neighbours ``w1, w2`` (with
replacement, self-loops included).  If ``opn(w1) == opn(w2)`` the vertex
adopts that common opinion; otherwise it keeps its own opinion for the
round.  Unlike 3-Majority, the per-vertex law *does* depend on the
vertex's current opinion (paper eq. (6)):

    P[opn_t(v) = i]  =  1 - gamma + alpha_i^2     if opn_{t-1}(v) = i
                     =  alpha_i^2                  otherwise.

On the complete graph with self-loops, conditioned on round ``t-1`` the
vertices update independently, so the group of ``c_m`` vertices currently
holding opinion ``m`` transitions as a multinomial over
``{stay} + {adopt j}``.  Two exact population-step strategies are
implemented and selected by cost:

* **per-group multinomials** — O(a^2) per round where ``a`` is the number
  of alive opinions; ideal when few opinions survive;
* **direct pair sampling** — draw ``(w1, w2)`` opinion pairs for all ``n``
  vertices straight from ``alpha``; O(n) per round, better when ``a`` is
  of order ``sqrt(n)`` or more (e.g. the ``k = n`` balanced start).

Both are exact samplers of the same chain; the test suite checks their
distributional agreement.

Main theorem being reproduced: consensus time ``~Theta(k)`` for all
``2 <= k <= n`` (Theorem 1.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
    multinomial_counts,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
)
from repro.graphs.base import Graph

__all__ = ["TwoChoices", "two_choices_law"]

#: Cost crossover between the two exact population-step strategies:
#: per-group multinomials cost about ``a^2`` work and direct pair
#: sampling about ``n``; the group strategy is used when
#: ``a^2 <= GROUP_STEP_THRESHOLD * n``.  Measured on CPython 3.11 +
#: numpy 2; correctness does not depend on it.
GROUP_STEP_THRESHOLD = 4.0


def two_choices_law(alpha: np.ndarray, current_opinion: int) -> np.ndarray:
    """Next-opinion distribution for one vertex, paper eq. (6)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    gamma = float(np.dot(alpha, alpha))
    law = alpha * alpha
    law[current_opinion] = 1.0 - gamma + alpha[current_opinion] ** 2
    return law


class TwoChoices(Dynamics):
    """Synchronous 2-Choices on a complete graph or arbitrary graph."""

    name = "2-choices"
    samples_per_round = 2

    def population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        alive = np.flatnonzero(counts)
        if alive.size == 1:
            return counts.copy()
        n = int(counts.sum())
        if alive.size**2 <= GROUP_STEP_THRESHOLD * n:
            return self._population_step_groups(counts, alive, n, rng)
        return self._population_step_pairs(counts, alive, n, rng)

    def _population_step_groups(
        self,
        counts: np.ndarray,
        alive: np.ndarray,
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Exact per-group multinomial strategy, O(a^2)."""
        alpha = counts[alive] / n
        gamma = float(np.dot(alpha, alpha))
        adopt = alpha * alpha  # P[adopt j] = alpha_j^2, any j != current
        new_alive = np.zeros(alive.size, dtype=np.int64)
        for pos in range(alive.size):
            group_size = int(counts[alive[pos]])
            law = adopt.copy()
            law[pos] = 1.0 - gamma + adopt[pos]
            new_alive += multinomial_counts(group_size, law, rng, self.name)
        new_counts = np.zeros_like(counts)
        new_counts[alive] = new_alive
        return new_counts

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas via the switcher decomposition, O(R k).

        Eq. (6) is equivalent to a two-stage draw: a vertex *switches*
        with probability ``gamma`` and, given a switch, lands on opinion
        ``j`` with probability ``alpha_j^2 / gamma`` (landing on its own
        opinion counts as staying).  Check: for ``j != m`` this gives
        ``gamma * alpha_j^2 / gamma = alpha_j^2``, and for ``j = m`` it
        gives ``(1 - gamma) + alpha_m^2``, both matching eq. (6).
        Because the landing law is the same for every source group, the
        per-group multinomials pool into a single draw: switchers per
        group are binomial and their destinations one multinomial —
        two vectorised numpy calls for all R replicas, versus the O(a^2)
        per-group loop of the sequential strategy.
        """
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        alpha = counts / totals[:, None]
        gamma = np.einsum("rk,rk->r", alpha, alpha)
        switchers = rng.binomial(counts, gamma[:, None])
        landing = alpha * alpha / gamma[:, None]
        landed = batch_multinomial_counts(
            switchers.sum(axis=1), landing, rng, self.name
        )
        return counts - switchers + landed

    def _population_step_pairs(
        self,
        counts: np.ndarray,
        alive: np.ndarray,
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Exact direct pair-sampling strategy, O(n).

        Exploits exchangeability: the multiset of new opinions only
        depends on how many members of each current-opinion group see an
        agreeing pair, so we lay vertices out in opinion blocks.
        """
        alpha = counts[alive] / n
        w1 = rng.choice(alive.size, size=n, p=alpha)
        w2 = rng.choice(alive.size, size=n, p=alpha)
        own = np.repeat(np.arange(alive.size), counts[alive])
        new = np.where(w1 == w2, w1, own)
        new_counts = np.zeros_like(counts)
        new_counts[alive] = np.bincount(new, minlength=alive.size)
        return new_counts

    def agent_step(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        samples = graph.sample_neighbors(rng, 2)
        w1 = opinions[samples[:, 0]]
        w2 = opinions[samples[:, 1]]
        return np.where(w1 == w2, w1, opinions)

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas: batched pair sample, keep own on disagreement.

        Rows are chunked under ``batch_element_budget`` like the other
        batched agent steps (the ``(2, rows, n)`` index scratch is the
        dominant term); chunking never changes the sampled law, only
        how the raw stream is consumed.
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, 2 * n, self.batch_element_budget
        ):
            block = opinions[start:stop]
            w = sample_and_gather_neighbor_opinions_batch(
                block, graph, 2, rng
            )
            out[start:stop] = np.where(w[0] == w[1], w[0], block)
        return out

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        return two_choices_law(alpha, current_opinion)

    def async_population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One asynchronous tick across all R replica rows at once.

        Per row: sample the updating vertex's opinion and its two
        neighbours' (three integer-exact draws) and apply the
        combination rule directly — adopt the pair's common opinion,
        else keep the own one.  This samples eq. (6) exactly without
        materialising the per-row law.
        """
        counts = np.asarray(counts, dtype=np.int64)
        draws = sample_holders_batch(counts, 3, rng)
        old, w1, w2 = draws[:, 0], draws[:, 1], draws[:, 2]
        new = np.where(w1 == w2, w1, old)
        rows = np.arange(counts.shape[0])
        counts[rows, old] -= 1
        counts[rows, new] += 1
        return counts

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Lemma 4.1(i): identical closed form to 3-Majority.

        ``E[alpha_t(i)] = alpha_i (1 - gamma + alpha_i^2) / alpha_i``...
        expanding eq. (6) over the two conditioning cases gives
        ``alpha_i (1 - gamma + alpha_i^2) + (1 - alpha_i) alpha_i^2
        = alpha_i (1 + alpha_i - gamma)``.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        gamma = float(np.dot(alpha, alpha))
        return alpha * (1.0 + alpha - gamma)
