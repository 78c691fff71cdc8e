"""The 3-Majority dynamics (paper Definition 3.1).

Each vertex ``v`` picks three uniformly random neighbours ``w1, w2, w3``
(with replacement, self-loops included).  If ``opn(w1) == opn(w2)`` the
vertex adopts that opinion, otherwise it adopts ``opn(w3)``.  This
"first-two-else-third" formulation is *exactly* majority-of-three with a
uniformly random tie-break (checked in the test suite): when two of the
three samples agree that opinion wins, and when all three differ the
adopted opinion is a uniform sample among the three.

On the complete graph with self-loops the per-vertex law is (paper eq. (5))

    P[opn_t(v) = i]  =  alpha_i^2 + (1 - gamma) * alpha_i
                     =  alpha_i * (1 + alpha_i - gamma),

independent of ``v``'s current opinion, so a synchronous round of the
whole system is a single draw ``Multinomial(n, p)`` — the population step
is O(k) regardless of ``n``.

Main theorem being reproduced: consensus time ``~Theta(min{k, sqrt(n)})``
(Theorem 1.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_categorical,
    batch_multinomial_counts,
    iter_row_chunks,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
)
from repro.graphs.base import Graph

__all__ = ["ThreeMajority", "three_majority_law"]


def three_majority_law(alpha: np.ndarray) -> np.ndarray:
    """The common next-opinion distribution, paper eq. (5).

    ``p_i = alpha_i (1 + alpha_i - gamma)`` with
    ``gamma = sum_i alpha_i^2``.  Sums to 1 because
    ``sum alpha_i + sum alpha_i^2 - gamma * sum alpha_i = 1``.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    gamma = float(np.dot(alpha, alpha))
    return alpha * (1.0 + alpha - gamma)


class ThreeMajority(Dynamics):
    """Synchronous 3-Majority on a complete graph or arbitrary graph."""

    name = "3-majority"
    samples_per_round = 3

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas in one multinomial call.

        Dead opinions keep probability 0, so the full-width law is exact
        without per-replica support tracking; rows already at consensus
        are fixed points of the law (the winner has probability 1).
        """
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        alpha = counts / totals[:, None]
        gamma = np.einsum("rk,rk->r", alpha, alpha)
        law = alpha * (1.0 + alpha - gamma[:, None])
        return batch_multinomial_counts(totals, law, rng, self.name)

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas: batched triple sample, gather, combine.

        The first-two-else-third rule vectorises directly over the
        ``(3, rows, n)`` sample planes; replica rows are chunked so the
        dominant ``3 n`` per-row index scratch stays under
        ``batch_element_budget`` elements (different budgets consume
        the stream differently, but always sample the same law).
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, 3 * n, self.batch_element_budget
        ):
            w = sample_and_gather_neighbor_opinions_batch(
                opinions[start:stop], graph, 3, rng
            )
            out[start:stop] = np.where(w[0] == w[1], w[0], w[2])
        return out

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        # The 3-Majority law does not depend on the current opinion.
        return three_majority_law(alpha)

    def async_population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One asynchronous tick across all R replica rows at once.

        The new opinion is independent of the current one (eq. (5)), so
        each row needs exactly two draws: the updating vertex's current
        opinion (integer-exact from the row's counts) and its next
        opinion (one batched categorical from the row's closed-form
        law).  Dead opinions keep probability 0, so the full-width law
        is exact without per-row support tracking.
        """
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        old = sample_holders_batch(counts, 1, rng)[:, 0]
        alpha = counts / totals[:, None]
        gamma = np.einsum("rk,rk->r", alpha, alpha)
        law = alpha * (1.0 + alpha - gamma[:, None])
        new = batch_categorical(law, rng, self.name)
        rows = np.arange(counts.shape[0])
        counts[rows, old] -= 1
        counts[rows, new] += 1
        return counts

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Lemma 4.1(i): ``E[alpha_t(i)] = alpha_i (1 + alpha_i - gamma)``."""
        return three_majority_law(alpha)
