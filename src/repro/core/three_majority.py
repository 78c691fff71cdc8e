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

from repro.core.base import Dynamics, batch_multinomial_counts

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

    def vertex_update(
        self, own: np.ndarray, seen: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """First-two-else-third: the first two samples' common opinion,
        else the third sample's."""
        return np.where(seen[0] == seen[1], seen[0], seen[2])

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        # The 3-Majority law does not depend on the current opinion.
        return three_majority_law(alpha)

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Lemma 4.1(i): ``E[alpha_t(i)] = alpha_i (1 + alpha_i - gamma)``."""
        return three_majority_law(alpha)
