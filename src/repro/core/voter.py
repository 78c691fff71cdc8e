"""The Voter model — the simplest pull baseline.

Each vertex adopts the opinion of one uniformly random neighbour.  On the
complete graph the expected fractions are a martingale
(``E[alpha_t] = alpha_{t-1}``), so consensus is driven purely by drift of
the variance and takes ``Theta(n)`` rounds — far slower than 3-Majority
and 2-Choices.  The baseline experiments use it to show *why* the paper's
dynamics matter: three samples beat one by an exponential margin in n.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Dynamics, batch_multinomial_counts

__all__ = ["Voter"]


class Voter(Dynamics):
    """Synchronous Voter model (adopt one random neighbour's opinion)."""

    name = "voter"
    samples_per_round = 1

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas in one multinomial call (law = alpha itself)."""
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        alpha = counts / totals[:, None]
        return batch_multinomial_counts(totals, alpha, rng, self.name)

    def vertex_update(
        self, own: np.ndarray, seen: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Adopt the sampled neighbour's opinion."""
        return seen[0]

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        return np.asarray(alpha, dtype=np.float64).copy()

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """The voter fractions are a martingale: ``E[alpha_t] = alpha``."""
        return np.asarray(alpha, dtype=np.float64).copy()
