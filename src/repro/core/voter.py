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

from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
)
from repro.graphs.base import Graph

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

    def agent_step(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return opinions[graph.sample_neighbors(rng, 1)[:, 0]]

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas via one batched sample-and-gather per chunk.

        Replica rows are chunked so the dominant ``(rows, n)`` index
        scratch stays under ``batch_element_budget`` elements; chunking
        changes memory, call granularity and raw-stream consumption —
        realisations differ across budgets, the sampled law never does
        (KS-tested).
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, n, self.batch_element_budget
        ):
            sample_and_gather_neighbor_opinions_batch(
                opinions[start:stop],
                graph,
                1,
                rng,
                out=out[None, start:stop],
            )
        return out

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        return np.asarray(alpha, dtype=np.float64).copy()

    def async_population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One asynchronous tick across all R replica rows at once.

        Per row, the updating vertex and the neighbour it copies are
        two i.i.d. uniformly random vertices — one integer-exact
        two-sample draw from the row's counts.
        """
        counts = np.asarray(counts, dtype=np.int64)
        pair = sample_holders_batch(counts, 2, rng)
        rows = np.arange(counts.shape[0])
        counts[rows, pair[:, 0]] -= 1
        counts[rows, pair[:, 1]] += 1
        return counts

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """The voter fractions are a martingale: ``E[alpha_t] = alpha``."""
        return np.asarray(alpha, dtype=np.float64).copy()
