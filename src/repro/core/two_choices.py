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
``{stay} + {adopt j}``.  The population step (``population_step_batch``,
all R replica rows at once; ``population_step`` runs it on one row)
samples an equivalent two-stage form of eq. (6): a vertex *switches*
with probability ``gamma`` and lands on opinion ``j`` with probability
``alpha_j^2 / gamma``, where landing on its own opinion means it stays.
Two exact strategies draw it:

* **dense** — per row, ``Binomial(c_j, gamma)`` switchers for every
  label and one ``k``-way multinomial for their landings; O(R k) draws,
  better when many vertices switch (small ``k``, and every endgame as
  ``gamma -> 1``);
* **sparse** — per row, ``m ~ Binomial(n, gamma)`` switchers taken as a
  uniform ``m``-subset of the vertices (mapped to labels through the
  integer ``cumsum(counts)``) and landed through the integer
  ``cumsum(counts**2)``, for all rows in one flattened pass; O(m) draws
  plus a few O(R k) array passes, better when few vertices switch
  (``gamma`` about ``1 / k`` at many balanced opinions).

Each call runs the sparse strategy when the expected number of
switchers ``sum_r n_r gamma_r`` is at most ``SPARSE_STEP_THRESHOLD * R *
k``, every ``gamma_r <= 1/2`` (which keeps the subset's redraw of
repeated vertices to a few rounds) and every cumulative sum of squares
fits int64; otherwise the dense one.  The test suite checks both
against the enumerated one-step law.

Main theorem being reproduced: consensus time ``~Theta(k)`` for all
``2 <= k <= n`` (Theorem 1.1).
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

__all__ = ["TwoChoices", "two_choices_law"]

#: Cost crossover between the two exact batch strategies: the sparse
#: one runs when the expected number of switching vertices over all
#: rows, ``sum_r n_r gamma_r``, is at most ``SPARSE_STEP_THRESHOLD * R *
#: k``.  Measured on a 2-core box (CPython 3.11, numpy 2.4) at R = 3,
#: n = 65,536, balanced starts at k in {256, 512, 1024, 2048} run to
#: consensus: against the dense strategy alone, time per round at
#: k = 512 was 0.88x with 0.5 or 1.0, 0.99x with 0.25 and 1.01x with
#: 0.125, and at k = 1024 0.57x with 0.25 to 1.0 and 0.72x with 0.125;
#: k = 256 stays dense.  Correctness does not depend on it.
SPARSE_STEP_THRESHOLD = 0.5


def _distinct_positions(
    rows: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sorted distinct positions, one per entry of ``rows``.

    Row ``r`` owns positions ``[starts[r], ends[r])``, and the rows tile
    one line in order.  Each row gets a uniform subset of its positions,
    as many as it has entries in ``rows``: positions are drawn with
    replacement and every repeat is redrawn in its row until none is
    left.  The rule commutes with any relabelling of a row's positions,
    so the subsets are uniform, and independent across rows.  A draw
    repeats with probability below its row's subset size over its row
    length, so while that fraction is small (the caller keeps it near
    ``gamma <= 1/2``) most calls take one round and few take more.
    """
    chosen = np.sort(rng.integers(starts[rows], ends[rows]))
    repeat = chosen[1:] == chosen[:-1]
    while repeat.any():
        rows = np.searchsorted(ends, chosen[1:][repeat], side="right")
        redrawn = rng.integers(starts[rows], ends[rows])
        chosen = np.sort(
            np.concatenate((chosen[:1], chosen[1:][~repeat], redrawn))
        )
        repeat = chosen[1:] == chosen[:-1]
    return chosen


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

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas via the switcher decomposition.

        Eq. (6) is equivalent to a two-stage draw: a vertex *switches*
        with probability ``gamma`` and, given a switch, lands on opinion
        ``j`` with probability ``alpha_j^2 / gamma`` (landing on its own
        opinion counts as staying).  Check: for ``j != m`` this gives
        ``gamma * alpha_j^2 / gamma = alpha_j^2``, and for ``j = m`` it
        gives ``(1 - gamma) + alpha_m^2``, both matching eq. (6).
        Because the landing law is the same for every source group, the
        per-group multinomials pool into one draw for all switchers.

        Two exact strategies sample this decomposition for all R rows
        in vectorised calls; the module docstring describes them and
        the cost rule that picks one per call.
        """
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        alpha = counts / totals[:, None]
        gamma = np.einsum("rk,rk->r", alpha, alpha)
        if (
            gamma.dot(totals) <= SPARSE_STEP_THRESHOLD * counts.size
            and np.all(gamma <= 0.5)
            # Sums of squares stay exact in int64 below 2^62.
            and float(np.square(totals, dtype=np.float64).sum()) < 2.0**62
        ):
            return self._batch_step_sparse(counts, totals, gamma, rng)
        return self._batch_step_dense(counts, alpha, gamma, rng)

    def _batch_step_dense(
        self,
        counts: np.ndarray,
        alpha: np.ndarray,
        gamma: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binomial switchers per label, one multinomial landing, O(R k)."""
        switchers = rng.binomial(counts, gamma[:, None])
        landing = alpha * alpha / gamma[:, None]
        landed = batch_multinomial_counts(
            switchers.sum(axis=1), landing, rng, self.name
        )
        return counts - switchers + landed

    def _batch_step_sparse(
        self,
        counts: np.ndarray,
        totals: np.ndarray,
        gamma: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw only the switching vertices: O(m) draws, O(R k) passes.

        All rows share one flattened vertex line: row ``r``'s vertices
        sit in label blocks just below ``line[r * k + k - 1]``, so the
        flat integer ``cumsum(counts)`` maps a position to its flat
        label index ``r * k + j``.  Landings use the same layout over
        ``cumsum(counts**2)``: a uniform integer below row ``r``'s
        ``sum(counts[r]**2)`` falls in label ``j``'s block with
        probability ``alpha_j^2 / gamma``, and a dead label's block is
        empty.  The caller guarantees every partial sum fits int64.
        """
        num_rows, k = counts.shape
        rows = np.repeat(np.arange(num_rows), rng.binomial(totals, gamma))
        line = counts.cumsum()
        ends = line[k - 1 :: k]
        sources = _distinct_positions(rows, ends - totals, ends, rng)
        square_line = (counts * counts).cumsum()
        square_ends = square_line[k - 1 :: k]
        square_starts = np.concatenate(([0], square_ends[:-1]))
        landings = rng.integers(square_starts[rows], square_ends[rows])
        moved = np.bincount(
            np.searchsorted(square_line, landings, side="right"),
            minlength=counts.size,
        ) - np.bincount(
            np.searchsorted(line, sources, side="right"),
            minlength=counts.size,
        )
        return counts + moved.reshape(num_rows, k)

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

        A vertex holds ``i`` with probability ``alpha_i`` and keeps it
        with probability ``1 - gamma + alpha_i^2``; any other vertex
        adopts ``i`` with probability ``alpha_i^2`` (eq. (6)), so
        ``E[alpha_t(i)] = alpha_i (1 - gamma + alpha_i^2)
        + (1 - alpha_i) alpha_i^2 = alpha_i (1 + alpha_i - gamma)``.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        gamma = float(np.dot(alpha, alpha))
        return alpha * (1.0 + alpha - gamma)
