"""The Median rule of [DGMSS11] (paper Section 1.1).

Doerr, Goldberg, Minder, Sauerwald and Scheideler's protocol assumes the
opinion space is *totally ordered*: each vertex takes the median of its
own opinion and the opinions of two uniformly random neighbours.  For
``k = 2`` it coincides with 2-Choices, which is exactly how 2-Choices was
first (implicitly) analysed; the tests verify the coincidence.

The median rule achieves O(log n) consensus but only *median* validity —
the winning opinion can be one nobody would call a plurality winner, which
is why the paper's dynamics remain interesting for k > 2.  It is included
as a baseline comparator.

The per-vertex law (:meth:`MedianRule.single_vertex_law`) depends only
on the vertex's current opinion, so on the complete graph with
self-loops the ``c_{r,m}`` vertices of row ``r`` holding opinion ``m``
transition as one ``Multinomial(c_{r,m}, law(alpha_r, m))``.  The
population step (``population_step_batch``, all R replica rows at once;
``population_step`` runs it on one row) has two exact strategies:

* **law tensor** — the ``(R, k, k)`` tensor of those group laws,
  flattened into one batched multinomial over the ``R k`` groups;
  O(R k^2) work independent of ``n``, better at small ``k``;
* **per vertex** — every vertex's two neighbours drawn as integer
  positions on its row's vertex line (laid out in label blocks), then
  the median of three and one ``bincount``; O(sum_r n_r) work, better
  at large ``k`` (at ``k = n`` the tensor would need ``n^2`` elements
  per row).

Each call runs the law tensor when ``k^2 R <= TENSOR_STEP_THRESHOLD *
sum_r n_r`` and the per-vertex strategy otherwise.  The test suite
checks both against the enumerated one-step law.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
)

__all__ = ["MedianRule"]

#: Cost crossover between the two exact population-step strategies: the
#: law tensor runs when ``k^2 R <= TENSOR_STEP_THRESHOLD * sum_r n_r``,
#: the per-vertex strategy otherwise.  Measured on a 2-core box
#: (CPython 3.11, numpy 2.4), tensor over per-vertex time per step from
#: a balanced start, for n in {1024, 4096, 16384, 65536} and R in
#: {1, 8}: 0.64-2.2 at k^2 = n, 2.8-4.7 at k^2 = 4n and 11-20 at
#: k^2 = 16n.  The crossover is near k^2 = n; the threshold stays at 4
#: so that every step the tensor ran before the per-vertex strategy
#: joined the batch step keeps its seeded draws.  Correctness does not
#: depend on it.
TENSOR_STEP_THRESHOLD = 4.0


def _median_of_three(
    own: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Vectorised middle value of three integer arrays.

    In a narrow dtype (the graph engine's int8 labels) the sum may wrap,
    but the median fits the dtype, so ``total - low - high`` is still
    exact: the identity holds modulo the dtype's range.
    """
    total = own + first + second
    low = np.minimum(np.minimum(own, first), second)
    high = np.maximum(np.maximum(own, first), second)
    return total - low - high


class MedianRule(Dynamics):
    """Median of {own opinion, two random neighbours} per round."""

    name = "median"
    samples_per_round = 2

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas, by one of two exact strategies.

        The module docstring describes the law-tensor strategy
        (:meth:`_step_rows`) and the per-vertex one
        (:meth:`_step_vertices`), and the cost rule that picks one per
        call.  Rows are chunked so the chosen strategy's dominant
        scratch array stays within ``batch_element_budget`` elements.
        """
        counts = np.asarray(counts, dtype=np.int64)
        num_rows, k = counts.shape
        totals = counts.sum(axis=1)
        if k * k * num_rows <= TENSOR_STEP_THRESHOLD * totals.sum():
            step, width = self._step_rows, k * k
        else:
            step, width = self._step_vertices, 2 * int(totals.max())
        new_counts = np.empty_like(counts)
        for start, stop in iter_row_chunks(
            num_rows, width, self.batch_element_budget
        ):
            new_counts[start:stop] = step(counts[start:stop], rng)
        return new_counts

    def _step_rows(
        self, rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Law-tensor strategy for a chunk of rows: O(R k^2)."""
        num_rows, k = rows.shape
        totals = rows.sum(axis=1)
        alpha = rows / totals[:, None]
        cdf = np.cumsum(alpha, axis=1)
        both = cdf * cdf
        one = 2.0 * cdf * (1.0 - cdf)
        # own_le[m, x] is "own opinion m counted as <= x", exactly the
        # ``below`` mask of single_vertex_law for every conditioning m.
        own_le = np.arange(k)[None, :] >= np.arange(k)[:, None]
        med_cdf = both[:, None, :] + one[:, None, :] * own_le[None, :, :]
        law = np.diff(med_cdf, axis=-1, prepend=0.0)
        np.clip(law, 0.0, None, out=law)
        draws = batch_multinomial_counts(
            rows.reshape(-1), law.reshape(-1, k), rng, self.name
        )
        return draws.reshape(num_rows, k, k).sum(axis=1)

    def _step_vertices(
        self, rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-vertex strategy for a chunk of rows: O(sum_r n_r).

        All rows share one flattened vertex line, as in 2-Choices'
        sparse strategy: row ``r``'s vertices sit in label blocks, each
        vertex carrying its flat label index ``r * k + j``.  Each vertex
        draws two positions in its own row's range and reads the labels
        there; all three flat indices lie in row ``r``, so their median
        is ``r * k`` plus the median of the labels.
        """
        num_rows, k = rows.shape
        flat = rows.reshape(-1)
        totals = rows.sum(axis=1)
        ends = totals.cumsum()
        own = np.repeat(np.arange(flat.size), flat)
        vertex_row = np.repeat(np.arange(num_rows), totals)
        positions = rng.integers(
            (ends - totals)[vertex_row],
            ends[vertex_row],
            size=(2, own.size),
        )
        first, second = own[positions]
        new = _median_of_three(own, first, second)
        return np.bincount(new, minlength=flat.size).reshape(num_rows, k)

    def vertex_update(
        self, own: np.ndarray, seen: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The median of the own opinion and the two samples."""
        return _median_of_three(own, seen[0], seen[1])

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        """Exact law of median(m, X, Y) with X, Y iid ~ alpha.

        median <= x  iff  at least two of {m, X, Y} are <= x.  With
        ``F(x) = P[X <= x]`` this gives a closed-form CDF per threshold,
        differenced into a pmf.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        cdf = np.cumsum(alpha)
        m = current_opinion
        below = np.arange(alpha.size) >= m  # own opinion counted as <= x
        # P[median <= x]: own contributes 1 if m <= x.
        both = cdf * cdf
        one = 2.0 * cdf * (1.0 - cdf)
        med_cdf = np.where(below, both + one, both)
        pmf = np.diff(np.concatenate([[0.0], med_cdf]))
        # Clip tiny negatives from floating-point cancellation.
        return np.clip(pmf, 0.0, None)

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Exact mean by mixing :meth:`single_vertex_law` over groups."""
        alpha = np.asarray(alpha, dtype=np.float64)
        expected = np.zeros_like(alpha)
        for m in np.flatnonzero(alpha > 0):
            expected += alpha[m] * self.single_vertex_law(alpha, int(m))
        return expected
