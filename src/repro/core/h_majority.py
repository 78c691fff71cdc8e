"""The h-Majority dynamics (paper Section 2.5 extension).

Each vertex samples ``h`` uniformly random neighbours with replacement and
adopts the most frequent opinion in the sample, with ties broken uniformly
at random among the tied opinions.  ``h = 1`` reduces to the Voter model;
``h = 3`` agrees in distribution with :class:`~repro.core.three_majority.
ThreeMajority` (a property the tests verify).

On the complete graph with self-loops a vertex's ``h`` samples are
i.i.d. from ``alpha``, so every vertex adopts opinion ``i`` with the same
probability ``p_i(alpha)`` and a synchronous round is exactly
``Multinomial(n, p(alpha))`` — the shape of 3-Majority's eq. (5) step,
at a cost independent of ``n``.  The sample counts are
``Multinomial(h, alpha)``; splitting on opinion ``i``'s count ``m``,

    p_i = h! sum_m (alpha_i^m / m!) int_0^1 [x^(h-m)]
          prod_{j != i} (sum_{c<m} alpha_j^c x^c / c!
                         + u alpha_j^m x^m / m!) du,

where the ``u`` marks each opponent tied at ``m`` and
``int_0^1 u^t du = 1 / (1 + t)`` is the uniform tie-break among ``t + 1``
tied labels.  :meth:`HMajority.law_batch` evaluates this for a whole
``(R, k)`` matrix at once:

* terms with ``m > h / 2`` admit no opponent reaching ``m``, so they are
  just the ``Binomial(h, alpha_i)`` pmf;
* at most ``(h - m) // m`` opponents can tie at ``m``, so the integrand
  is a polynomial of that degree in ``u`` and a Gauss–Legendre rule
  with ``(h - m) // m // 2 + 1`` (at most ``ceil(h / 2)``) nodes
  integrates it exactly;
* coefficients are Poissonised (``alpha_j^c / c!`` becomes the
  ``Poisson(h alpha_j)`` pmf at ``c``, undone by one constant), so every
  partial product is a sub-probability in ``[0, 1]``;
* the leave-one-out products over ``j != i`` come from a binary product
  tree (one pass up, one down), so they never divide or subtract.

All arithmetic is on non-negative terms, which keeps rows summing to 1
within ~1e-13 up to h = 130.  Scratch is ``O(h^3 k)`` per replica row
and time ``O(h^4 k)``; the README tabulates where that crosses over
against per-vertex sampling (large ``k``).

The agent-level step and the asynchronous tick still sample: they
draw each updating vertex's ``h`` neighbours and take their plurality,
which costs far less per vertex than evaluating the law.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.backends import active_backend, backend_kernel, quarantine_kernel
from repro.core.base import (
    Dynamics,
    batch_multinomial_counts,
    iter_row_chunks,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
)
from repro.graphs.base import Graph

__all__ = ["HMajority", "majority_winners"]


def majority_winners(
    samples: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise plurality winner with uniform random tie-breaking.

    ``samples`` is an ``(n, h)`` array of opinion labels.  For each row,
    returns the most frequent label; when several labels tie for the
    maximum count, each tied label wins with equal probability.

    Implementation: for each position ``a``, count how many positions in
    the same row carry the same label (O(h^2) vectorised over rows), then
    pick a uniformly random position among those achieving the row
    maximum.  Positions holding a tied label are equinumerous (each tied
    label occupies exactly ``max_count`` positions), so uniform-over-
    positions equals uniform-over-tied-labels.

    The h^2 counting passes are memory-bandwidth-bound on large inputs,
    so occurrence counts use the narrowest safe dtype (they fit ``h``;
    int8 up to h = 127).  The tie-break sum stays float64: in float32,
    a jitter within 2^-22 of 1 rounds ``count + jitter`` up to the next
    integer, letting a minority position tie the true maximum — float64
    pushes that phantom-tie probability back to ~2^-52 per position.

    When the active backend provides a ``majority_winners`` kernel the
    whole pass runs compiled (streaming counts in wide scalars, same
    uniform tie-break law, different raw RNG stream — distribution-
    equal, not bitwise).
    """
    samples = np.asarray(samples)
    n, h = samples.shape
    kernel = backend_kernel("majority_winners")
    if kernel is not None:
        try:
            return kernel(samples, rng)
        except Exception as exc:
            # Degrade to the reference pass below rather than abort the
            # run; the kernel is quarantined (and warned about) once.
            quarantine_kernel(active_backend(), "majority_winners", exc)
    # Dtype-widening guard: occurrence counts reach h, so int8 scratch
    # is only safe while h fits int8.  At h > 127 the counts would wrap
    # negative and argmax would silently crown a minority label, so the
    # scratch MUST widen with h (regression-tested at h = 130).
    if h <= np.iinfo(np.int8).max:
        count_dtype: type = np.int8
    elif h <= np.iinfo(np.int16).max:
        count_dtype = np.int16
    else:
        count_dtype = np.int32
    occurrence = np.zeros((n, h), dtype=count_dtype)
    for a in range(h):
        for b in range(h):
            occurrence[:, a] += samples[:, a] == samples[:, b]
    # Uniform tie-break: jitter each position by U(0,1) and take argmax.
    # Ties between positions of the *same* label are harmless.
    jitter = rng.random((n, h))
    winner_pos = np.argmax(occurrence + jitter, axis=1)
    return samples[np.arange(n), winner_pos]


def _xlogy(x: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """``x * log_y`` with ``0 * log(0)`` read as 0 (so ``0^0 = 1``)."""
    with np.errstate(invalid="ignore"):
        return np.where(x == 0, 0.0, x * log_y)


def _truncated_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of ``a(x) b(x)`` below degree ``b.shape[-1]``.

    Polynomials run along the last axis (``a`` may be cut short where
    its higher coefficients are known to vanish); leading axes
    broadcast.
    """
    width = b.shape[-1]
    out = a[..., :1] * b
    for degree in range(1, min(a.shape[-1], width)):
        out[..., degree:] += (
            a[..., degree:degree + 1] * b[..., :width - degree]
        )
    return out


def _swap_siblings(level: np.ndarray) -> np.ndarray:
    """View of a tree level with nodes ``2i`` and ``2i + 1`` swapped,
    grouped as ``(..., nodes / 2, 2, degree)``."""
    pairs = level.reshape(level.shape[:-2] + (-1, 2, level.shape[-1]))
    return pairs[..., ::-1, :]


def _leave_one_out_coefficients(
    leaves: np.ndarray, flip: np.ndarray, leaf_terms: int
) -> np.ndarray:
    """One coefficient of ``prod_{j != i} leaves[..., j, :]`` per label i.

    ``leaves`` is ``(pairs, rows, labels, width + 1)``: one polynomial
    per label below degree ``width``, plus a zero column, with a
    power-of-two label count of at least 2.  ``flip[p, e]`` is
    ``target_p - e``, or ``width`` (the zero column) where that is
    negative; the result, ``(pairs, rows, labels)``, holds
    ``[x^target_p]`` of each product.

    A product tree is built bottom-up; walking back down, a node's
    complement is its parent's complement times its sibling, so no step
    divides.  At the leaves only the target coefficient is formed.
    ``leaf_terms`` bounds the leaves' nonzero coefficients, which lets
    the lower products skip known zeros.
    """
    levels = [leaves[..., :-1]]
    while levels[-1].shape[-2] > 2:
        level = levels[-1]
        levels.append(
            _truncated_product(
                level[..., 0::2, :leaf_terms], level[..., 1::2, :]
            )
        )
        leaf_terms = 2 * leaf_terms - 1
    complement = None  # the root's: the constant polynomial 1
    for level in reversed(levels[1:]):
        siblings = _swap_siblings(level)
        if complement is not None:
            siblings = _truncated_product(
                complement[..., None, :], siblings
            )
        complement = siblings.reshape(level.shape)
    # flipped[p, e, r, i, c] = sibling coefficient target_p - e.
    pair = np.arange(flip.shape[0])[:, None]
    flipped = _swap_siblings(leaves)[pair, :, :, :, flip]
    if complement is None:
        coefficients = flipped[:, 0]
    else:
        coefficients = np.einsum("prie,peric->pric", complement, flipped)
    return coefficients.reshape(leaves.shape[:-1])


class _LawConstants(NamedTuple):
    """Per-``h`` constants of the majority-of-h law (see the module
    docstring); the tie integral runs over (winning count, quadrature
    node) pairs."""

    log_factorial: np.ndarray  # log c!, c = 0..h
    tail: np.ndarray  # winning counts above h / 2
    tail_log_comb: np.ndarray  # log C(h, m) for the tail counts
    winning_count: np.ndarray  # (pairs,) the m of each pair
    tie_weights: np.ndarray  # (pairs, m_max + 1): 1 below m, node u at m
    flip: np.ndarray  # (pairs, h): reads [x^(h - m)], as in the helper
    readout: np.ndarray  # (pairs,): node weight / P[Poisson(h) = h]


def _law_constants(h: int) -> _LawConstants:
    log_factorial = np.asarray([math.lgamma(c + 1) for c in range(h + 1)])
    tail = np.arange(h // 2 + 1, h + 1)
    counts, nodes, weights = [], [], []
    for m in range(1, h // 2 + 1):
        # At most (h - m) // m opponents tie at m: the integrand's
        # degree in u, which this many Gauss-Legendre nodes integrate.
        x, w = np.polynomial.legendre.leggauss((h - m) // m // 2 + 1)
        counts += [m] * x.size
        nodes.append((x + 1.0) / 2.0)
        weights.append(w / 2.0)
    m = np.asarray(counts, dtype=np.int64)
    u = np.concatenate(nodes) if nodes else np.zeros(0)
    degree = np.arange(h // 2 + 1)
    target = (h - m)[:, None] - np.arange(h)
    return _LawConstants(
        log_factorial=log_factorial,
        tail=tail,
        tail_log_comb=(
            log_factorial[h]
            - log_factorial[tail]
            - log_factorial[h - tail]
        ),
        winning_count=m,
        tie_weights=(
            (degree < m[:, None]) + u[:, None] * (degree == m[:, None])
        ),
        flip=np.where(target >= 0, target, h),
        readout=(
            np.concatenate(weights) if weights else np.zeros(0)
        ) * math.exp(log_factorial[h] + h - h * math.log(h)),
    )


class HMajority(Dynamics):
    """Majority-of-h dynamics with uniform random tie-breaking.

    The population steps (synchronous, batched and the theory hooks)
    draw from the exact law :meth:`law_batch`; the per-``h`` constants
    it needs (quadrature rules, log-factorials, tie weights) are built
    once, here.

    Parameters
    ----------
    h:
        Neighbour samples per vertex per round.
    """

    def __init__(self, h: int) -> None:
        if h < 1:
            raise ValueError(f"h must be at least 1, got {h}")
        self.h = int(h)
        self.name = f"{self.h}-majority"
        self.samples_per_round = self.h
        self._law = _law_constants(self.h)

    def law_batch(self, alpha: np.ndarray) -> np.ndarray:
        """Exact next-opinion law for each row of an ``(R, k)`` matrix.

        Row ``r`` of the result is ``p(alpha[r])``, the probability that
        a vertex adopts each opinion after sampling ``h`` opinions i.i.d.
        from ``alpha[r]`` (see the module docstring).  Labels with zero
        mass in every row are dropped before the evaluation and get
        probability 0; rows are processed in chunks so the product-tree
        scratch stays under ``batch_element_budget`` elements.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        law = np.zeros_like(alpha)
        live = np.flatnonzero((alpha > 0).any(axis=0))
        alpha = alpha[:, live]
        width = 1 << max(1, (live.size - 1).bit_length())
        for start, stop in iter_row_chunks(
            alpha.shape[0],
            self._law.flip.size * width,
            self.batch_element_budget,
        ):
            law[start:stop, live] = self._law_rows(alpha[start:stop], width)
        return law

    def _law_rows(self, alpha: np.ndarray, width: int) -> np.ndarray:
        """:meth:`law_batch` on ``(rows, k)`` with a ``width``-leaf tree."""
        h, c = self.h, self._law
        rows, k = alpha.shape
        a = alpha[..., None]
        with np.errstate(divide="ignore"):
            log_a, log_rest = np.log(a), np.log1p(-a)
        law = np.exp(
            c.tail_log_comb
            + _xlogy(c.tail, log_a)
            + _xlogy(h - c.tail, log_rest)
        ).sum(axis=-1)
        if h < 2:
            return law
        # Poisson(h alpha) pmf at 0..h//2, the only degrees a factor has.
        degree = np.arange(h // 2 + 1)
        poisson = np.exp(
            _xlogy(degree, math.log(h) + log_a)
            - h * a
            - c.log_factorial[degree]
        )
        leaves = np.zeros((c.readout.size, rows, width, h + 1))
        leaves[:, :, k:, 0] = 1.0  # padding labels: the constant 1
        leaves[:, :, :k, :degree.size] = (
            c.tie_weights[:, None, None, :] * poisson
        )
        ties = _leave_one_out_coefficients(leaves, c.flip, degree.size)
        ties = ties[..., :k]
        own = poisson[..., c.winning_count] * c.readout
        return law + np.einsum("rkp,prk->rk", own, ties)

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas in one multinomial call over the exact law.

        Rows already at consensus are fixed points of the law (the
        winner has probability 1), and rows may differ in total mass.
        """
        counts = np.asarray(counts, dtype=np.int64)
        totals = counts.sum(axis=1)
        law = self.law_batch(counts / totals[:, None])
        return batch_multinomial_counts(totals, law, rng, self.name)

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas: batched ``h``-sample, then one plurality pass.

        The ``(h, rows, n)`` sample planes are turned vertex-major —
        one row of ``h`` samples per vertex — for
        :func:`majority_winners`, and the winners reshaped back to
        ``(rows, n)``.  Rows are chunked under ``batch_element_budget``
        like the other batched agent steps (the ``h n`` per-row index
        scratch is the dominant term).
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        h = self.h
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, h * n, self.batch_element_budget
        ):
            w = sample_and_gather_neighbor_opinions_batch(
                opinions[start:stop], graph, h, rng
            )
            per_vertex = np.moveaxis(w, 0, -1).reshape(-1, h)
            out[start:stop] = majority_winners(per_vertex, rng).reshape(
                stop - start, n
            )
        return out

    def async_population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One asynchronous tick across all R replica rows at once.

        Per row: the updating vertex's opinion plus its ``h`` neighbour
        samples (integer-exact draws) reduced by the shared
        :func:`majority_winners` pass.  Sampling one vertex's majority
        directly is distribution-equal to a draw from
        :meth:`single_vertex_law` and costs far less than evaluating the
        law for every row on every tick.
        """
        counts = np.asarray(counts, dtype=np.int64)
        draws = sample_holders_batch(counts, self.h + 1, rng)
        old = draws[:, 0]
        new = majority_winners(draws[:, 1:], rng)
        rows = np.arange(counts.shape[0])
        counts[rows, old] -= 1
        counts[rows, new] += 1
        return counts

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        """Exact majority-of-h law (independent of the current opinion)."""
        return self.law_batch(np.asarray(alpha, dtype=np.float64)[None])[0]

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Exact one-step mean: the law of :meth:`single_vertex_law`."""
        return self.single_vertex_law(alpha, 0)
