"""The Undecided-State Dynamics (USD), paper Section 2.5 open question.

Each vertex samples one uniformly random neighbour per round.  A *decided*
vertex that sees a different decided opinion becomes *undecided*; an
*undecided* vertex adopts whatever it sees (possibly staying undecided).
Formally, with ``u`` the sampled neighbour of ``v``:

* ``opn(v) = undecided``                          -> ``opn'(v) = opn(u)``
* ``opn(v) = i`` and ``opn(u) in {i, undecided}`` -> ``opn'(v) = i``
* ``opn(v) = i`` and ``opn(u) = j != i`` decided  -> ``opn'(v) = undecided``

The paper notes that the consensus time of USD with arbitrary
``2 <= k <= n`` opinions is open; the extension experiments measure it
empirically.

State convention (both count vectors and agent labels): a configuration
over ``k`` decided opinions lives on ``k + 1`` labels where the *last*
label ``k`` is the undecided state.  Use :func:`with_undecided_slot` to
lift an ordinary k-opinion count vector.  Consensus means one *decided*
opinion holds everything; the all-undecided configuration is absorbing
but unreachable from any decided start in practice, and shows up as a
non-converged run if it ever occurs.

Population step (complete graph with self-loops, exact): conditioned on
round ``t-1``, with ``alpha_u`` the undecided fraction and ``alpha_i`` the
decided fractions,

* group ``i`` (decided): stays ``i`` w.p. ``alpha_i + alpha_u``, becomes
  undecided otherwise — a binomial per group;
* undecided group: next label ``~ alpha`` (including undecided) — one
  multinomial.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    Dynamics,
    batch_binomial,
    batch_multinomial_counts,
    iter_row_chunks,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
)
from repro.errors import ConfigurationError, StateError
from repro.graphs.base import Graph

__all__ = ["UndecidedStateDynamics", "with_undecided_slot"]


def with_undecided_slot(counts: np.ndarray) -> np.ndarray:
    """Append an empty undecided slot to a k-opinion count vector."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.concatenate([counts, [0]])


class UndecidedStateDynamics(Dynamics):
    """Synchronous undecided-state dynamics over ``k`` decided opinions.

    Count vectors must have length ``k + 1``; agent vectors use label
    ``k`` (the last one) for the undecided state.  The agent step needs
    to *know* ``k`` — inferring it from the labels present would mistake
    the top decided label for the undecided state on any fully decided
    start — so either construct with ``num_decided=k`` or run through
    :class:`~repro.engine.agent_batch.BatchAgentEngine` with
    ``num_opinions = k + 1``, which binds it via
    :meth:`bind_opinion_space`.
    """

    name = "undecided"
    samples_per_round = 1

    def __init__(self, num_decided: int | None = None) -> None:
        #: When given, fixes k so the agent step can locate the undecided
        #: label even if no vertex currently holds it.  Engines that know
        #: their opinion-space size bind it via :meth:`bind_opinion_space`.
        self.num_decided = num_decided

    def bind_opinion_space(self, num_opinions: int) -> None:
        """Derive the undecided label from the engine's opinion space.

        An engine running over ``num_opinions`` labels means ``k =
        num_opinions - 1`` decided opinions plus the undecided slot.  A
        conflicting earlier binding (or explicit ``num_decided``) raises
        rather than silently relabelling which opinion is "undecided" —
        reuse one instance per opinion-space size.
        """
        derived = int(num_opinions) - 1
        if derived < 1:
            raise ConfigurationError(
                "undecided dynamics needs at least 2 labels (one decided "
                f"opinion plus the undecided slot), got {num_opinions}"
            )
        if self.num_decided is None:
            self.num_decided = derived
        elif int(self.num_decided) != derived:
            raise ConfigurationError(
                f"this UndecidedStateDynamics is bound to num_decided="
                f"{self.num_decided} but the engine has {num_opinions} "
                "labels; construct a fresh instance per opinion-space "
                "size"
            )

    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """All R replicas via row-wise binomials + one batched multinomial.

        The group-wise closed form of the module docstring on ``(R, k)``
        operands: per-group binomial stayers (element-wise over the
        decided block) and one batched multinomial for every row's
        undecided pool.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] < 2:
            raise StateError(
                "undecided dynamics needs (R, k+1) count rows (k >= 1)"
            )
        totals = counts.sum(axis=1)
        alpha = counts / totals[:, None]
        stay_prob = np.minimum(alpha[:, :-1] + alpha[:, -1:], 1.0)
        stayers = batch_binomial(
            counts[:, :-1], stay_prob, rng, self.name
        )
        new_counts = np.zeros_like(counts)
        new_counts[:, :-1] = stayers
        new_counts[:, -1] = (counts[:, :-1] - stayers).sum(axis=1)
        new_counts += batch_multinomial_counts(
            counts[:, -1], alpha, rng, self.name
        )
        return new_counts

    def consensus_mask_batch(self, counts: np.ndarray) -> np.ndarray:
        """Consensus means one *decided* opinion holds everything.

        The all-undecided configuration is absorbing but is *not*
        consensus under the ``k + 1``-label convention — a run stuck
        there keeps going and surfaces as censored, in every engine.
        """
        counts = np.asarray(counts)
        return counts[:, :-1].max(axis=1) == counts.sum(axis=1)

    def consensus_mask_agents(self, opinions: np.ndarray) -> np.ndarray:
        """Agent-level convention: uniform on a *decided* label only.

        A row uniformly holding the undecided label is absorbing but not
        consensus — the batched graph engine keeps it running (it
        surfaces as censored), matching the count-level rule.
        """
        opinions = np.asarray(opinions)
        uniform = (opinions == opinions[:, :1]).all(axis=1)
        return uniform & (opinions[:, 0] != self._undecided_label())

    def _undecided_label(self) -> int:
        if self.num_decided is not None:
            return int(self.num_decided)
        raise ConfigurationError(
            "UndecidedStateDynamics cannot locate the undecided label "
            "from an agent vector alone (from a fully decided start the "
            "top decided label would be mistaken for it): construct it "
            "with num_decided=k, or run it through an engine that binds "
            "the opinion-space size (BatchAgentEngine passes "
            "num_opinions through bind_opinion_space)"
        )

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All R replicas: one batched neighbour sample, then the rule.

        An undecided vertex adopts the opinion it sees; a decided one
        keeps its opinion on seeing it or the undecided label and goes
        undecided otherwise.  Rows are chunked under
        ``batch_element_budget`` like the other batched agent steps (the
        ``(rows, n)`` index scratch is the dominant term).
        """
        undecided = self._undecided_label()
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, n, self.batch_element_budget
        ):
            block = opinions[start:stop]
            seen = sample_and_gather_neighbor_opinions_batch(
                block, graph, 1, rng
            )[0]
            keep = (seen == block) | (seen == undecided)
            out[start:stop] = np.where(
                block == undecided,
                seen,
                np.where(keep, block, undecided),
            )
        return out

    def async_population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One asynchronous tick across all R replica rows at once.

        Count vectors use the population-level convention (last label =
        undecided).  Per row: sample the updating vertex's state and one
        neighbour's (two integer-exact draws) and apply the USD rule —
        an undecided vertex adopts what it sees; a decided one stays put
        on seeing its own opinion or an undecided vertex, and goes
        undecided on any decided clash.  Exactly
        :meth:`single_vertex_law`, sampled without materialising it.
        """
        counts = np.asarray(counts, dtype=np.int64)
        undecided = counts.shape[1] - 1
        draws = sample_holders_batch(counts, 2, rng)
        old, seen = draws[:, 0], draws[:, 1]
        new = np.where(
            old == undecided,
            seen,
            np.where(
                (seen == old) | (seen == undecided), old, undecided
            ),
        )
        rows = np.arange(counts.shape[0])
        counts[rows, old] -= 1
        counts[rows, new] += 1
        return counts

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        """Law over the ``k + 1`` labels for one vertex.

        ``current_opinion = k`` (the last index) means undecided.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        k = alpha.size - 1
        law = np.zeros_like(alpha)
        if current_opinion == k:
            return alpha.copy()
        stay = alpha[current_opinion] + alpha[k]
        law[current_opinion] = stay
        law[k] = 1.0 - stay
        return law

    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """Exact one-step mean over the ``k + 1`` labels.

        decided i: stayers ``alpha_i (alpha_i + alpha_u)`` plus converts
        from the undecided pool ``alpha_u alpha_i``; undecided gets the
        complement.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        k = alpha.size - 1
        alpha_u = alpha[k]
        expected = np.empty_like(alpha)
        decided = alpha[:k]
        expected[:k] = decided * (decided + alpha_u) + alpha_u * decided
        expected[k] = 1.0 - expected[:k].sum()
        return expected
