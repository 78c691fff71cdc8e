"""F-bounded adversaries (paper Section 2.5, [GL18] model).

The adversarial model lets an adversary corrupt the opinions of up to
``F`` vertices *after every round*.  [GL18] showed 3-Majority tolerates
``F = O(sqrt(n) / k^{1.5})`` for ``k = O(n^{1/3} / sqrt(log n))``; the
paper lists extending this as an open direction.  The ``adv`` experiment
measures the empirical tolerance threshold.

Adversaries act on count vectors (population level): a corruption is a
movement of at most ``F`` units of mass.  They receive the full
configuration each round — a strong (omniscient, adaptive) adversary in
the sense of the literature.

Adversaries are a first-class dimension of the unified simulation API:
every engine (population, agent, async, batch) accepts one and applies
it after each synchronous round, enforcing the corruption contract via
:func:`enforce_corruption_contract` — an *explicit* raise, never a bare
``assert``, so the checks survive ``python -O``.  The batch engine uses
:meth:`Adversary.corrupt_batch` to corrupt all R replica rows in one
vectorised call.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.state import validate_counts
from repro.errors import ConfigurationError, StateError

__all__ = [
    "Adversary",
    "apply_corruption",
    "apply_count_delta",
    "enforce_corruption_contract",
    "enforce_corruption_contract_batch",
]


class Adversary(abc.ABC):
    """Moves at most :attr:`budget` vertices' opinions per round."""

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ConfigurationError(
                f"adversary budget must be non-negative, got {budget}"
            )
        self.budget = int(budget)

    @abc.abstractmethod
    def corrupt(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the corrupted configuration (same total mass).

        Implementations must change at most :attr:`budget` vertices, i.e.
        ``sum(|new - old|) / 2 <= budget``; every engine enforces this
        via :func:`enforce_corruption_contract` (an explicit raise, so
        the check survives ``python -O``).
        """

    def corrupt_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Corrupt R replica rows of an ``(R, k)`` count matrix at once.

        The contract is :meth:`corrupt` applied independently per row:
        each row conserves its mass and moves at most :attr:`budget`
        vertices.  This base implementation is the row-loop fallback
        (correct for any strategy, no speedup); the bundled strategies
        override it with fully vectorised versions, which is what makes
        adversarial sweeps on
        :class:`~repro.engine.batch.BatchPopulationEngine` fast.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape[0] == 0:
            return counts.copy()
        return np.stack(
            [self.corrupt(row.copy(), rng) for row in counts]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(budget={self.budget})"


def enforce_corruption_contract(
    before: np.ndarray, after: np.ndarray, budget: int
) -> np.ndarray:
    """Validate one corruption: mass conserved, at most ``budget`` moves.

    Returns the canonicalised corrupted vector.  Raises
    :class:`~repro.errors.StateError` on mass/negativity violations and
    :class:`~repro.errors.ConfigurationError` on budget violations —
    explicit exceptions rather than ``assert``, so a buggy adversary
    fails fast even under ``python -O``.
    """
    before = np.asarray(before)
    after = validate_counts(after, n=int(before.sum()))
    moved = int(np.abs(after - before).sum()) // 2
    if moved > budget:
        raise ConfigurationError(
            f"adversary moved {moved} vertices, exceeding its "
            f"budget of {budget}"
        )
    return after


def enforce_corruption_contract_batch(
    before: np.ndarray, after: np.ndarray, budget: int
) -> np.ndarray:
    """Row-wise contract check for :meth:`Adversary.corrupt_batch`.

    Every replica row must conserve its mass, stay non-negative and move
    at most ``budget`` vertices.  Error messages name the first
    offending row so a buggy strategy is debuggable at R = 256.
    """
    before = np.asarray(before)
    after = np.asarray(after, dtype=np.int64)
    if after.shape != before.shape:
        raise StateError(
            f"batch corruption changed the matrix shape from "
            f"{before.shape} to {after.shape}"
        )
    if (after < 0).any():
        row = int(np.flatnonzero((after < 0).any(axis=1))[0])
        raise StateError(
            f"batch corruption produced negative counts in replica "
            f"row {row}"
        )
    mass_before = before.sum(axis=1)
    mass_after = after.sum(axis=1)
    bad = mass_after != mass_before
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise StateError(
            f"batch corruption changed replica row {row}'s total mass "
            f"from {int(mass_before[row])} to {int(mass_after[row])}"
        )
    moved = np.abs(after - before).sum(axis=1) // 2
    over = moved > budget
    if over.any():
        row = int(np.flatnonzero(over)[0])
        raise ConfigurationError(
            f"adversary moved {int(moved[row])} vertices in replica "
            f"row {row}, exceeding its budget of {budget}"
        )
    return after


def apply_count_delta(
    opinions: np.ndarray, delta: np.ndarray, rng: np.random.Generator
) -> None:
    """Reassign vertices of one replica to realise a count-level delta.

    The agent-level lift of a population-level corruption: ``delta`` is
    ``corrupted_counts - counts`` (summing to zero), and uniformly
    random holders of each losing opinion are moved to the gaining
    opinions, with the victim→gainer pairing shuffled so it carries no
    positional bias when several opinions lose and several gain at
    once.  Shared by the sequential :class:`~repro.engine.agent.
    AgentEngine` and the batched :class:`~repro.engine.agent_batch.
    BatchAgentEngine`, so the two engines can never drift apart on how
    a corruption lands on vertices.  Mutates ``opinions`` in place.
    """
    losers = np.flatnonzero(delta < 0)
    if losers.size == 0:
        return
    victims = np.concatenate(
        [
            rng.choice(
                np.flatnonzero(opinions == opinion),
                size=int(-delta[opinion]),
                replace=False,
            )
            for opinion in losers
        ]
    )
    gainers = np.flatnonzero(delta > 0)
    new_labels = np.repeat(gainers, delta[gainers])
    rng.shuffle(victims)
    opinions[victims] = new_labels.astype(opinions.dtype)


def apply_corruption(
    counts: np.ndarray,
    adversary: Adversary,
    rng: np.random.Generator,
) -> np.ndarray:
    """One checked corruption: corrupt ``counts`` and enforce the contract.

    The adversary receives its own copy of the configuration: a strategy
    that mutates its input in place could otherwise never fail the
    contract (before and after would be the same array), and the
    engine's own state stays isolated from the adversary.
    """
    before = np.asarray(counts)
    corrupted = adversary.corrupt(before.copy(), rng)
    return enforce_corruption_contract(before, corrupted, adversary.budget)
