"""The near-consensus convention for adversarial runs.

An adversary with any budget ``F >= 1`` can trivially keep one stray
vertex alive forever, so strict consensus is the wrong observable for
tolerance measurements.  The convention used throughout the library
(the ``adv`` experiment, the CLI, sweep points, benchmarks): "agreement
despite the adversary" means the leader holds all but ``4 F`` vertices.

For budgets so large that ``n - 4F`` drops to (or below) half the
population, that threshold would be vacuous — e.g. a balanced two-way
tie would instantly satisfy it, reporting the strongest adversaries as
*instant successes* instead of stalls.  The threshold therefore never
falls below a strict majority: agreement always requires the leader to
hold more than ``n / 2`` vertices.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LeaderThresholdTarget",
    "near_consensus_target",
    "near_consensus_threshold",
]


def near_consensus_threshold(n: int, budget: int) -> int:
    """Leader count that counts as agreement despite an F-adversary.

    ``n`` with a zero budget (strict consensus), otherwise
    ``max(n - 4 * budget, strict majority)``.
    """
    n = int(n)
    if budget <= 0:
        return n
    return max(n - 4 * int(budget), n // 2 + 1)


class LeaderThresholdTarget:
    """Stopping predicate "the leading opinion holds >= threshold".

    Callable on a single count vector (usable anywhere a ``target``
    predicate is accepted), and additionally exposes :meth:`batch` so
    the batch engine can evaluate all R replica rows in one numpy op
    instead of R Python calls per round.  Module-level class, so sweep
    point functions carrying one stay picklable.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = int(threshold)

    def __call__(self, counts: np.ndarray) -> bool:
        return int(np.asarray(counts).max()) >= self.threshold

    def batch(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised per-row evaluation on an ``(R, k)`` count matrix."""
        return np.asarray(rows).max(axis=1) >= self.threshold

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LeaderThresholdTarget)
            and other.threshold == self.threshold
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.threshold))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LeaderThresholdTarget({self.threshold})"


def near_consensus_target(n: int, budget: int) -> LeaderThresholdTarget:
    """Stopping predicate for :func:`near_consensus_threshold`.

    Usable as a ``SimulationSpec.target`` / ``Simulation.stop_when``
    argument or as a batch engine's ``target``, which evaluates it
    vectorised.
    """
    return LeaderThresholdTarget(near_consensus_threshold(n, budget))
