"""The per-replica run record every engine returns.

The paper's central observable is the *consensus time* ``tau_cons``
(Definition 3.1): the first round at which all vertices support one
opinion.  Every engine's ``run_until_consensus`` (and every registry
adapter) reports it per replica as a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of a single run.

    Attributes
    ----------
    converged:
        True when consensus (or the caller's ``target`` predicate) was
        reached within the round budget.
    rounds:
        Rounds executed.  Equal to the consensus time when
        ``converged`` and the default predicate were used.
    winner:
        Winning opinion at consensus, else ``None``.
    final_counts:
        Configuration when the run stopped.
    metrics:
        Free-form extras attached by callers (e.g. recorded series).
    """

    converged: bool
    rounds: int
    winner: int | None
    final_counts: np.ndarray
    metrics: dict = field(default_factory=dict)

    @property
    def consensus_time(self) -> int | None:
        """Rounds to consensus, or ``None`` if the run did not converge."""
        return self.rounds if self.converged else None
