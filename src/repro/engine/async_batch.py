"""Asynchronous engine: R [CMRSS25] chains advanced in lockstep.

In the asynchronous model of [CMRSS25] (paper Section 1.1) one
uniformly random vertex updates its opinion per tick; ``n`` ticks
correspond to one synchronous round.  Ticks are inherently sequential
*in time* — the law changes after every tick — so what vectorises is
replication: R independent chains advance tick-by-tick in lockstep as
one ``(R, k)`` count matrix, each tick one call to the dynamics'
``async_population_step_batch`` on the active rows: in every row one
uniformly random vertex applies the dynamics' ``vertex_update`` to
uniformly random vertices' opinions.  A lone chain is the one-row
case.  This is the only asynchronous engine: the registry
names ``async`` and ``async-batch`` both run it.

Each row is the [CMRSS25] chain: ``tests/test_exact_distributions.py``
checks the one-tick law and the consensus-tick law of every catalogued
dynamics against exact small-chain oracles.  All rows share one
generator, so R rows equal R separately seeded chains in distribution,
not in realisation.

The run loop — frozen rows, the adversary contract, ``record_hook``,
results and the ``on_budget`` tail — is that of
:class:`~repro.engine.batch.BatchPopulationEngine`, which this engine
subclasses with one :meth:`step` = one tick.  What the asynchronous
chain changes:

* **Stopping** — rows freeze the tick they reach the dynamics'
  consensus, gated by the cheap one-opinion-holds-all filter, so the
  per-tick cost of the check is one row-wise max.  There is no
  ``target``.
* **Corruption** — an optional F-bounded adversary corrupts every active
  row once per synchronous-equivalent round, on every ``n``-th tick:
  the natural translation of the [GL18] "F per round" budget into the
  asynchronous model.
* **Units** — ``tick_index`` and ``consensus_ticks`` count ticks;
  results report synchronous-equivalent ``ceil(ticks / n)`` rounds with
  the raw count in ``metrics["ticks"]``, and a spec's round budget is
  ``max_rounds * n`` ticks.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.adversary.base import Adversary
from repro.core.base import Dynamics
from repro.engine.batch import BatchPopulationEngine, run_to_budget
from repro.engine.registry import register_engine
from repro.engine.runner import RunResult
from repro.errors import ConfigurationError
from repro.seeding import RandomState

__all__ = ["AsyncBatchPopulationEngine"]


class AsyncBatchPopulationEngine(BatchPopulationEngine):
    """Advance R asynchronous chains tick-by-tick as one count matrix.

    Takes the parameters of
    :class:`~repro.engine.batch.BatchPopulationEngine` except
    ``target``.  Each tick is one call to the dynamics'
    ``async_population_step_batch`` on the active rows, which the base
    class derives from the dynamics' ``vertex_update``, so every
    dynamics ticks.  The engine announces its number of labels through
    ``bind_opinion_space`` at construction (Undecided-State reads its
    undecided label from it).  A lone chain is ``num_replicas=1``.  The
    adversary corrupts on every ``n``-th tick, and ``record_hook`` is
    called per tick with the tick index.

    Attributes
    ----------
    counts, frozen:
        As on :class:`~repro.engine.batch.BatchPopulationEngine`.
    tick_index:
        Asynchronous ticks executed so far (shared by all replicas).
    consensus_ticks:
        Int ``(R,)`` array of per-replica stopping ticks (-1 while
        unfinished).
    round_index, consensus_rounds:
        The same in synchronous-equivalent rounds.
    """

    _unit = "tick"

    def __init__(
        self,
        dynamics: Dynamics,
        counts: np.ndarray,
        num_replicas: int | None = None,
        seed: RandomState = None,
        adversary: Adversary | None = None,
        backend: str | None = None,
        record_hook: Callable[[int, np.ndarray, np.ndarray], None]
        | None = None,
    ) -> None:
        super().__init__(
            dynamics,
            counts,
            num_replicas,
            seed,
            adversary,
            backend=backend,
            record_hook=record_hook,
        )
        self.dynamics.bind_opinion_space(self.num_opinions)

    def _advance(self, active: np.ndarray) -> np.ndarray:
        return self.dynamics.async_population_step_batch(
            self._matrix[active], self.rng
        )

    def _corrupt(self, rows: np.ndarray) -> np.ndarray:
        # Only every n-th tick closes a synchronous-equivalent round.
        if self._index % self.num_vertices:
            return rows
        return super()._corrupt(rows)

    def _stopped(self, rows: np.ndarray) -> np.ndarray:
        # Cheap hot-path filter first (one row-wise max); only rows
        # where a single label holds everything pay the dynamics' own
        # convention check — for Undecided-State an all-undecided row
        # never freezes (it surfaces as censored).
        hit = rows.max(axis=1) == self.num_vertices
        if hit.any():
            hit[hit] = super()._stopped(rows[hit])
        return hit

    def _timing(self, ticks: int) -> dict:
        """Synchronous-equivalent ``ceil(ticks / n)`` rounds, so
        asynchronous and synchronous measurements aggregate in the same
        units, with the raw ticks in ``metrics["ticks"]``."""
        return {
            "rounds": math.ceil(ticks / self.num_vertices),
            "metrics": {"ticks": ticks},
        }

    def _budget(self, rounds: int) -> tuple[int, str]:
        ticks = rounds * self.num_vertices
        return ticks, (
            f"{ticks} ticks ({rounds} synchronous-equivalent rounds)"
        )

    def run_until_consensus(self, max_ticks: int) -> list[RunResult]:
        """Run until every replica froze or ``max_ticks`` ticks passed."""
        return super().run_until_consensus(max_ticks)

    def run_ticks(self, ticks: int) -> np.ndarray:
        """Execute exactly ``ticks`` ticks (finished rows stay frozen)."""
        if ticks < 0:
            raise ConfigurationError(
                f"ticks must be non-negative, got {ticks}"
            )
        for _ in range(ticks):
            self.step()
        return self.counts

    @property
    def tick_index(self) -> int:
        """Asynchronous ticks executed so far."""
        return self._index

    @property
    def consensus_ticks(self) -> np.ndarray:
        """Per-replica stopping ticks (-1 while unfinished)."""
        return self._stop_index

    @property
    def round_index(self) -> float:
        """Synchronous-equivalent rounds elapsed (= ticks / n)."""
        return self._index / self.num_vertices

    @property
    def consensus_rounds(self) -> np.ndarray:
        """Per-replica stopping times in whole synchronous-equivalent
        rounds (``consensus_ticks // n``; -1 while unfinished)."""
        return np.where(
            self.frozen, self._stop_index // self.num_vertices, -1
        ).astype(np.int64)


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R asynchronous replicas in one engine.

    The spec's round budget is interpreted as ``max_rounds * n`` ticks.
    """
    engine = AsyncBatchPopulationEngine(
        spec.resolved_dynamics(),
        spec.initial_counts(),
        num_replicas=spec.replicas,
        seed=spec.seed,
        adversary=spec.resolved_adversary(),
        backend=getattr(spec, "backend", None),
    )
    return run_to_budget(engine, spec)


_CAPABILITIES = dict(supports_target=False, supports_adversary=True)

register_engine(
    "async-batch",
    _run_spec,
    description=(
        "R one-vertex-per-tick chains advanced in lockstep as one "
        "(R, k) count matrix"
    ),
    **_CAPABILITIES,
)
# The [CMRSS25] model's own name runs the same engine.
register_engine(
    "async",
    _run_spec,
    description=(
        "one-vertex-per-tick chain ([CMRSS25] model); another name "
        "for async-batch"
    ),
    **_CAPABILITIES,
)
