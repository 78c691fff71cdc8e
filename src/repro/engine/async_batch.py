"""Vectorised asynchronous batch engine: R async chains in lockstep.

The [CMRSS25] asynchronous model updates one uniformly random vertex per
tick, so ticks are inherently sequential *in time* — the law changes
after every tick and there is nothing to vectorise within one chain.
What *can* be vectorised is replication: R independent asynchronous
chains advanced tick-by-tick in lockstep as one ``(R, k)`` count matrix,
with each tick's single-vertex update sampled across every active row
in one call to the dynamics' ``async_population_step_batch``.  A
``replicate``-style asynchronous workload then costs one vectorised
Python loop over ticks instead of R sequential ones — the same
replica-axis trick as :class:`~repro.engine.batch.BatchPopulationEngine`
applied to the paper's sync-vs-async ``~O(min(kn, n^{3/2}))``
comparison (``benchmarks/bench_async_batch.py`` tracks the speedup).

Each row is the same Markov chain a single
:class:`~repro.engine.asynchronous.AsyncPopulationEngine` runs (the
tests check distributional agreement via KS tests), but all rows share
one generator, so a batch run is equal to R seeded sequential runs in
distribution, not in realisation.

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
  the same [GL18] budget translation as the sequential asynchronous
  engine.
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
    ``target``.  Every catalogued dynamics ticks fully vectorised via
    its ``async_population_step_batch`` override; third-party dynamics
    without one fall back to a per-row loop over
    ``async_population_step`` (correct, no speedup).  The adversary
    corrupts on every ``n``-th tick, and ``record_hook`` is called per
    tick with the tick index.

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
        # never freezes (it surfaces as censored), exactly like the
        # sequential async engine.
        hit = rows.max(axis=1) == self.num_vertices
        if hit.any():
            hit[hit] = super()._stopped(rows[hit])
        return hit

    def _timing(self, ticks: int) -> dict:
        """Synchronous-equivalent ``ceil(ticks / n)`` rounds (the
        sequential ``async`` adapter's convention, so batched and
        sequential measurements aggregate in the same units), with the
        raw ticks in ``metrics["ticks"]``."""
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

    The spec's round budget is interpreted as ``max_rounds * n`` ticks,
    like the sequential ``async`` adapter.
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


register_engine(
    "async-batch",
    _run_spec,
    description=(
        "R one-vertex-per-tick chains advanced in lockstep as one "
        "(R, k) count matrix"
    ),
    supports_target=False,
    supports_observers=False,
    supports_adversary=True,
)
