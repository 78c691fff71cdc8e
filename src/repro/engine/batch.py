"""Vectorised batch-replica engine: R population chains in lockstep.

:func:`~repro.engine.runner.replicate` advances R independent runs as a
Python loop over single :class:`~repro.engine.population.PopulationEngine`
instances — R round-loops, each paying the per-call numpy overhead on tiny
arrays.  This engine instead holds all R replicas as one ``(R, k)`` int64
count matrix and advances every *unfinished* replica with a single call to
the dynamics' ``population_step_batch``.  Every dynamics in the catalogue
is fully vectorised there: one batched multinomial for 3-Majority and
Voter, a binomial + multinomial pair for 2-Choices and Undecided-State, a
batched group-law multinomial for the Median rule, and one batched
multinomial over the exact majority-of-h law for h-Majority
(``benchmarks/bench_batch_dynamics.py`` guards the overrides and tracks
the speedups), so a ``replicate``-style
workload has one vectorised hot loop instead of R sequential ones.

The stopping rule is dynamics-aware: each round the engine asks the
dynamics' ``consensus_mask_batch`` which rows stopped, so dynamics with
auxiliary labels keep their own convention — for Undecided-State,
"consensus" means one *decided* opinion holds everything and the
(absorbing, practically unreachable) all-undecided row counts as
censored, never as a winner.

Each row is the same Markov chain a single :class:`PopulationEngine` runs
(the tests check distributional agreement via KS tests), but all rows
share one generator, so a batch run is *not* bitwise-identical to R
seeded sequential runs — equal in distribution, not in realisation.

Rows are frozen the round they stop: they are excluded from subsequent
sampling, their count vectors never change again, and their stopping
round is recorded.  The stopping rule is consensus by default, or a
caller-supplied ``target`` predicate evaluated per row.  An optional
F-bounded adversary corrupts every active row once per round (after the
dynamics, before the stopping check — the same interleaving as the
sequential adversarial chain), using the strategy's vectorised
``corrupt_batch`` with the contract enforced on every row.  The engine
keeps running until every row is frozen or the round budget is spent.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.adversary.base import (
    Adversary,
    enforce_corruption_contract_batch,
)
from repro.backends import resolve_backend, use_backend
from repro.core.base import Dynamics
from repro.engine.registry import register_engine
from repro.engine.runner import RunResult
from repro.errors import ConfigurationError, ConsensusNotReached
from repro.seeding import RandomState, as_generator
from repro.state import validate_counts

__all__ = ["BatchPopulationEngine", "build_replica_matrix"]


def build_replica_matrix(
    counts: np.ndarray, num_replicas: int | None
) -> np.ndarray:
    """Normalise a batch engine's start into an ``(R, k)`` count matrix.

    Accepts either a 1-D configuration (tiled ``num_replicas`` times) or
    an explicit ``(R, k)`` matrix (validated row-wise, ``num_replicas``
    optional but checked when given); every row must carry the same
    total mass.  Shared by the synchronous and asynchronous batch
    engines so both accept starts in exactly the same shapes.
    """
    arr = np.asarray(counts)
    if arr.ndim == 1:
        if num_replicas is None:
            raise ConfigurationError(
                "num_replicas is required when counts is a single "
                "1-D configuration"
            )
        if num_replicas < 1:
            raise ConfigurationError(
                f"num_replicas must be at least 1, got {num_replicas}"
            )
        base = validate_counts(arr)
        return np.tile(base, (int(num_replicas), 1))
    if arr.ndim == 2:
        rows = [validate_counts(row) for row in arr]
        if num_replicas is not None and num_replicas != len(rows):
            raise ConfigurationError(
                f"counts has {len(rows)} rows but num_replicas="
                f"{num_replicas}"
            )
        matrix = np.stack(rows)
        totals = matrix.sum(axis=1)
        if (totals != totals[0]).any():
            raise ConfigurationError(
                "every replica row must have the same total mass; "
                f"got row sums {np.unique(totals).tolist()}"
            )
        return matrix
    raise ConfigurationError(
        f"counts must be 1-D or (R, k), got shape {arr.shape}"
    )


class BatchPopulationEngine:
    """Advance R replicas of a population chain as one count matrix.

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics`.  Every catalogued
        dynamics (3-Majority, 2-Choices, Voter, Median, Undecided-State,
        h-Majority) runs fully vectorised; third-party dynamics without
        a ``population_step_batch`` override fall back to a row loop
        (correct, no speedup).
    counts:
        Either a 1-D count vector shared by every replica, or an
        ``(R, k)`` matrix giving each replica its own start.  Every row
        must have the same total mass ``n``.
    num_replicas:
        Number of replicas R.  Required with a 1-D ``counts``; with a
        matrix it must match the row count (or be omitted).
    seed:
        Anything accepted by :func:`repro.seeding.as_generator`.  One
        stream drives all replicas.
    adversary:
        Optional F-bounded :class:`~repro.adversary.base.Adversary`
        corrupting every active row after each round via
        ``corrupt_batch`` (contract-checked per row).
    target:
        Optional stopping predicate on a single row's count vector;
        replaces the consensus check, evaluated per active row per
        round.  Rows satisfying it freeze exactly like consensus rows.
    backend:
        Optional compute backend pinned for this engine's steps (name,
        instance, or ``None``/``"auto"`` to inherit the ambient backend
        — see :mod:`repro.backends`).  A pure performance knob: it
        never changes the sampled chain's law.
    record_hook:
        Optional observation callback ``hook(round_index, counts,
        frozen)`` invoked after every :meth:`step` with the engine's
        own state (the live ``(R, k)`` matrix and ``(R,)`` mask —
        copy if you keep them).  The batch-engine counterpart of the
        sequential engines' :class:`~repro.engine.callbacks.Observer`
        protocol, used by :mod:`repro.invariants` to record traces;
        costs nothing when ``None``.

    Attributes
    ----------
    counts:
        The ``(R, k)`` configuration matrix (owned by the engine).
    round_index:
        Synchronous rounds executed so far (shared by all replicas).
    frozen:
        Boolean ``(R,)`` mask of replicas that stopped (consensus, or
        the ``target`` predicate when given).
    consensus_rounds:
        Int ``(R,)`` array of per-replica stopping times (-1 while
        unfinished).
    """

    def __init__(
        self,
        dynamics: Dynamics,
        counts: np.ndarray,
        num_replicas: int | None = None,
        seed: RandomState = None,
        adversary: Adversary | None = None,
        target: Callable[[np.ndarray], bool] | None = None,
        backend: str | None = None,
        record_hook: Callable[[int, np.ndarray, np.ndarray], None]
        | None = None,
    ) -> None:
        self.backend = (
            None if backend in (None, "auto") else resolve_backend(backend)
        )
        self.record_hook = record_hook
        self.dynamics = dynamics
        self.adversary = adversary
        self.target = target
        self.counts = build_replica_matrix(counts, num_replicas)
        self.num_replicas = int(self.counts.shape[0])
        self.num_opinions = int(self.counts.shape[1])
        self.num_vertices = int(self.counts[0].sum())
        self.rng = as_generator(seed)
        self.round_index = 0
        self.frozen = self._stopped(self.counts)
        self.consensus_rounds = np.where(self.frozen, 0, -1).astype(
            np.int64
        )

    def _stopped(self, rows: np.ndarray) -> np.ndarray:
        """Per-row stopping mask: consensus, or the ``target`` predicate.

        The default consensus check is the *dynamics'*
        ``consensus_mask_batch``, so label conventions travel with the
        dynamics (Undecided-State only stops on a decided winner).
        Targets exposing a ``batch(rows)`` method (e.g.
        :class:`~repro.adversary.tolerance.LeaderThresholdTarget`) are
        evaluated in one vectorised call; plain predicates fall back to
        a per-row loop.
        """
        if self.target is None:
            return np.asarray(
                self.dynamics.consensus_mask_batch(rows), dtype=bool
            )
        batch_predicate = getattr(self.target, "batch", None)
        if batch_predicate is not None:
            return np.asarray(batch_predicate(rows), dtype=bool)
        return np.fromiter(
            (bool(self.target(row)) for row in rows),
            dtype=bool,
            count=rows.shape[0],
        )

    def step(self) -> np.ndarray:
        """Advance every unfinished replica one round.

        Frozen rows are excluded from sampling (and from corruption)
        and keep their counts; rows that hit the stopping rule this
        round — checked *after* the adversary's corruption, matching
        the sequential adversarial chain — record it and freeze.
        """
        active = ~self.frozen
        self.round_index += 1
        if active.any():
            with use_backend(self.backend):
                new_rows = self.dynamics.population_step_batch(
                    self.counts[active], self.rng
                )
            if self.adversary is not None:
                # The adversary gets its own copy so an in-place-
                # mutating corrupt_batch cannot defeat the contract
                # check by changing the "before" matrix too.
                corrupted = self.adversary.corrupt_batch(
                    new_rows.copy(), self.rng
                )
                new_rows = enforce_corruption_contract_batch(
                    new_rows, corrupted, self.adversary.budget
                )
            self.counts[active] = new_rows
            active_indices = np.flatnonzero(active)
            done = active_indices[self._stopped(new_rows)]
            self.consensus_rounds[done] = self.round_index
            self.frozen[done] = True
        if self.record_hook is not None:
            self.record_hook(self.round_index, self.counts, self.frozen)
        return self.counts

    def all_consensus(self) -> bool:
        """True once every replica has stopped."""
        return bool(self.frozen.all())

    def run_until_consensus(self, max_rounds: int) -> list[RunResult]:
        """Run until every replica froze or ``max_rounds`` rounds passed.

        Returns one :class:`~repro.engine.runner.RunResult` per replica,
        in row order: converged replicas report their stopping time and
        winner (``None`` unless at strict consensus); censored ones
        report the budget with ``winner=None``.
        """
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be non-negative, got {max_rounds}"
            )
        while not self.frozen.all() and self.round_index < max_rounds:
            self.step()
        return self.results()

    def results(self) -> list[RunResult]:
        """Per-replica results for the rounds executed so far.

        ``winner`` uses the dynamics' consensus convention, so an
        Undecided-State row reports a winner only when a *decided*
        opinion holds everything (the winning label is then that decided
        opinion — the undecided slot is empty at consensus).
        """
        winners = self.counts.argmax(axis=1)
        at_consensus = np.asarray(
            self.dynamics.consensus_mask_batch(self.counts), dtype=bool
        )
        out: list[RunResult] = []
        for r in range(self.num_replicas):
            converged = bool(self.frozen[r])
            out.append(
                RunResult(
                    converged=converged,
                    rounds=int(self.consensus_rounds[r])
                    if converged
                    else self.round_index,
                    winner=int(winners[r])
                    if converged and at_consensus[r]
                    else None,
                    final_counts=self.counts[r].copy(),
                )
            )
        return out

    # ------------------------------------------------------------------
    # Inspection helpers (matrix-level views)
    # ------------------------------------------------------------------
    @property
    def alpha(self) -> np.ndarray:
        """Fractional populations, shape ``(R, k)``."""
        return self.counts / self.num_vertices

    @property
    def gamma(self) -> np.ndarray:
        """Per-replica ``gamma_t``, shape ``(R,)``."""
        a = self.alpha
        return np.einsum("rk,rk->r", a, a)

    @property
    def alive(self) -> np.ndarray:
        """Per-replica surviving-opinion counts, shape ``(R,)``."""
        return np.count_nonzero(self.counts, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        adv = (
            f", adversary={self.adversary!r}"
            if self.adversary is not None
            else ""
        )
        return (
            f"BatchPopulationEngine({self.dynamics.name}, "
            f"R={self.num_replicas}, n={self.num_vertices}, "
            f"k={self.num_opinions}, round={self.round_index}, "
            f"frozen={int(self.frozen.sum())}{adv})"
        )


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R replicas in one vectorised engine.

    Honors ``spec.on_budget`` like every other engine adapter: with
    ``"raise"``, censored replicas raise
    :class:`~repro.errors.ConsensusNotReached` here rather than relying
    on the :func:`~repro.simulation.run.execute` dispatcher, so direct
    ``get_engine("batch").run(spec)`` callers see the same contract as
    population/agent/async.
    """
    engine = BatchPopulationEngine(
        spec.resolved_dynamics(),
        spec.initial_counts(),
        num_replicas=spec.replicas,
        seed=spec.seed,
        adversary=spec.resolved_adversary(),
        target=spec.target,
        backend=getattr(spec, "backend", None),
    )
    budget = spec.round_budget()
    results = engine.run_until_consensus(budget)
    if spec.on_budget == "raise":
        censored = sum(1 for result in results if not result.converged)
        if censored:
            raise ConsensusNotReached(
                budget,
                f"{censored} of {spec.replicas} replicas did not reach "
                f"consensus within {budget} rounds",
            )
    return results


register_engine(
    "batch",
    _run_spec,
    description=(
        "R replicas advanced in lockstep as one (R, k) count matrix"
    ),
    supports_target=True,
    supports_observers=False,
    supports_adversary=True,
)
