"""Vectorised batch-replica engines: R chains in lockstep, one run loop.

On the complete graph with self-loops the vertices are exchangeable
and, given the previous round, update independently, so the count
vector is a sufficient statistic and the dynamics'
``population_step_batch`` samples the next configuration *exactly*
(paper eqs. (5), (6)).  :class:`BatchPopulationEngine` holds R replicas
of that chain as one ``(R, k)`` int64 count matrix and advances every
*unfinished* replica with a single call to the dynamics'
``population_step_batch``.  Every dynamics in the catalogue is fully
vectorised there: one batched multinomial for 3-Majority and Voter, a
binomial + multinomial pair for Undecided-State and for 2-Choices when
many vertices switch (2-Choices draws only the switching vertices when
few do), a batched group-law multinomial for the Median rule, and one
batched multinomial over the exact majority-of-h law for h-Majority
(``benchmarks/bench_batch_dynamics.py`` guards the overrides and tracks
the speedups).

It is the only engine of the population chain: ``batch`` and
``population`` are two registry names of one adapter, so seeded specs
return the same results under either name.  All rows share one
generator, so replica ``i``'s realisation depends on R; a lone chain is
the engine with ``num_replicas=1``.  The tests check each one-step law,
and the consensus-round law of small systems, against exact oracles
(``tests/test_exact_distributions.py``).

The shared replica run loop
---------------------------
:class:`BatchPopulationEngine` is also the run loop of the graph and
asynchronous batch engines (:class:`~repro.engine.agent_batch.
BatchAgentEngine`, :class:`~repro.engine.async_batch.
AsyncBatchPopulationEngine`).  It builds the start matrix
(:func:`build_replica_matrix`) and pins the optional compute backend.
Each :meth:`~BatchPopulationEngine.step` advances only the *active*
rows, lets an optional F-bounded adversary corrupt them through
``corrupt_batch`` with the [GL18] contract enforced row-wise (after the
dynamics, before the stopping check), freezes the rows that stop and
calls the optional ``record_hook``, the engines' one per-round
observation channel.  A row stops at consensus under the dynamics'
own convention (for Undecided-State only a *decided* opinion holding
everything; the all-undecided row is censored, never a winner) or when
a caller ``target`` holds on its count vector.  Frozen rows are
excluded from sampling and corruption and never change again.
:func:`engine_from_spec` builds the population engine a spec describes,
and :func:`run_to_budget` is the registry adapters' shared
``on_budget`` tail.

The subclasses override only what their chain changes: the start
(``_start_matrix``), the batched dynamics step (``_advance``), the
stopping mask (``_stopped``), the corruption (``_corrupt``) and the
time units of results and budgets (``_timing``, ``_budget``).
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

__all__ = [
    "BatchPopulationEngine",
    "build_replica_matrix",
    "engine_from_spec",
    "run_to_budget",
]


def build_replica_matrix(
    start: np.ndarray,
    num_replicas: int | None,
    validate_row: Callable[[np.ndarray], np.ndarray] = validate_counts,
    name: str = "counts",
) -> np.ndarray:
    """Normalise a batch engine's start into one row per replica.

    Accepts either a 1-D configuration (tiled ``num_replicas`` times) or
    an explicit matrix (``num_replicas`` optional but checked when
    given).  ``validate_row`` validates one row — a count vector by
    default, an opinion vector for the graph engine — and ``name``
    labels the start in error messages.  A start with no replica rows
    raises :class:`~repro.errors.ConfigurationError`.
    """
    arr = np.asarray(start)
    if arr.ndim == 1:
        if num_replicas is None:
            raise ConfigurationError(
                f"num_replicas is required when {name} is a single "
                "1-D configuration"
            )
        if num_replicas < 1:
            raise ConfigurationError(
                f"num_replicas must be at least 1, got {num_replicas}"
            )
        return np.tile(validate_row(arr), (int(num_replicas), 1))
    if arr.ndim != 2:
        raise ConfigurationError(
            f"{name} must be 1-D or one row per replica, got shape "
            f"{arr.shape}"
        )
    if num_replicas is not None and num_replicas != arr.shape[0]:
        raise ConfigurationError(
            f"{name} has {arr.shape[0]} rows but num_replicas="
            f"{num_replicas}"
        )
    if arr.shape[0] == 0:
        raise ConfigurationError(
            f"{name} has no replica rows, got shape {arr.shape}; a batch "
            "needs at least one"
        )
    return np.stack([validate_row(row) for row in arr])


class BatchPopulationEngine:
    """Advance R replicas of a population chain as one count matrix.

    Also the run loop the other batch engines inherit (see the module
    docstring).

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics`.  Every catalogued
        dynamics (3-Majority, 2-Choices, Voter, Median, Undecided-State,
        h-Majority) runs fully vectorised.  There is no row-loop
        fallback: ``population_step_batch`` is abstract, so a
        third-party dynamics must define it (its single-vector
        ``population_step`` is then derived from it).
    counts:
        Either a 1-D count vector shared by every replica, or an
        ``(R, k)`` matrix giving each replica its own start.  Every row
        must have the same total mass ``n``.
    num_replicas:
        Number of replicas R.  Required with a 1-D start; with a matrix
        it must match the row count (or be omitted).
    seed:
        Anything accepted by :func:`repro.seeding.as_generator`.  One
        stream drives all replicas.
    adversary:
        Optional F-bounded :class:`~repro.adversary.base.Adversary`
        corrupting every active row after each step via
        ``corrupt_batch`` (contract-checked per row).
    target:
        Optional stopping predicate on a single row's count vector;
        replaces the consensus check, evaluated per active row per
        step.  Objects exposing ``batch(rows)`` (e.g.
        :class:`~repro.adversary.tolerance.LeaderThresholdTarget`) are
        evaluated in one vectorised call.  Rows satisfying it freeze
        exactly like consensus rows.
    backend:
        Optional compute backend pinned for this engine's steps (name,
        instance, or ``None``/``"auto"`` to inherit the ambient backend
        — see :mod:`repro.backends`).
    record_hook:
        Optional observation callback ``hook(index, counts, frozen)``
        invoked after every :meth:`step` with the step index, the
        engine's ``(R, k)`` count view and its ``(R,)`` frozen mask
        (live arrays — copy if you keep them).  The engines' one
        per-round observation channel: :mod:`repro.invariants` records
        traces through it, and a
        :class:`~repro.engine.callbacks.TrajectoryRecorder` is fed from
        it; costs nothing when ``None``.

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

    #: What one :meth:`step` is, in budgets and ``repr``.
    _unit = "round"

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
        self._matrix = self._start_matrix(counts, num_replicas)
        self.num_replicas = int(self._matrix.shape[0])
        self.rng = as_generator(seed)
        self._index = 0
        self.frozen = self._stopped(self._matrix)
        self._stop_index = np.where(self.frozen, 0, -1).astype(np.int64)

    def _start_matrix(
        self, counts: np.ndarray, num_replicas: int | None
    ) -> np.ndarray:
        """The validated ``(R, k)`` start; sets ``num_opinions`` and
        ``num_vertices``."""
        matrix = build_replica_matrix(counts, num_replicas)
        totals = matrix.sum(axis=1)
        if (totals != totals[0]).any():
            raise ConfigurationError(
                "every replica row must have the same total mass; "
                f"got row sums {np.unique(totals).tolist()}"
            )
        self.num_opinions = int(matrix.shape[1])
        self.num_vertices = int(totals[0])
        return matrix

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance every unfinished replica one step; return the state.

        Frozen rows are excluded from sampling (and from corruption)
        and keep their state; rows that hit the stopping rule this step
        — checked *after* the adversary's corruption — record it and
        freeze.
        """
        active = np.flatnonzero(~self.frozen)
        self._index += 1
        if active.size:
            with use_backend(self.backend):
                new_rows = self._advance(active)
            if self.adversary is not None:
                new_rows = self._corrupt(new_rows)
            self._store(active, new_rows)
            stopped = self._stopped(new_rows)
            if stopped.any():
                done = active[stopped]
                self._stop_index[done] = self._index
                self.frozen[done] = True
        if self.record_hook is not None:
            self.record_hook(self._index, self.counts, self.frozen)
        return self._matrix

    def all_consensus(self) -> bool:
        """True once every replica has stopped."""
        return bool(self.frozen.all())

    def run_until_consensus(self, max_rounds: int) -> list[RunResult]:
        """Run until every replica froze or ``max_rounds`` steps passed.

        Returns one :class:`~repro.engine.runner.RunResult` per replica,
        in row order (see :meth:`results`).
        """
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_{self._unit}s must be non-negative, got {max_rounds}"
            )
        while not self.frozen.all() and self._index < max_rounds:
            self.step()
        return self.results()

    def results(self) -> list[RunResult]:
        """Per-replica results for the steps executed so far.

        Converged replicas report their stopping time, censored ones
        the steps executed (:meth:`_timing` sets the units).  ``winner``
        follows the dynamics' consensus convention: ``None`` unless the
        row is at strict consensus (for Undecided-State, a *decided*
        opinion holding everything).
        """
        counts = self.counts
        at_consensus = self.frozen & np.asarray(
            self.dynamics.consensus_mask_batch(counts), dtype=bool
        )
        winners = np.where(at_consensus, counts.argmax(axis=1), -1)
        stops = np.where(self.frozen, self._stop_index, self._index)
        return [
            RunResult(
                converged=bool(frozen),
                winner=int(winner) if winner >= 0 else None,
                final_counts=row.copy(),
                **self._timing(int(stop)),
            )
            for frozen, winner, stop, row in zip(
                self.frozen, winners, stops, counts
            )
        ]

    # ------------------------------------------------------------------
    # Per-chain hooks (the population chain's versions)
    # ------------------------------------------------------------------
    def _active_rows(self, active: np.ndarray) -> np.ndarray:
        """The ``active`` rows of the state matrix: the matrix itself
        when every row is active, else a copy of those rows."""
        if active.size == self.num_replicas:
            return self._matrix
        return self._matrix[active]

    def _advance(self, active: np.ndarray) -> np.ndarray:
        """One batched dynamics step of the ``active`` rows."""
        return self.dynamics.population_step_batch(
            self._active_rows(active), self.rng
        )

    def _store(self, active: np.ndarray, new_rows: np.ndarray) -> None:
        """Write the stepped rows back into the state matrix.

        When every row stepped, the new rows become the matrix (in its
        dtype), as ``_active_rows`` handed the step the matrix itself:
        copying the rows out and back each step cost an allocation and,
        at k in the tens of thousands, page faults that tripled the
        cost of a lone 2-Choices round.
        """
        if active.size == self.num_replicas:
            self._matrix = np.ascontiguousarray(
                new_rows, dtype=self._matrix.dtype
            )
        else:
            self._matrix[active] = new_rows

    def _stopped(self, rows: np.ndarray) -> np.ndarray:
        """Per-row stopping mask of count rows.

        The ``target`` when given — one vectorised call when it exposes
        ``batch(rows)`` (e.g. :class:`~repro.adversary.tolerance.
        LeaderThresholdTarget`), else one call per row — otherwise the
        dynamics' ``consensus_mask_batch``, so label conventions travel
        with the dynamics.
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

    def _corrupt(self, rows: np.ndarray) -> np.ndarray:
        """One contract-checked ``corrupt_batch`` of count rows."""
        # The adversary gets its own copy so an in-place-mutating
        # corrupt_batch cannot defeat the contract check by changing
        # the "before" matrix too.
        corrupted = self.adversary.corrupt_batch(rows.copy(), self.rng)
        return enforce_corruption_contract_batch(
            rows, corrupted, self.adversary.budget
        )

    def _timing(self, steps: int) -> dict:
        """``RunResult`` time fields of a row stopped after ``steps``."""
        return {"rounds": steps}

    def _budget(self, rounds: int) -> tuple[int, str]:
        """Steps in a budget of ``rounds`` rounds, and how to say it."""
        return rounds, f"{rounds} rounds"

    # ------------------------------------------------------------------
    # Inspection helpers (matrix-level views)
    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """The ``(R, k)`` count matrix."""
        return self._matrix

    @property
    def round_index(self) -> int:
        """Synchronous rounds executed so far."""
        return self._index

    @property
    def consensus_rounds(self) -> np.ndarray:
        """Per-replica stopping rounds (-1 while unfinished)."""
        return self._stop_index

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
            f"{type(self).__name__}({self.dynamics.name}, "
            f"R={self.num_replicas}, n={self.num_vertices}, "
            f"k={self.num_opinions}, {self._unit}={self._index}, "
            f"frozen={int(self.frozen.sum())}{adv})"
        )


def run_to_budget(
    engine: BatchPopulationEngine, spec
) -> list[RunResult]:
    """Registry-adapter tail shared by the batch engines.

    Runs ``engine`` for the spec's round budget, in the engine's own
    steps, and honours ``spec.on_budget`` like every other engine
    adapter: with ``"raise"``, censored replicas raise
    :class:`~repro.errors.ConsensusNotReached` here rather than relying
    on the :func:`~repro.simulation.run.execute` dispatcher, so direct
    ``get_engine(name).run(spec)`` callers see the same contract.
    """
    budget = spec.round_budget()
    steps, wording = engine._budget(budget)
    results = engine.run_until_consensus(steps)
    if spec.on_budget == "raise":
        censored = sum(1 for result in results if not result.converged)
        if censored:
            raise ConsensusNotReached(
                budget,
                f"{censored} of {spec.replicas} replicas did not reach "
                f"consensus within {wording}",
            )
    return results


def engine_from_spec(
    spec,
    record_hook: Callable[[int, np.ndarray, np.ndarray], None]
    | None = None,
) -> BatchPopulationEngine:
    """The population engine a spec describes: all R replicas, one
    stream seeded from ``spec.seed``, the spec's adversary, target and
    backend, and an optional ``record_hook``.

    The one spec-to-engine mapping of the population chain, shared by
    the registry adapter and callers that observe rounds (``repro
    simulate``'s trajectory).
    """
    return BatchPopulationEngine(
        spec.resolved_dynamics(),
        spec.initial_counts(),
        num_replicas=spec.replicas,
        seed=spec.seed,
        adversary=spec.resolved_adversary(),
        target=spec.target,
        backend=getattr(spec, "backend", None),
        record_hook=record_hook,
    )


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R replicas in one vectorised engine."""
    return run_to_budget(engine_from_spec(spec), spec)


_CAPABILITIES = dict(supports_target=True, supports_adversary=True)

register_engine(
    "batch",
    _run_spec,
    description=(
        "R replicas advanced in lockstep as one (R, k) count matrix"
    ),
    **_CAPABILITIES,
)
# The paper's own chain name runs the same engine.
register_engine(
    "population",
    _run_spec,
    description=(
        "exact count-vector chain on the complete graph with "
        "self-loops; another name for batch"
    ),
    **_CAPABILITIES,
)
