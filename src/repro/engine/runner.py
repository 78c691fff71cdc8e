"""Run control: run-to-consensus, stopping predicates, replication.

The paper's central observable is the *consensus time* ``tau_cons``
(Definition 3.1): the first round at which all vertices support one
opinion.  :func:`run_until_consensus` measures it for any engine exposing
``step() / counts / round_index``; :func:`replicate` repeats a run factory
across independent seed streams and collects the results.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine.callbacks import Observer
from repro.seeding import RandomState, spawn_generators
from repro.state import consensus_opinion, is_consensus
from repro.errors import ConfigurationError, ConsensusNotReached

__all__ = [
    "RunResult",
    "replicate",
    "run_spec_replica",
    "run_until_consensus",
]


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


def run_until_consensus(
    engine,
    max_rounds: int,
    observers: Sequence[Observer] = (),
    target: Callable[[np.ndarray], bool] | None = None,
    on_budget: str = "return",
) -> RunResult:
    """Advance ``engine`` until consensus or a round budget.

    Parameters
    ----------
    engine:
        Any object with ``step()``, ``counts`` and ``round_index`` —
        i.e. :class:`~repro.engine.population.PopulationEngine` or
        :class:`~repro.engine.agent.AgentEngine` (the asynchronous chain
        runs on :class:`~repro.engine.async_batch.
        AsyncBatchPopulationEngine`, whose replica loop counts ticks).
    max_rounds:
        Hard budget on rounds executed by *this call*.
    observers:
        Observers notified with the initial configuration and after every
        round.
    target:
        Optional alternative stopping predicate on the count vector; the
        default stops at consensus.  When provided, ``converged`` in the
        result reflects this predicate instead.
    on_budget:
        ``"return"`` (default) returns a result with
        ``converged=False`` when the budget runs out; ``"raise"`` raises
        :class:`~repro.errors.ConsensusNotReached`.
    """
    if max_rounds < 0:
        raise ConfigurationError(
            f"max_rounds must be non-negative, got {max_rounds}"
        )
    if on_budget not in ("return", "raise"):
        raise ConfigurationError(
            f"on_budget must be 'return' or 'raise', got {on_budget!r}"
        )
    # The consensus convention travels with the dynamics (e.g.
    # Undecided-State only stops on a *decided* winner); engines
    # without a dynamics fall back to the generic check.  It is both
    # the default stopping rule and — like the batch engine — the gate
    # on reporting a winner when a custom target stops the run.
    dynamics = getattr(engine, "dynamics", None)
    at_consensus = (
        dynamics.is_consensus_counts
        if dynamics is not None
        and hasattr(dynamics, "is_consensus_counts")
        else is_consensus
    )
    done = target if target is not None else at_consensus

    def stopped_result() -> RunResult:
        return RunResult(
            converged=True,
            rounds=engine.round_index,
            winner=consensus_opinion(counts)
            if at_consensus(counts)
            else None,
            final_counts=np.asarray(counts).copy(),
        )

    counts = engine.counts
    for obs in observers:
        obs.observe(engine.round_index, counts)
    if done(counts):
        return stopped_result()

    for _ in range(max_rounds):
        engine.step()
        counts = engine.counts
        for obs in observers:
            obs.observe(engine.round_index, counts)
        if done(counts):
            return stopped_result()

    if on_budget == "raise":
        raise ConsensusNotReached(engine.round_index)
    return RunResult(
        converged=False,
        rounds=engine.round_index,
        winner=None,
        final_counts=np.asarray(counts).copy(),
    )


def run_spec_replica(engine, spec, max_rounds: int) -> RunResult:
    """Run one replica engine under a spec's stopping rule.

    Shared by the step-based engines' registry adapters: builds this
    replica's observers from ``spec.observer_factory`` (observers are
    stateful, so each replica needs fresh ones), applies the spec's
    ``target``/``on_budget``, and exposes the observers on the result —
    ``result.metrics["observers"]`` is the caller's only handle on a
    replica's recorded series.
    """
    observers = (
        tuple(spec.observer_factory())
        if spec.observer_factory is not None
        else ()
    )
    result = run_until_consensus(
        engine,
        max_rounds=max_rounds,
        observers=observers,
        target=spec.target,
        on_budget=spec.on_budget,
    )
    if observers:
        result.metrics["observers"] = observers
    return result


def replicate(
    run_factory: Callable[[np.random.Generator], RunResult],
    num_runs: int,
    seed: RandomState = None,
) -> list[RunResult]:
    """Execute ``num_runs`` independent runs with spawned seed streams.

    ``run_factory(rng)`` builds and executes one run end-to-end (typically
    constructing an engine around the given generator and calling
    :func:`run_until_consensus`).  Replica ``i`` always receives child
    stream ``i`` of ``seed``, so results are order-independent and
    reproducible.
    """
    if num_runs < 1:
        raise ConfigurationError(
            f"num_runs must be at least 1, got {num_runs}"
        )
    generators = spawn_generators(seed, num_runs)
    return [run_factory(rng) for rng in generators]
