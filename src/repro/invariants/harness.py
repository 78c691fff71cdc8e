"""Cross-engine harness: run any registered engine under full recording.

:func:`run_traced` builds one engine by registry name, drives it for a
bounded number of rounds (ticks for the asynchronous families) and
returns the complete :class:`~repro.invariants.trace.RunTrace` —
per-observation count matrices and frozen masks, plus the adversary's
ledger.  The recording channel differs per family but the trace format
does not:

* batch engines (``batch`` / ``agent-batch`` / ``async-batch``, and
  ``async``, which is another name for ``async-batch``) record through
  their opt-in ``record_hook`` — the engine calls back after every
  step/tick with its own state, so the trace sees exactly what the
  engine saw;
* sequential engines (``population`` / ``agent``) are stepped directly
  and snapshotted through their public ``counts``/``round_index``
  surface — the same observation contract the sequential
  :class:`~repro.engine.callbacks.Observer` callbacks use, with the
  single run traced as replica row 0.

Adversaries are wrapped in
:class:`~repro.invariants.trace.LedgerAdversary` before the engine
ever sees them, so budget accounting is measured at the corruption
call sites, uniformly for every registered engine.
"""

from __future__ import annotations

import numpy as np

from repro.adversary import make_adversary, near_consensus_target
from repro.configs import balanced
from repro.core.registry import make_dynamics
from repro.core.undecided import UndecidedStateDynamics, with_undecided_slot
from repro.engine import (
    AgentEngine,
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
    PopulationEngine,
)
from repro.engine.registry import available_engines, get_engine
from repro.errors import ConfigurationError
from repro.graphs.complete import CompleteGraph
from repro.invariants.trace import LedgerAdversary, RunTrace
from repro.seeding import RandomState, as_generator
from repro.state import counts_to_agents

__all__ = ["run_traced"]

_SEQUENTIAL = ("population", "agent")


def run_traced(
    engine_name: str,
    dynamics_spec: str,
    *,
    n: int,
    k: int,
    num_replicas: int = 1,
    seed: RandomState = 0,
    adversary: str | None = None,
    adversary_budget: int | None = None,
    max_rounds: int = 200,
) -> RunTrace:
    """Run one engine under full recording and return its trace.

    ``k`` counts *decided* opinions; Undecided-State runs get the extra
    undecided slot appended automatically (``num_labels = k + 1``),
    exactly as the engines' own label convention demands.  Sequential
    engines trace a single run (``num_replicas`` is a batch-family
    knob); adversarial runs on target-capable engines stop at the
    near-consensus threshold — the same stopping rule the sweep driver
    applies, since an F >= 1 adversary can stall strict consensus
    forever.  Asynchronous families interpret ``max_rounds`` as
    ``max_rounds * n`` ticks, matching their registry adapters.
    """
    if engine_name not in available_engines():
        raise ConfigurationError(
            f"unknown engine {engine_name!r}; known engines: "
            f"{available_engines()}"
        )
    if max_rounds < 0:
        raise ConfigurationError(
            f"max_rounds must be non-negative, got {max_rounds}"
        )
    dynamics = make_dynamics(dynamics_spec)
    base = balanced(n, k)
    undecided_label: int | None = None
    if isinstance(dynamics, UndecidedStateDynamics):
        counts = with_undecided_slot(base)
        undecided_label = counts.size - 1
    else:
        counts = base
    num_labels = int(counts.size)

    info = get_engine(engine_name)
    target = None
    if adversary is not None:
        if adversary_budget is None:
            raise ConfigurationError(
                f"adversary {adversary!r} requires adversary_budget "
                "(the per-round F)"
            )
        if adversary_budget > 0 and info.supports_target:
            target = near_consensus_target(n, adversary_budget)

    replicas = (
        1 if engine_name in _SEQUENTIAL else max(1, int(num_replicas))
    )
    trace = RunTrace(
        engine=engine_name,
        dynamics=str(dynamics_spec),
        n=int(n),
        num_labels=num_labels,
        num_replicas=replicas,
        adversary_budget=(
            int(adversary_budget) if adversary is not None else None
        ),
        undecided_label=undecided_label,
        custom_target=target is not None,
    )
    ledger = (
        LedgerAdversary(
            make_adversary(adversary, adversary_budget),
            trace.corruptions,
        )
        if adversary is not None
        else None
    )
    rng = as_generator(seed)

    if engine_name in _SEQUENTIAL:
        _drive_sequential(
            trace, engine_name, dynamics, counts, rng, ledger, target,
            max_rounds,
        )
    else:
        _drive_batch(
            trace, engine_name, dynamics, counts, rng, ledger, target,
            max_rounds, replicas,
        )
    return trace


def _drive_sequential(
    trace, engine_name, dynamics, counts, rng, ledger, target, max_rounds
) -> None:
    """Step one sequential engine, snapshotting its public state.

    The stopping rule mirrors :func:`~repro.engine.runner.
    run_until_consensus`: the caller ``target`` when given, else the
    dynamics' own consensus convention — and the frozen flag recorded
    per snapshot is that rule evaluated on the snapshot's counts, so
    the trace says exactly when the run would have stopped.
    """

    def stopped(row: np.ndarray) -> bool:
        if target is not None:
            return bool(target(row))
        return bool(dynamics.is_consensus_counts(row))

    if engine_name == "population":
        engine = PopulationEngine(
            dynamics, counts, seed=rng, adversary=ledger
        )
    else:
        graph = CompleteGraph(trace.n)
        opinions = counts_to_agents(counts, rng=rng, shuffle=True)
        engine = AgentEngine(
            dynamics,
            graph,
            opinions,
            num_opinions=trace.num_labels,
            seed=rng,
            adversary=ledger,
        )

    done = stopped(engine.counts)
    trace.snap(0, engine.counts, [done])
    while not done and engine.round_index < max_rounds:
        engine.step()
        done = stopped(engine.counts)
        trace.snap(engine.round_index, engine.counts, [done])


def _drive_batch(
    trace,
    engine_name,
    dynamics,
    counts,
    rng,
    ledger,
    target,
    max_rounds,
    replicas,
) -> None:
    """Drive one batch engine with its recording hook attached.

    The engine reports its own ``(index, counts, frozen)`` after every
    step, so the trace is the engine's account of itself — the
    invariants then cross-examine it against the ledger and the
    conservation laws.  All three run the shared batch loop,
    ``run_until_consensus``; the asynchronous budget is in ticks.
    """
    budget = max_rounds
    if engine_name == "batch":
        engine = BatchPopulationEngine(
            dynamics,
            counts,
            num_replicas=replicas,
            seed=rng,
            adversary=ledger,
            target=target,
            record_hook=trace.snap,
        )
    elif engine_name == "agent-batch":
        base = counts_to_agents(counts)
        opinions = rng.permuted(
            np.tile(base, (replicas, 1)), axis=1
        )
        engine = BatchAgentEngine(
            dynamics,
            CompleteGraph(trace.n),
            opinions,
            num_opinions=trace.num_labels,
            seed=rng,
            adversary=ledger,
            target=target,
            record_hook=trace.snap,
        )
    else:
        engine = AsyncBatchPopulationEngine(
            dynamics,
            counts,
            num_replicas=replicas,
            seed=rng,
            adversary=ledger,
            record_hook=trace.snap,
        )
        budget = max_rounds * trace.n

    trace.snap(0, engine.counts, engine.frozen)
    engine.run_until_consensus(budget)
