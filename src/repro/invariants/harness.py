"""Cross-engine harness: run any registered engine under full recording.

:func:`run_traced` builds one engine by registry name, drives it for a
bounded number of rounds (ticks for the asynchronous families) and
returns the complete :class:`~repro.invariants.trace.RunTrace` —
per-observation count matrices and frozen masks, plus the adversary's
ledger.  Every engine (``batch`` / ``agent-batch`` / ``async-batch``,
and ``population`` / ``agent`` / ``async``, their other names) records
through its opt-in ``record_hook``: the engine calls back after every
step/tick with its own state, so the trace sees exactly what the engine
saw.

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
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
)
from repro.engine.registry import available_engines, get_engine
from repro.errors import ConfigurationError
from repro.graphs.complete import CompleteGraph
from repro.invariants.trace import LedgerAdversary, RunTrace
from repro.seeding import RandomState, as_generator
from repro.state import counts_to_agents

__all__ = ["run_traced"]

#: Each chain's other registry name, and the engine it runs.
_CANONICAL = {
    "population": "batch",
    "agent": "agent-batch",
    "async": "async-batch",
}


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
    exactly as the engines' own label convention demands.  Adversarial
    runs on target-capable engines stop at the near-consensus
    threshold — the same stopping rule the sweep driver applies, since
    an F >= 1 adversary can stall strict consensus forever.
    Asynchronous families interpret ``max_rounds`` as
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

    replicas = max(1, int(num_replicas))
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

    _drive_batch(
        trace,
        _CANONICAL.get(engine_name, engine_name),
        dynamics,
        counts,
        rng,
        ledger,
        target,
        max_rounds,
        replicas,
    )
    return trace


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
