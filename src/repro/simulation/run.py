"""Execute a :class:`~repro.simulation.spec.SimulationSpec`.

One dispatcher replaces the hand-wired plumbing that every entry point
used to repeat — and, since the engine-registry refactor, it contains no
per-engine branching at all: the spec's ``engine`` string selects an
:class:`~repro.engine.registry.EngineInfo` whose ``run`` callable
resolves the dynamics/initial configuration/adversary, derives seed
streams, applies the stopping rule and returns the per-replica results.
This dispatcher only wraps them into a
:class:`~repro.simulation.results.ResultSet` and applies the uniform
``on_budget`` policy.  Registering a new engine (see
:func:`repro.engine.registry.register_engine`) is the only step needed
to make it runnable from specs, the fluent builder and the CLI.

Engine semantics
----------------
Each Markov chain has one engine, and every engine has two registry
names that run the same adapter, so a seeded spec returns exactly the
same results under either name.  All R replicas share one stream
seeded from the spec seed, so replica ``i``'s realisation depends on R.

``batch`` / ``population``
    The exact count-vector chain on the complete graph with self-loops:
    all R replicas advance in lockstep inside one
    :class:`~repro.engine.batch.BatchPopulationEngine`.
``agent-batch`` / ``agent``
    The per-vertex chain on a graph substrate: all R replicas advance
    as one ``(R, n)`` opinion matrix on the shared substrate inside a
    :class:`~repro.engine.agent_batch.BatchAgentEngine`, with vertex
    identities shuffled independently per replica row.
``async-batch`` / ``async``
    The one-vertex-per-tick [CMRSS25] chain: all R replicas advance
    tick-by-tick in lockstep inside one
    :class:`~repro.engine.async_batch.AsyncBatchPopulationEngine`.  The
    round budget is interpreted as ``max_rounds * n`` ticks and the
    reported ``rounds`` is the synchronous-equivalent
    ``ceil(ticks / n)``, with the raw tick count in
    ``metrics["ticks"]``.

Every engine accepts a spec-level adversary (applied after each round,
contract-checked); the synchronous engines accept a custom ``target``
stopping predicate.
"""

from __future__ import annotations

from repro.backends import degraded_kernels, resolve_backend, use_backend
from repro.engine.registry import get_engine
from repro.errors import ConsensusNotReached
from repro.simulation.results import ResultSet
from repro.simulation.spec import SimulationSpec

__all__ = ["execute"]


def execute(spec: SimulationSpec) -> ResultSet:
    """Run every replica of ``spec`` and aggregate the results.

    The spec's compute backend is resolved here and installed as the
    ambient backend (:func:`repro.backends.use_backend`) around the
    engine run — the single choke point through which every engine,
    experiment driver and service job picks up the spec's ``backend``
    without any per-engine wiring.
    """
    degraded_before = degraded_kernels()
    with use_backend(resolve_backend(spec.backend)):
        results = list(get_engine(spec.engine).run(spec))
    # Kernels quarantined *during this run* (runtime failure, graceful
    # fall-back to the reference path) are recorded on the result, so a
    # degraded execution is visible in the output, not only in a
    # warning that scrolled past.
    degraded = {
        key: reason
        for key, reason in degraded_kernels().items()
        if key not in degraded_before
    }
    if spec.on_budget == "raise":
        # The built-in adapters raise from inside (so direct
        # get_engine(...).run(spec) callers see the same contract);
        # this uniform check covers third-party engines, so any
        # registered engine honours the policy without custom code.
        censored = sum(1 for r in results if not r.converged)
        if censored:
            budget = spec.round_budget()
            raise ConsensusNotReached(
                budget,
                f"{censored} of {spec.replicas} replicas did not "
                f"reach consensus within {budget} rounds",
            )
    return ResultSet(results, spec, degraded_kernels=degraded)
