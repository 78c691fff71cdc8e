"""Simulation engines and run control.

* :class:`PopulationEngine` — exact count-vector chain on the complete
  graph with self-loops (the paper's setting);
* :class:`AgentEngine` — per-vertex chain on arbitrary graphs;
* :class:`AsyncBatchPopulationEngine` — the one-vertex-per-tick chain
  ([CMRSS25] model): R chains advanced tick-by-tick in lockstep as one
  vectorised ``(R, k)`` count matrix, registered as ``async-batch`` and
  ``async``;
* :class:`BatchPopulationEngine` — R replicas as one vectorised
  ``(R, k)`` count matrix, and the replica run loop the other two
  batch engines subclass;
* :class:`BatchAgentEngine` — R replicas of a graph chain as one
  vectorised ``(R, n)`` opinion matrix;
* :func:`run_until_consensus` / :func:`replicate` — run control;
* :mod:`repro.engine.registry` — string-keyed engine registry; every
  engine above registers a spec runner plus capability flags, and the
  simulation layer and CLI dispatch through it.
"""

from repro.engine.agent import AgentEngine
from repro.engine.agent_batch import BatchAgentEngine
from repro.engine.async_batch import AsyncBatchPopulationEngine
from repro.engine.batch import BatchPopulationEngine
from repro.engine.callbacks import (
    FunctionObserver,
    Observer,
    TrajectoryRecorder,
)
from repro.engine.population import PopulationEngine
from repro.engine.registry import (
    Engine,
    EngineInfo,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engine.runner import RunResult, replicate, run_until_consensus
from repro.seeding import (
    RandomState,
    as_generator,
    as_seed_sequence,
    spawn_generators,
)
from repro.state import (
    agents_to_counts,
    alpha_from_counts,
    bias,
    consensus_opinion,
    counts_to_agents,
    gamma_from_counts,
    is_consensus,
    num_alive,
    support,
    validate_agents,
    validate_counts,
)

__all__ = [
    "AgentEngine",
    "AsyncBatchPopulationEngine",
    "BatchAgentEngine",
    "BatchPopulationEngine",
    "Engine",
    "EngineInfo",
    "FunctionObserver",
    "Observer",
    "PopulationEngine",
    "RandomState",
    "RunResult",
    "TrajectoryRecorder",
    "available_engines",
    "get_engine",
    "register_engine",
    "unregister_engine",
    "agents_to_counts",
    "alpha_from_counts",
    "as_generator",
    "as_seed_sequence",
    "bias",
    "consensus_opinion",
    "counts_to_agents",
    "gamma_from_counts",
    "is_consensus",
    "num_alive",
    "replicate",
    "run_until_consensus",
    "spawn_generators",
    "support",
    "validate_agents",
    "validate_counts",
]
