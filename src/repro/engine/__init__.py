"""Simulation engines: one per Markov chain.

* :class:`BatchPopulationEngine` — the exact count-vector chain on the
  complete graph with self-loops (the paper's setting): R replicas as
  one vectorised ``(R, k)`` count matrix, registered as ``batch`` and
  ``population``; one row is a lone chain.  It is also the replica run
  loop the other two engines subclass;
* :class:`BatchAgentEngine` — the per-vertex chain on an arbitrary
  graph: R replicas as one vectorised ``(R, n)`` opinion matrix,
  registered as ``agent-batch`` and ``agent``;
* :class:`AsyncBatchPopulationEngine` — the one-vertex-per-tick chain
  ([CMRSS25] model): R chains advanced tick-by-tick in lockstep as one
  ``(R, k)`` count matrix, registered as ``async-batch`` and ``async``;
* :class:`RunResult` — the per-replica outcome every engine returns,
  and :class:`TrajectoryRecorder`, which records one replica's
  trajectory from an engine's ``record_hook``;
* :mod:`repro.engine.registry` — string-keyed engine registry; every
  engine above registers a spec runner plus capability flags, and the
  simulation layer and CLI dispatch through it.
"""

from repro.engine.agent_batch import BatchAgentEngine
from repro.engine.async_batch import AsyncBatchPopulationEngine
from repro.engine.batch import BatchPopulationEngine
from repro.engine.callbacks import TrajectoryRecorder
from repro.engine.registry import (
    EngineInfo,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engine.runner import RunResult
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
    "AsyncBatchPopulationEngine",
    "BatchAgentEngine",
    "BatchPopulationEngine",
    "EngineInfo",
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
    "spawn_generators",
    "support",
    "validate_agents",
    "validate_counts",
]
