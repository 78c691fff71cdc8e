"""repro — reproduction of "3-Majority and 2-Choices with Many Opinions".

A production-quality simulator, theory toolbox and experiment harness
for the synchronous consensus dynamics analysed by Shimizu & Shiraga
(PODC 2025, arXiv:2503.02426).

Quickstart
----------
>>> from repro import Simulation
>>> results = (
...     Simulation.of("3-majority")
...     .n(10_000).k(50).replicas(8).batch().seed(1)
...     .run()
... )
>>> results.num_converged
8

The engine-level API is still available for fine-grained control; a
lone chain is an engine with one replica row:

>>> from repro import BatchPopulationEngine, ThreeMajority
>>> from repro.configs import balanced
>>> engine = BatchPopulationEngine(
...     ThreeMajority(), balanced(10_000, 50), num_replicas=1, seed=1
... )
>>> (result,) = engine.run_until_consensus(10_000)
>>> result.converged
True

Package map
-----------
``repro.core``        the dynamics (3-Majority, 2-Choices, h-Majority,
                      undecided, voter, median);
``repro.backends``    pluggable compute backends (``numpy`` reference,
                      opt-in ``numba`` JIT kernels for the hot paths);
``repro.engine``      one vectorised batch-replica engine per chain
                      (population, graph and asynchronous) and the
                      engine registry;
``repro.simulation``  the unified front door: declarative
                      ``SimulationSpec``, fluent ``Simulation`` builder
                      and ``ResultSet`` aggregates;
``repro.graphs``      complete graph and the Section 2.5 graph families;
``repro.configs``     initial configurations keyed to the theorems;
``repro.theory``      the paper's formulas: drift (Lemma 4.1), Bernstein
                      condition (Def. 3.3), Freedman bounds (Lemma 3.5),
                      stopping times (Def. 4.4), bound curves (Fig. 1);
``repro.adversary``   F-bounded adversaries ([GL18] model);
``repro.analysis``    estimators, scaling fits, tables, reporting;
``repro.sweep``       cached ad-hoc parameter sweeps;
``repro.experiments`` one module per paper table/figure/theorem.
"""

from repro.adversary import (
    Adversary,
    RandomCorruption,
    ReviveWeakest,
    SupportRunnerUp,
    available_adversaries,
    make_adversary,
)
from repro.backends import (
    ComputeBackend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    use_backend,
)
from repro.core import (
    Dynamics,
    HMajority,
    MedianRule,
    ThreeMajority,
    TwoChoices,
    UndecidedStateDynamics,
    Voter,
    make_dynamics,
)
from repro.engine import (
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
    EngineInfo,
    RunResult,
    TrajectoryRecorder,
    available_engines,
    get_engine,
    register_engine,
)
from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    ConsensusNotReached,
    GraphError,
    ReproError,
    StateError,
)
from repro.graphs import CompleteGraph
from repro.simulation import ResultSet, Simulation, SimulationSpec
from repro.sweep import SweepSpec, run_sweep

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "AsyncBatchPopulationEngine",
    "BackendUnavailableError",
    "BatchAgentEngine",
    "BatchPopulationEngine",
    "CompleteGraph",
    "ComputeBackend",
    "ConfigurationError",
    "ConsensusNotReached",
    "Dynamics",
    "EngineInfo",
    "GraphError",
    "HMajority",
    "MedianRule",
    "RandomCorruption",
    "ReproError",
    "ResultSet",
    "ReviveWeakest",
    "RunResult",
    "Simulation",
    "SimulationSpec",
    "StateError",
    "SupportRunnerUp",
    "SweepSpec",
    "ThreeMajority",
    "TrajectoryRecorder",
    "TwoChoices",
    "UndecidedStateDynamics",
    "Voter",
    "__version__",
    "available_adversaries",
    "available_backends",
    "available_engines",
    "default_backend",
    "get_backend",
    "get_engine",
    "make_adversary",
    "make_dynamics",
    "register_backend",
    "register_engine",
    "run_sweep",
    "use_backend",
]
