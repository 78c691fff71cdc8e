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

The engine-level API is still available for fine-grained control:

>>> from repro import ThreeMajority, PopulationEngine, run_until_consensus
>>> from repro.configs import balanced
>>> engine = PopulationEngine(ThreeMajority(), balanced(10_000, 50), seed=1)
>>> result = run_until_consensus(engine, max_rounds=10_000)
>>> result.converged
True

Package map
-----------
``repro.core``        the dynamics (3-Majority, 2-Choices, h-Majority,
                      undecided, voter, median);
``repro.backends``    pluggable compute backends (``numpy`` reference,
                      opt-in ``numba`` JIT kernels for the hot paths);
``repro.engine``      exact population engine, agent engine, async
                      engine, vectorised batch-replica engine, run
                      control;
``repro.simulation``  the unified front door: declarative
                      ``SimulationSpec``, fluent ``Simulation`` builder
                      and ``ResultSet`` aggregates;
``repro.graphs``      complete graph and the Section 2.5 graph families;
``repro.configs``     initial configurations keyed to the theorems;
``repro.theory``      the paper's formulas: drift (Lemma 4.1), Bernstein
                      condition (Def. 3.3), Freedman bounds (Lemma 3.5),
                      stopping times (Def. 4.4), bound curves (Fig. 1);
``repro.adversary``   F-bounded adversaries ([GL18] model);
``repro.protocols``   population-protocol substrate ([AAE07] approx.
                      majority, pairwise undecided dynamics);
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
    AgentEngine,
    AsyncBatchPopulationEngine,
    AsyncPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
    EngineInfo,
    PopulationEngine,
    RunResult,
    TrajectoryRecorder,
    available_engines,
    get_engine,
    register_engine,
    replicate,
    run_until_consensus,
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
from repro.protocols import (
    ApproximateMajority,
    PairwiseEngine,
    UndecidedPairwise,
)
from repro.simulation import ResultSet, Simulation, SimulationSpec
from repro.sweep import SweepSpec, run_sweep

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "AgentEngine",
    "ApproximateMajority",
    "AsyncBatchPopulationEngine",
    "AsyncPopulationEngine",
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
    "PairwiseEngine",
    "PopulationEngine",
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
    "UndecidedPairwise",
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
    "replicate",
    "run_sweep",
    "run_until_consensus",
    "use_backend",
]
