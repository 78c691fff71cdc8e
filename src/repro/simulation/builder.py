"""Fluent builder over :class:`~repro.simulation.spec.SimulationSpec`.

The spec is the declarative ground truth; :class:`Simulation` is the
ergonomic way to assemble one inline:

>>> from repro import Simulation
>>> results = (
...     Simulation.of("3-majority")
...     .n(10_000).k(100)
...     .zipf(exponent=1.0)
...     .replicas(64)
...     .batch()
...     .seed(7)
...     .run()
... )
>>> results.num_converged
64

Every method mutates the builder and returns it (standard fluent style);
:meth:`build` freezes the accumulated settings into a validated spec and
:meth:`run` executes it, returning a
:class:`~repro.simulation.results.ResultSet`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.adversary.base import Adversary
from repro.core.base import Dynamics
from repro.graphs.base import Graph
from repro.seeding import RandomState
from repro.simulation.results import ResultSet
from repro.simulation.spec import SimulationSpec

__all__ = ["Simulation"]


class Simulation:
    """Accumulates simulation settings; see module docstring for usage."""

    def __init__(self, dynamics: str | Dynamics = "3-majority") -> None:
        self._settings: dict = {"dynamics": dynamics}

    @classmethod
    def of(cls, dynamics: str | Dynamics) -> "Simulation":
        """Start a builder for the given dynamics (spec string or instance)."""
        return cls(dynamics)

    @classmethod
    def from_spec(cls, spec: SimulationSpec) -> "Simulation":
        """Seed a builder with every setting of an existing spec."""
        builder = cls(spec.dynamics)
        builder._settings = {
            "dynamics": spec.dynamics,
            "n": spec.n,
            "k": spec.k,
            "initial": spec.initial,
            "initial_params": dict(spec.initial_params),
            "counts": spec.counts,
            "engine": spec.engine,
            "graph": spec.graph,
            "adversary": spec.adversary,
            "adversary_budget": spec.adversary_budget,
            "replicas": spec.replicas,
            "seed": spec.seed,
            "max_rounds": spec.max_rounds,
            "target": spec.target,
            "on_budget": spec.on_budget,
            "backend": spec.backend,
        }
        if spec.initial == "custom":
            # counts drive n/k; passing them too would be redundant.
            builder._settings.pop("n"), builder._settings.pop("k")
        return builder

    # ------------------------------------------------------------------
    # Size and initial configuration
    # ------------------------------------------------------------------
    def n(self, num_vertices: int) -> "Simulation":
        self._settings["n"] = int(num_vertices)
        return self

    def k(self, num_opinions: int) -> "Simulation":
        self._settings["k"] = int(num_opinions)
        return self

    def initial(self, family: str, **params) -> "Simulation":
        """Choose any registered initial family with its parameters."""
        self._settings["initial"] = family
        self._settings["initial_params"] = params
        return self

    def balanced(self) -> "Simulation":
        return self.initial("balanced")

    def zipf(self, exponent: float = 1.0) -> "Simulation":
        return self.initial("zipf", exponent=exponent)

    def biased(self, margin: float) -> "Simulation":
        return self.initial("biased", margin=margin)

    def two_block(self, leader_fraction: float) -> "Simulation":
        return self.initial("two_block", leader_fraction=leader_fraction)

    def counts(self, counts: np.ndarray) -> "Simulation":
        """Use an explicit initial count vector (n and k are derived)."""
        self._settings["counts"] = counts
        self._settings.pop("n", None)
        self._settings.pop("k", None)
        return self

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------
    def engine(self, kind: str) -> "Simulation":
        self._settings["engine"] = kind
        return self

    def population(self) -> "Simulation":
        return self.engine("population")

    def batch(self) -> "Simulation":
        """Vectorised batch replication, substrate-aware.

        On a graph workload — a graph was set, or :meth:`on_graph`
        selected the agent engine — this resolves to the ``agent-batch``
        engine, so ``on_graph(...).batch()`` batches the graph chain
        instead of silently dropping the substrate; otherwise it is the
        population-level ``batch`` engine.
        """
        if (
            self._settings.get("graph") is not None
            or self._settings.get("engine") == "agent"
        ):
            return self.engine("agent-batch")
        return self.engine("batch")

    def asynchronous(self) -> "Simulation":
        return self.engine("async")

    def on_graph(self, graph: Graph | None = None) -> "Simulation":
        """Use a graph-capable engine, optionally on a specific graph.

        Selects the ``agent`` engine — unless ``batch`` was already
        chosen, in which case ``agent-batch`` is, so
        ``batch().on_graph(g)`` and ``on_graph(g).batch()`` resolve
        identically.  ``agent`` is another name for ``agent-batch``, so
        both run the same graph engine.
        """
        self._settings["graph"] = graph
        if self._settings.get("engine") in ("batch", "agent-batch"):
            return self.engine("agent-batch")
        return self.engine("agent")

    # ------------------------------------------------------------------
    # Adversarial model
    # ------------------------------------------------------------------
    def adversary(
        self,
        strategy: "str | Adversary | None",
        budget: int | None = None,
    ) -> "Simulation":
        """Attack the run with an F-bounded adversary ([GL18] model).

        ``strategy`` is a registered name (``"random"``,
        ``"runner-up"``, ``"revive-weakest"``) with ``budget`` the
        per-round ``F``, or an :class:`~repro.adversary.base.Adversary`
        instance (budget derived).  Pass ``None`` to clear.
        """
        self._settings["adversary"] = strategy
        self._settings["adversary_budget"] = budget
        return self

    # ------------------------------------------------------------------
    # Replication, seeding, stopping
    # ------------------------------------------------------------------
    def replicas(self, num_runs: int) -> "Simulation":
        self._settings["replicas"] = int(num_runs)
        return self

    def seed(self, seed: RandomState) -> "Simulation":
        self._settings["seed"] = seed
        return self

    def max_rounds(self, budget: int) -> "Simulation":
        self._settings["max_rounds"] = int(budget)
        return self

    def stop_when(
        self, target: Callable[[np.ndarray], bool]
    ) -> "Simulation":
        """Replace the consensus check with a custom predicate."""
        self._settings["target"] = target
        return self

    def on_budget(self, policy: str) -> "Simulation":
        """``"return"`` (default) or ``"raise"`` on budget exhaustion."""
        self._settings["on_budget"] = policy
        return self

    def backend(self, name: str) -> "Simulation":
        """Pick the compute backend for the hot-path kernels.

        ``name`` is a registered backend (``"numpy"``, ``"numba"``) or
        ``"auto"`` (the default: ``REPRO_BACKEND`` env var, else
        fail-closed auto-detection).  Validated at :meth:`build`;
        backends never change the sampled law, only how fast it runs.
        """
        self._settings["backend"] = name
        return self

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------
    def build(self) -> SimulationSpec:
        """Freeze into a validated :class:`SimulationSpec`."""
        return SimulationSpec(**self._settings)

    def run(self) -> ResultSet:
        """Build and execute, returning the aggregated results."""
        return self.build().run()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{key}={value!r}"
            for key, value in self._settings.items()
            if value is not None
        )
        return f"Simulation({inner})"
