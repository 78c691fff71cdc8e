"""Declarative simulation specifications.

A :class:`SimulationSpec` is the single description of "one simulation
study": which dynamics, which initial configuration, which engine, how
many replicas, which seed, when to stop.  It is frozen and validated at
construction — every entry point that used to wire engines, configs,
seeds and stopping rules together by hand (``measure_consensus_times``,
the sweep point functions, the CLI's ``simulate``) now builds one of
these and hands it to :func:`~repro.simulation.run.execute`.

Specs are *declarative*: dynamics may be given as a registry string and
the initial configuration as a family name plus parameters, so a spec
can be constructed from a config file or CLI flags without touching any
library object.  Passing instances (a :class:`~repro.core.base.Dynamics`
or an explicit count vector) is equally supported for programmatic use.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.adversary import Adversary, make_adversary
from repro.backends import AUTO_BACKEND, resolve_backend
from repro.configs import (
    balanced,
    biased,
    dirichlet_random,
    geometric_gamma,
    two_block,
    zipf,
)
from repro.core.base import Dynamics
from repro.core.registry import make_dynamics
from repro.engine.registry import available_engines, get_engine
from repro.errors import ConfigurationError
from repro.graphs.base import Graph
from repro.seeding import RandomState
from repro.state import validate_counts

__all__ = [
    "ENGINE_KINDS",
    "INITIAL_FAMILIES",
    "SimulationSpec",
    "default_round_budget",
]

#: Engine kinds registered at import time (kept for backwards
#: compatibility; validation consults the live registry, so engines
#: registered later are accepted too).
ENGINE_KINDS = tuple(available_engines())

#: Initial-configuration families, by name, as ``f(n, k, **params)``.
INITIAL_FAMILIES: dict[str, Callable] = {
    "balanced": balanced,
    "zipf": zipf,
    "biased": biased,
    "two_block": two_block,
    "dirichlet": dirichlet_random,
    "geometric_gamma": geometric_gamma,
}

#: Families that draw randomness; their ``seed`` is derived from the
#: spec seed when not given explicitly, keeping specs reproducible.
_RANDOM_FAMILIES = frozenset({"dirichlet"})

#: Entropy tag separating the initial-configuration stream from the
#: replica streams spawned off the same spec seed.
_INITIAL_SEED_TAG = 0x1A17


def default_round_budget(n: int, k: int) -> int:
    """Generous default budget: ``200 (k + sqrt(n))`` rounds.

    Both paper dynamics finish in ``O(min(k, sqrt n) log n)`` resp.
    ``O(k log n)`` rounds w.h.p. (Theorem 1.1), so this budget censors
    only pathological runs while keeping runaway configurations bounded.
    """
    return 200 * (k + int(math.sqrt(n)))


@dataclass(frozen=True)
class SimulationSpec:
    """Frozen, validated description of a replicated simulation.

    Parameters
    ----------
    dynamics:
        Registry spec string (``"3-majority"``, ``"5-majority"``, ...)
        or a :class:`~repro.core.base.Dynamics` instance.
    n, k:
        Number of vertices and opinions.  Derived from ``counts`` when
        an explicit configuration is given.
    initial:
        Initial-configuration family name (key of
        :data:`INITIAL_FAMILIES`) or ``"custom"`` with ``counts``.
    initial_params:
        Extra keyword arguments for the family (e.g. ``exponent`` for
        ``zipf``).
    counts:
        Explicit initial count vector; sets ``initial="custom"``.
    engine:
        Any engine registered in :mod:`repro.engine.registry`:
        ``"batch"`` (the exact count chain, R replicas as one count
        matrix; ``"population"`` is another name for it),
        ``"agent-batch"`` (the per-vertex chain on a graph, R replicas
        as one opinion matrix; ``"agent"`` is another name for it) or
        ``"async-batch"`` (R one-vertex-per-tick chains advanced in
        lockstep; ``"async"`` is another name for it).
    graph:
        Substrate for the graph-capable engines (``agent-batch`` /
        ``agent``); defaults to the complete graph.
    adversary:
        Optional F-bounded adversary ([GL18] model, paper Section 2.5)
        applied after every round: a strategy name
        (:func:`repro.adversary.available_adversaries`) with
        ``adversary_budget``, or an
        :class:`~repro.adversary.base.Adversary` instance.
    adversary_budget:
        Per-round corruption budget ``F``.  Required with a string
        ``adversary``; with an instance it is derived (and must match
        when given).
    replicas:
        Number of independent runs.
    seed:
        Root seed.  Must be declarative (int, int tuple, SeedSequence
        or None) so a spec reproduces its run; live generators are
        rejected.
    max_rounds:
        Round budget per run (ticks/n for the async engine).  Default:
        :func:`default_round_budget`.
    target:
        Optional stopping predicate on one replica's count vector
        (synchronous engines only); replaces the consensus check.
    on_budget:
        ``"return"`` (censored runs flagged, default) or ``"raise"``.
    backend:
        Compute backend for the run's hot-path kernels: a name from
        :func:`repro.backends.available_backends` (``"numpy"``,
        ``"numba"``) or ``"auto"`` (default: the ``REPRO_BACKEND``
        environment variable, else fail-closed auto-detection).
        Validated eagerly — naming an unavailable backend raises
        :class:`~repro.errors.BackendUnavailableError` at construction,
        not mid-run.  Backends change which compiled kernels execute,
        never the sampled law: results agree across backends in
        distribution (KS-tested), not bitwise.
    """

    dynamics: str | Dynamics = "3-majority"
    n: int | None = None
    k: int | None = None
    initial: str = "balanced"
    initial_params: Mapping = field(default_factory=dict)
    counts: np.ndarray | None = None
    engine: str = "population"
    graph: Graph | None = None
    adversary: str | Adversary | None = None
    adversary_budget: int | None = None
    replicas: int = 1
    seed: RandomState = 0
    max_rounds: int | None = None
    target: Callable[[np.ndarray], bool] | None = None
    on_budget: str = "return"
    backend: str = AUTO_BACKEND

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        engine_info = get_engine(self.engine)
        if self.backend is None:
            set_(self, "backend", AUTO_BACKEND)
        if not isinstance(self.backend, str):
            raise ConfigurationError(
                "spec backend must be a backend name or 'auto' (specs "
                f"are declarative), got {type(self.backend).__name__}"
            )
        # Fail fast: unknown names raise ConfigurationError, known but
        # uninstalled ones BackendUnavailableError ('auto' cannot fail).
        resolve_backend(self.backend)
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be at least 1, got {self.replicas}"
            )
        if self.on_budget not in ("return", "raise"):
            raise ConfigurationError(
                "on_budget must be 'return' or 'raise', got "
                f"{self.on_budget!r}"
            )
        if isinstance(self.seed, np.random.Generator):
            raise ConfigurationError(
                "a SimulationSpec seed must be declarative (int, int "
                "tuple, SeedSequence or None), not a live Generator"
            )
        set_(self, "initial_params", dict(self.initial_params))
        if self.counts is not None:
            counts = validate_counts(self.counts).copy()
            counts.flags.writeable = False
            set_(self, "counts", counts)
            set_(self, "initial", "custom")
            n, k = int(counts.sum()), int(counts.size)
            if self.n is not None and self.n != n:
                raise ConfigurationError(
                    f"counts sum to {n} but n={self.n} was given"
                )
            if self.k is not None and self.k != k:
                raise ConfigurationError(
                    f"counts has {k} opinions but k={self.k} was given"
                )
            set_(self, "n", n)
            set_(self, "k", k)
        else:
            if self.initial == "custom":
                raise ConfigurationError(
                    "initial='custom' requires an explicit counts vector"
                )
            if self.initial not in INITIAL_FAMILIES:
                raise ConfigurationError(
                    f"unknown initial family {self.initial!r}; known: "
                    f"{sorted(INITIAL_FAMILIES)} or 'custom'"
                )
            if self.n is None or self.k is None:
                raise ConfigurationError(
                    "n and k are required unless counts is given"
                )
            set_(self, "n", int(self.n))
            set_(self, "k", int(self.k))
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be non-negative, got {self.max_rounds}"
            )
        # Capability checks come from the engine registry, so a new
        # engine declares what it supports instead of being hard-coded
        # here.
        if self.graph is not None and not engine_info.supports_graph:
            graph_capable = [
                name
                for name in available_engines()
                if get_engine(name).supports_graph
            ]
            raise ConfigurationError(
                f"engine={self.engine!r} cannot run on a graph "
                "substrate; graph-capable engines: "
                f"{graph_capable}"
            )
        if self.target is not None and not engine_info.supports_target:
            raise ConfigurationError(
                f"engine={self.engine!r} does not support a custom "
                "target predicate"
            )
        self._validate_adversary(engine_info, set_)
        if (
            self.graph is not None
            and self.graph.num_vertices != self.n
        ):
            raise ConfigurationError(
                f"graph has {self.graph.num_vertices} vertices but "
                f"n={self.n}"
            )
        # Fail fast on unresolvable dynamics and bad family parameters:
        # a spec that constructs must be runnable.
        make_dynamics(self.dynamics)
        self.initial_counts()

    def _validate_adversary(self, engine_info, set_) -> None:
        """Normalise and validate the adversary dimension.

        After this, ``adversary_budget`` always equals the resolved
        adversary's ``F`` (or ``None`` without an adversary), so the
        budget is visible in ``repr`` and usable as a sweep cache key
        whether the adversary was given by name or as an instance.
        """
        if self.adversary is None:
            if self.adversary_budget is not None:
                raise ConfigurationError(
                    "adversary_budget was given without an adversary"
                )
            return
        if not engine_info.supports_adversary:
            raise ConfigurationError(
                f"engine={self.engine!r} does not support an adversary"
            )
        if isinstance(self.adversary, Adversary):
            if (
                self.adversary_budget is not None
                and int(self.adversary_budget) != self.adversary.budget
            ):
                raise ConfigurationError(
                    f"adversary_budget={self.adversary_budget} conflicts "
                    f"with the instance's budget "
                    f"{self.adversary.budget}"
                )
            set_(self, "adversary_budget", self.adversary.budget)
            return
        if self.adversary_budget is None:
            raise ConfigurationError(
                f"adversary={self.adversary!r} requires "
                "adversary_budget (the per-round F)"
            )
        set_(self, "adversary_budget", int(self.adversary_budget))
        # Fail fast on unknown strategy names / bad budgets.
        make_adversary(self.adversary, self.adversary_budget)

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def resolved_dynamics(self) -> Dynamics:
        """The dynamics instance this spec runs."""
        return make_dynamics(self.dynamics)

    def resolved_adversary(self) -> Adversary | None:
        """The adversary instance this spec runs, or ``None``."""
        if self.adversary is None:
            return None
        return make_adversary(self.adversary, self.adversary_budget)

    def initial_counts(self) -> np.ndarray:
        """Build the initial count vector (fresh, writable copy).

        Deterministic given the spec: random families (``dirichlet``)
        draw from a stream derived from the spec seed unless the caller
        pinned one in ``initial_params``, so repeated calls — and
        repeated runs of the same frozen spec — see the same start.
        """
        if self.counts is not None:
            return self.counts.copy()
        family = INITIAL_FAMILIES[self.initial]
        params = dict(self.initial_params)
        if (
            self.initial in _RANDOM_FAMILIES
            and "seed" not in params
            and self.seed is not None
        ):
            params["seed"] = self._initial_seed()
        try:
            return family(self.n, self.k, **params)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad parameters {self.initial_params!r} for initial "
                f"family {self.initial!r}: {exc}"
            ) from None

    def _initial_seed(self) -> np.random.SeedSequence:
        """Initial-configuration stream derived from the spec seed.

        Built from the seed's raw entropy plus a fixed tag, so it never
        collides with (or perturbs) the replica streams spawned from
        the same seed in :func:`~repro.simulation.run.execute`.
        """
        if isinstance(self.seed, np.random.SeedSequence):
            entropy = self.seed.entropy
            if entropy is None:
                parts = [0]
            elif isinstance(entropy, (tuple, list)):
                parts = [int(part) for part in entropy]
            else:
                parts = [int(entropy)]
        elif isinstance(self.seed, (tuple, list)):
            parts = [int(part) for part in self.seed]
        else:
            parts = [int(self.seed)]
        return np.random.SeedSequence(parts + [_INITIAL_SEED_TAG])

    def round_budget(self) -> int:
        """The effective per-run round budget."""
        if self.max_rounds is not None:
            return int(self.max_rounds)
        return default_round_budget(self.n, self.k)

    def run(self):
        """Execute this spec; see :func:`repro.simulation.run.execute`."""
        from repro.simulation.run import execute

        return execute(self)

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        name = (
            self.dynamics
            if isinstance(self.dynamics, str)
            else self.dynamics.name
        )
        extras = "".join(
            f", {key}={value}"
            for key, value in sorted(self.initial_params.items())
        )
        adversarial = ""
        if self.adversary is not None:
            strategy = (
                self.adversary
                if isinstance(self.adversary, str)
                else type(self.adversary).__name__
            )
            adversarial = (
                f", adversary={strategy}(F={self.adversary_budget})"
            )
        backend = (
            "" if self.backend == AUTO_BACKEND
            else f", backend={self.backend}"
        )
        substrate = (
            ""
            if self.graph is None
            else f", graph={type(self.graph).__name__}"
        )
        budget = (
            ""
            if self.max_rounds is None
            else f", max_rounds={self.max_rounds}"
        )
        return (
            f"{name} on n={self.n:,}, k={self.k} "
            f"({self.initial}{extras} start), engine={self.engine}, "
            f"replicas={self.replicas}, seed={self.seed}"
            f"{backend}{substrate}{budget}{adversarial}"
        )
