"""String-keyed engine registry: engines plug into the simulation API.

Historically :func:`repro.simulation.run.execute` dispatched on the
spec's ``engine`` string through an if/elif chain, which meant a new
engine had to touch three layers (the engine module, the dispatcher and
the spec validation).  This registry inverts that: each engine module
registers one :class:`EngineInfo` describing

* how to execute a :class:`~repro.simulation.spec.SimulationSpec` on
  that engine (``run``: a callable ``spec -> list[RunResult]``), and
* which spec dimensions the engine supports (``graph``, ``target``,
  ``adversary``) — the spec validates against these capability flags
  instead of hard-coding per-engine rules.

Registering an entry is the *only* step needed to expose a new engine:
``SimulationSpec(engine="name")`` validates against the entry's
capabilities, :func:`~repro.simulation.run.execute` dispatches through
it, and the CLI's ``--engine`` choices are built from
:func:`available_engines`.

The runner callables receive the spec duck-typed (this module must not
import :mod:`repro.simulation`, which sits above the engine layer), so
engine modules depend only on the engine/core/adversary layers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "EngineInfo",
    "available_engines",
    "get_engine",
    "register_engine",
    "unregister_engine",
]


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: spec runner plus capability flags.

    ``run`` executes every replica of a validated spec and returns the
    per-replica :class:`~repro.engine.runner.RunResult` list; the
    dispatcher wraps them into a ``ResultSet`` and applies the uniform
    ``on_budget`` policy.  The ``supports_*`` flags drive spec
    validation — a spec requesting an unsupported dimension fails at
    construction, not mid-run.
    """

    name: str
    run: Callable[[object], Sequence]
    description: str = ""
    supports_graph: bool = False
    supports_target: bool = False
    supports_adversary: bool = False


_REGISTRY: dict[str, EngineInfo] = {}


def register_engine(
    name: str,
    run: Callable[[object], Sequence],
    *,
    description: str = "",
    supports_graph: bool = False,
    supports_target: bool = False,
    supports_adversary: bool = False,
    replace: bool = False,
) -> EngineInfo:
    """Register an engine under ``name``; returns the registry entry.

    Names are case-sensitive spec strings (``"population"``,
    ``"batch"``, ...).  Re-registering an existing name raises unless
    ``replace=True`` (useful for tests and experimental overrides).

    Capability flags fail closed (all default ``False``): an engine
    must explicitly declare the spec dimensions its runner honours, so
    a runner that ignores ``spec.target`` or ``spec.adversary`` can
    never silently run the un-targeted, un-attacked chain.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"engine name must be a non-empty string, got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"engine {name!r} is already registered; pass replace=True "
            "to override it"
        )
    info = EngineInfo(
        name=name,
        run=run,
        description=description,
        supports_graph=supports_graph,
        supports_target=supports_target,
        supports_adversary=supports_adversary,
    )
    _REGISTRY[name] = info
    return info


def unregister_engine(name: str) -> None:
    """Remove a registry entry (no-op when absent); for tests/plugins."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> EngineInfo:
    """Look up a registered engine by its spec string."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; known engines: "
            f"{available_engines()}"
        ) from None


def available_engines() -> list[str]:
    """Sorted spec strings of every registered engine."""
    return sorted(_REGISTRY)
