"""Dynamics registry: build any dynamics from a short string spec.

Experiment configuration files and the CLI refer to dynamics by name,
e.g. ``"3-majority"``, ``"2-choices"``, ``"5-majority"``, ``"undecided"``,
``"voter"``, ``"median"``.  :func:`make_dynamics` resolves such a spec to
an instance.
"""

from __future__ import annotations

import re

from repro.core.base import Dynamics
from repro.core.h_majority import HMajority
from repro.core.median import MedianRule
from repro.core.three_majority import ThreeMajority
from repro.core.two_choices import TwoChoices
from repro.core.undecided import UndecidedStateDynamics
from repro.core.voter import Voter
from repro.errors import ConfigurationError

__all__ = ["make_dynamics", "available_dynamics"]

_FACTORIES = {
    "3-majority": ThreeMajority,
    "three-majority": ThreeMajority,
    "2-choices": TwoChoices,
    "two-choices": TwoChoices,
    "voter": Voter,
    "median": MedianRule,
    "undecided": UndecidedStateDynamics,
}

_H_MAJORITY = re.compile(r"^(\d+)-majority$")


def make_dynamics(spec: str | Dynamics) -> Dynamics:
    """Resolve ``spec`` into a :class:`~repro.core.base.Dynamics`.

    Accepted specs: any key of :func:`available_dynamics`, or
    ``"<h>-majority"`` for majority-of-h (``h != 3`` uses
    :class:`HMajority`; ``h = 3`` uses the closed-form
    :class:`ThreeMajority`).  Passing an existing instance returns it
    unchanged.
    """
    if isinstance(spec, Dynamics):
        return spec
    key = spec.strip().lower()
    factory = _FACTORIES.get(key)
    if factory is not None:
        return factory()
    match = _H_MAJORITY.match(key)
    if match:
        return HMajority(int(match.group(1)))
    raise ConfigurationError(
        f"unknown dynamics spec {spec!r}; known: "
        + ", ".join(sorted(available_dynamics()))
        + ", or '<h>-majority'"
    )


def available_dynamics() -> list[str]:
    """Canonical names of all registered dynamics."""
    return ["3-majority", "2-choices", "voter", "median", "undecided"]
