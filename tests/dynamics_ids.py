"""Shared pytest parametrize ids for dynamics instances."""

from __future__ import annotations

from repro.core import Dynamics, HMajority


def dynamics_id(dynamics: Dynamics) -> str:
    """The dynamics' name, plus ``(sampled)`` for h-Majority, which keeps
    those ids stable and distinct from ThreeMajority's ``3-majority`` at
    h = 3."""
    suffix = "(sampled)" if isinstance(dynamics, HMajority) else ""
    return dynamics.name + suffix
