"""Stopping times and opinion classification (paper Definition 4.4).

The proofs track a zoo of stopping times on the trajectory of
``(alpha_t, delta_t, gamma_t)``:

* ``tau_up(i) / tau_down(i)`` — ``alpha_t(i)`` leaving a relative band
  around ``alpha_0(i)``;
* ``tau_weak(i)`` — opinion ``i`` becoming *weak*
  (``alpha_t(i) <= (1 - c_weak) gamma_t``);
* ``tau_active(i)`` — opinion ``i`` becoming *active*
  (``alpha_t(i) >= (1 - c_active) gamma_0``);
* ``tau_up/down/+(delta)``, ``tau_up/down/+(gamma)`` — bias and norm
  band exits and threshold hits;
* ``tau_vanish(i)`` — extinction (Definition 5.1).

:class:`StoppingTimeTracker` watches a run one round at a time (fed
from an engine's ``record_hook``) and records the first round each of
these fires, which is exactly what the ``fig2`` (lemma pipeline) and
``table1`` experiments need.

:class:`DriftConstants` carries the universal constants with the paper's
example values (end of Definition 4.4):
``c_up_alpha = c_down_alpha = c_weak = 1/10``,
``c_up_delta = c_down_delta = c_active = 1/20``,
``c_up_gamma = c_down_gamma = 1/30``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.theory.quantities import gamma_of_alpha

__all__ = ["DriftConstants", "StoppingTimeTracker", "classify_opinions"]


@dataclass(frozen=True)
class DriftConstants:
    """Universal constants of Definition 4.4 (paper's example values)."""

    c_up_alpha: float = 1.0 / 10.0
    c_down_alpha: float = 1.0 / 10.0
    c_weak: float = 1.0 / 10.0
    c_up_delta: float = 1.0 / 20.0
    c_down_delta: float = 1.0 / 20.0
    c_active: float = 1.0 / 20.0
    c_up_gamma: float = 1.0 / 30.0
    c_down_gamma: float = 1.0 / 30.0
    c_up_eta: float = 1.0 / 1000.0  # Definition 5.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_weak < 0.5:
            raise ConfigurationError(
                f"c_weak must lie in [0, 1/2), got {self.c_weak}"
            )
        if not self.c_down_gamma < self.c_active < self.c_weak:
            raise ConfigurationError(
                "Definition 4.4(v) requires "
                "c_down_gamma < c_active < c_weak; got "
                f"{self.c_down_gamma}, {self.c_active}, {self.c_weak}"
            )


def classify_opinions(
    alpha: np.ndarray, constants: DriftConstants | None = None
) -> np.ndarray:
    """Weak/strong classification at one round (Section 2.2).

    Returns a boolean array, True where the opinion is *weak*:
    ``alpha_i <= (1 - c_weak) gamma``.  The most popular opinion is never
    weak (``max_i alpha_i >= gamma``, Section 2.2), which the tests
    verify.
    """
    constants = constants or DriftConstants()
    alpha = np.asarray(alpha, dtype=np.float64)
    gamma = gamma_of_alpha(alpha)
    return alpha <= (1.0 - constants.c_weak) * gamma


@dataclass
class StoppingTimeTracker:
    """Record Definition 4.4 stopping times along one trajectory.

    Parameters
    ----------
    pair:
        The two opinions ``(i, j)`` whose bias is tracked.
    constants:
        Universal constants (paper defaults).
    x_delta:
        Threshold for ``tau_plus_delta`` (e.g. ``c* sqrt(log n / n)``).
    x_gamma:
        Threshold for ``tau_plus_gamma``.
    x_eta:
        Threshold for ``tau_plus_eta`` on the 2-Choices scaled bias
        ``eta = delta / sqrt(max(alpha_i, alpha_j))`` (Definition 5.3).

    Feed it rounds via :meth:`observe` — the start as round 0, then
    one count vector per round, e.g. from a one-row engine's
    ``record_hook``; the first round at which each stopping condition
    holds is stored in :attr:`times` under the keys
    ``up_i, down_i, up_j, down_j, weak_i, weak_j, active_i, active_j,
    up_delta, down_delta, plus_delta, up_gamma, down_gamma, plus_gamma,
    up_eta, plus_eta, vanish_i, vanish_j``; missing keys mean "not yet
    fired".
    """

    pair: tuple[int, int] = (0, 1)
    constants: DriftConstants = field(default_factory=DriftConstants)
    x_delta: float = float("inf")
    x_gamma: float = float("inf")
    x_eta: float = float("inf")
    times: dict[str, int] = field(default_factory=dict)
    _initial: dict[str, float] = field(default_factory=dict)

    def observe(self, round_index: int, counts: np.ndarray) -> None:
        alpha = np.asarray(counts, dtype=np.float64)
        alpha = alpha / alpha.sum()
        i, j = self.pair
        gamma = gamma_of_alpha(alpha)
        delta = float(alpha[i] - alpha[j])
        top = max(float(alpha[i]), float(alpha[j]))
        eta = delta / np.sqrt(top) if top > 0 else 0.0
        if not self._initial:
            self._initial = {
                "alpha_i": float(alpha[i]),
                "alpha_j": float(alpha[j]),
                "delta": delta,
                "gamma": gamma,
                "eta": eta,
            }
        init = self._initial
        c = self.constants

        def fire(key: str, condition: bool) -> None:
            if condition and key not in self.times:
                self.times[key] = round_index

        fire("up_i", alpha[i] >= (1 + c.c_up_alpha) * init["alpha_i"])
        fire("down_i", alpha[i] <= (1 - c.c_down_alpha) * init["alpha_i"])
        fire("up_j", alpha[j] >= (1 + c.c_up_alpha) * init["alpha_j"])
        fire("down_j", alpha[j] <= (1 - c.c_down_alpha) * init["alpha_j"])
        fire("weak_i", alpha[i] <= (1 - c.c_weak) * gamma)
        fire("weak_j", alpha[j] <= (1 - c.c_weak) * gamma)
        fire("active_i", alpha[i] >= (1 - c.c_active) * init["gamma"])
        fire("active_j", alpha[j] >= (1 - c.c_active) * init["gamma"])
        fire("up_delta", delta >= (1 + c.c_up_delta) * init["delta"])
        fire("down_delta", delta <= (1 - c.c_down_delta) * init["delta"])
        fire("plus_delta", abs(delta) >= self.x_delta)
        fire("up_gamma", gamma >= (1 + c.c_up_gamma) * init["gamma"])
        fire("down_gamma", gamma <= (1 - c.c_down_gamma) * init["gamma"])
        fire("plus_gamma", gamma >= self.x_gamma)
        fire("up_eta", eta >= (1 + c.c_up_eta) * init["eta"])
        fire("plus_eta", abs(eta) >= self.x_eta)
        fire("vanish_i", alpha[i] == 0.0)
        fire("vanish_j", alpha[j] == 0.0)

    def first(self, *keys: str) -> int | None:
        """Earliest firing round among ``keys`` (``None`` if none fired)."""
        fired = [self.times[k] for k in keys if k in self.times]
        return min(fired) if fired else None
