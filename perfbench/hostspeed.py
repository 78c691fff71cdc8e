"""Reference loops that measure the host's speed next to each pass.

On a shared VM the speed of compute-bound code drifts by tens of
percent over tens of seconds, whatever the program does: passes of one
``thm11-paper`` run over the same inputs range from 2 to 3.6 s, in CPU
time as much as in wall time.  A fixed loop timed just before and just
after a pass slows down with it, so a pass's seconds divided by the
loop's slowdown compare across runs made minutes apart.

The loop uses numpy only, never the repo, so a change to the repo
leaves it as it is and its gain or loss shows in full.  It mimics
``thm11-paper``'s instruction mix, because the host's slowdowns hit
interpreter-bound and memory-bound code by different amounts; a loop
over large arrays tracked ``sweep-hmajority`` too loosely to help, so
that workload, like the services, reports raw seconds (see README.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _small_arrays() -> None:
    """Many cheap numpy calls from a Python loop, like a round at R=3."""
    rng = np.random.default_rng(0)
    counts = np.full((3, 16), 64)
    for _ in range(24_000):
        shares = counts / counts.sum(axis=1, keepdims=True)
        counts = rng.multinomial(1024, shares[0], size=3)
        (counts.max(axis=1) == 1024).any()


@dataclass(frozen=True)
class Reference:
    """A reference loop and the seconds it took on the baseline VM."""

    loop: Callable[[], None]
    nominal_s: float

    def slowdown(self) -> float:
        """This call's time over the nominal time: above 1 is a slow host."""
        started = time.perf_counter()
        self.loop()
        return (time.perf_counter() - started) / self.nominal_s


#: The nominal time is about the loop's median over ten seeds of
#: ``thm11-paper`` on the baseline VM (see README.md), so corrected
#: seconds read close to raw ones there.
SMALL_ARRAYS = Reference(_small_arrays, nominal_s=0.24)
