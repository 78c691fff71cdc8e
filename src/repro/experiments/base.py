"""Experiment framework: results, presets, shared measurement helpers.

Each experiment module (one per paper table/figure/theorem; see
DESIGN.md's experiment index) exposes

* ``PRESETS`` — a dict of named parameter sets.  ``"quick"`` runs in
  seconds (used by the benchmarks and CI); ``"paper"`` uses sizes large
  enough for the asymptotic shapes to be unambiguous (used to fill
  EXPERIMENTS.md);
* ``run(preset="quick", seed=0) -> ExperimentResult``.

Results carry the printed table rows *and* machine-checkable
:class:`~repro.analysis.comparison.ComparisonRecord` verdicts, so both
the benchmarks' assertions and EXPERIMENTS.md are generated from the same
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.comparison import ComparisonRecord
from repro.analysis.tables import format_table, write_csv
from repro.core.base import Dynamics
from repro.seeding import RandomState
from repro.simulation import ResultSet, SimulationSpec, execute
from repro.errors import ConfigurationError

__all__ = [
    "ExperimentResult",
    "measure_consensus_times",
    "require_preset",
]


@dataclass
class ExperimentResult:
    """Everything an experiment produces.

    ``rows`` are the series the paper's artefact reports (one list per
    printed line); ``comparisons`` hold the paper-vs-measured verdicts.
    """

    experiment_id: str
    title: str
    preset: str
    headers: list[str]
    rows: list[list]
    comparisons: list[ComparisonRecord] = field(default_factory=list)
    notes: str = ""

    def table(self) -> str:
        """Render the result as the paper-style ASCII table."""
        return format_table(
            self.headers,
            self.rows,
            title=f"[{self.experiment_id}] {self.title} "
            f"(preset={self.preset})",
        )

    def save_csv(self, directory: str | Path) -> Path:
        """Dump the rows as ``<directory>/<experiment_id>.csv``."""
        return write_csv(
            Path(directory) / f"{self.experiment_id}.csv",
            self.headers,
            self.rows,
        )

    @property
    def all_match(self) -> bool:
        """True when every comparison verdict is ``"match"``."""
        return all(c.verdict == "match" for c in self.comparisons)


def require_preset(presets: dict, name: str) -> dict:
    """Fetch a preset by name with a helpful error."""
    try:
        return dict(presets[name])
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {sorted(presets)}"
        ) from None


def measure_consensus_times(
    dynamics: Dynamics,
    counts: np.ndarray,
    num_runs: int,
    max_rounds: int,
    seed: RandomState = None,
    engine: str = "population",
) -> ResultSet:
    """Replicate a population run; shared by most experiments.

    Thin shim over the unified simulation API: builds a
    :class:`~repro.simulation.spec.SimulationSpec` and executes it.  The
    default ``engine="population"`` reproduces the historical per-replica
    seed streams bit-for-bit; pass ``engine="batch"`` to advance all
    replicas in one vectorised loop (equal in distribution, not bitwise).
    The returned :class:`~repro.simulation.results.ResultSet` behaves as
    the ``list[RunResult]`` this helper used to return.
    """
    spec = SimulationSpec(
        dynamics=dynamics,
        counts=np.asarray(counts, dtype=np.int64),
        engine=engine,
        replicas=num_runs,
        max_rounds=max_rounds,
        seed=seed,
    )
    return execute(spec)
