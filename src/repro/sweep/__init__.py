"""Ad-hoc parameter sweeps with caching, resume and worker pools."""

from repro.sweep.grid import (
    SweepPoint,
    SweepSpec,
    consensus_times_point_batch,
    run_sweep,
    spec_from_params,
)

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "consensus_times_point_batch",
    "run_sweep",
    "spec_from_params",
]
