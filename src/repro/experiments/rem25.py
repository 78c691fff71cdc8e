"""Experiment ``rem25`` — Remark 2.5 / [BCEKMN17]: surviving opinions.

[BCEKMN17] proved that after ``T`` rounds of 3-Majority the number of
surviving opinions is at most ``O(n log n / T)`` w.h.p. — the result
Remark 2.5 combines with Theorem 2.1 for the large-k regime, and which
the paper stresses "does not hold for 2-Choices" (2-Choices retains its
initial opinion unless it sees an agreeing pair, so rare opinions die
much more slowly — this asymmetry is exactly why the paper's
norm-growth argument, which works for both, is needed).

The reproduction starts both dynamics from the balanced ``k = n``
configuration and records the surviving-opinion count at geometrically
spaced checkpoints.  Shape checks: (i) 3-Majority's survivors decay at
least like ``c n log n / T`` (fitted decay exponent close to -1 in T);
(ii) 2-Choices retains strictly more opinions than 3-Majority at every
checkpoint, by a growing factor.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.comparison import ComparisonRecord
from repro.analysis.scaling import fit_power_law
from repro.configs.initial import balanced
from repro.core.registry import make_dynamics
from repro.engine.batch import BatchPopulationEngine
from repro.seeding import spawn_generators
from repro.experiments.base import ExperimentResult, require_preset

EXPERIMENT_ID = "rem25"
TITLE = "Remark 2.5: surviving opinions after T rounds (k = n start)"

PRESETS = {
    "micro": {"n": 512, "checkpoints": (4, 8, 16, 32), "num_runs": 2},
    "quick": {"n": 4096, "checkpoints": (8, 16, 32, 64, 128), "num_runs": 3},
    "paper": {
        "n": 65536,
        "checkpoints": (16, 64, 256, 1024, 4096),
        "num_runs": 3,
    },
}


def run(preset: str = "quick", seed: int = 0) -> ExperimentResult:
    params = require_preset(PRESETS, preset)
    n = params["n"]
    checkpoints = tuple(params["checkpoints"])
    survivors: dict[str, np.ndarray] = {}
    for dyn_idx, dyn_name in enumerate(("3-majority", "2-choices")):
        dynamics = make_dynamics(dyn_name)
        per_run = np.zeros(
            (params["num_runs"], len(checkpoints)), dtype=np.float64
        )
        for run_idx, rng in enumerate(
            spawn_generators((seed, dyn_idx), params["num_runs"])
        ):
            engine = BatchPopulationEngine(
                dynamics, balanced(n, n), num_replicas=1, seed=rng
            )
            # A row frozen at consensus keeps its counts, so stepping
            # stops early without changing what later checkpoints read.
            for pos, checkpoint in enumerate(checkpoints):
                engine.run_until_consensus(checkpoint)
                per_run[run_idx, pos] = engine.alive[0]
        survivors[dyn_name] = np.median(per_run, axis=0)

    rows: list[list] = []
    log_n = math.log(n)
    for pos, T in enumerate(checkpoints):
        bound = n * log_n / T
        rows.append(
            [
                T,
                survivors["3-majority"][pos],
                survivors["2-choices"][pos],
                round(bound, 0),
                round(
                    survivors["2-choices"][pos]
                    / max(survivors["3-majority"][pos], 1.0),
                    2,
                ),
            ]
        )

    comparisons = []
    maj = np.maximum(survivors["3-majority"], 1.0)
    cho = np.maximum(survivors["2-choices"], 1.0)
    fit = fit_power_law(np.asarray(checkpoints, float), maj)
    decay_ok = fit.exponent <= -0.6
    comparisons.append(
        ComparisonRecord(
            EXPERIMENT_ID,
            "3-Majority survivors decay like n log n / T "
            "([BCEKMN17], exponent ~ -1 in T)",
            f"fitted decay exponent {fit.exponent:.2f}",
            "match" if decay_ok else "partial",
        )
    )
    within_bound = bool(
        np.all(maj <= np.asarray([n * log_n / T for T in checkpoints]))
    )
    comparisons.append(
        ComparisonRecord(
            EXPERIMENT_ID,
            "3-Majority survivors stay below the n log n / T bound",
            "below at every checkpoint"
            if within_bound
            else "bound exceeded",
            "match" if within_bound else "mismatch",
        )
    )
    gap_grows = bool(cho[-1] / maj[-1] > cho[0] / maj[0]) and bool(
        cho[-1] > 2 * maj[-1]
    )
    comparisons.append(
        ComparisonRecord(
            EXPERIMENT_ID,
            "2-Choices keeps strictly more opinions alive (the "
            "[BCEKMN17] argument fails for it, Remark 2.5)",
            f"survivor ratio grows from {cho[0] / maj[0]:.1f}x to "
            f"{cho[-1] / maj[-1]:.1f}x",
            "match" if gap_grows else "partial",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        preset=preset,
        headers=[
            "T",
            "3-majority alive",
            "2-choices alive",
            "n log n / T",
            "2c/3m ratio",
        ],
        rows=rows,
        comparisons=comparisons,
        notes="Medians over runs; start = balanced k = n.",
    )
