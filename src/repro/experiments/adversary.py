"""Experiment ``adv`` — consensus under F-bounded adversaries (Sec. 2.5).

[GL18] proved 3-Majority still reaches consensus under an adversary that
corrupts ``F = O(sqrt(n) / k^{1.5})`` vertices per round (for
``k = O(n^{1/3}/sqrt(log n))``); the paper lists the general regime as
an open direction.

The reproduction sweeps the adversary budget ``F`` as multiples of
``sqrt(n) / k^{1.5}`` using the strongest stalling strategy
(:class:`~repro.adversary.strategies.SupportRunnerUp`) and records the
probability of consensus within a generous window plus the median
consensus time.  Shape checks: small budgets barely slow the dynamics;
budgets far above the [GL18] scale stall it.

Each tolerance point is one declarative
:class:`~repro.simulation.spec.SimulationSpec` executed on the batch
engine: all ``num_runs`` replicas advance as one ``(R, k)`` count
matrix with the adversary's vectorised ``corrupt_batch`` applied every
round, so the sweep gets the batched-replica speedup over running the
``num_runs`` adversarial chains one at a time
(``benchmarks/bench_adversary.py`` tracks the factor).
"""

from __future__ import annotations

import math

import numpy as np

from repro.adversary.strategies import SupportRunnerUp
from repro.adversary.tolerance import near_consensus_target
from repro.analysis.comparison import ComparisonRecord
from repro.experiments.base import ExperimentResult, require_preset
from repro.simulation import SimulationSpec

EXPERIMENT_ID = "adv"
TITLE = "Adversarial 3-Majority: tolerance of F corruptions per round"

PRESETS = {
    "micro": {
        "n": 512,
        "k": 4,
        "budget_multipliers": (0.0, 64.0),
        "num_runs": 3,
        "window_factor": 60.0,
    },
    "quick": {
        "n": 4096,
        "k": 8,
        "budget_multipliers": (0.0, 1.0, 4.0, 64.0),
        "num_runs": 5,
        "window_factor": 60.0,
    },
    "paper": {
        "n": 65536,
        "k": 16,
        "budget_multipliers": (0.0, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 256.0),
        "num_runs": 20,
        "window_factor": 80.0,
    },
}


def tolerance_spec(
    n: int,
    k: int,
    budget: int,
    num_runs: int,
    window: int,
    seed,
) -> SimulationSpec:
    """One tolerance-sweep point as a batched adversarial spec.

    An F >= 1 adversary can trivially keep one stray vertex alive
    forever, so "consensus despite the adversary" means the leader
    reaches :func:`~repro.adversary.tolerance.near_consensus_threshold`
    (all but 4F vertices, floored at a strict majority; strict
    consensus when F = 0); the threshold is the spec's per-row
    ``target``.
    """
    return SimulationSpec(
        dynamics="3-majority",
        n=n,
        k=k,
        engine="batch",
        replicas=num_runs,
        seed=seed,
        max_rounds=window,
        adversary=SupportRunnerUp(budget) if budget else None,
        # F = 0 is exactly strict consensus — leave target unset so the
        # batch engine keeps its vectorised row-max stopping check.
        target=near_consensus_target(n, budget) if budget else None,
    )


def run(preset: str = "quick", seed: int = 0) -> ExperimentResult:
    params = require_preset(PRESETS, preset)
    n, k = params["n"], params["k"]
    log_n = math.log(n)
    base_budget = math.sqrt(n) / k**1.5
    window = int(params["window_factor"] * k * log_n) + 100
    rows: list[list] = []
    success_by_mult: list[tuple[float, float, float]] = []
    for mult_idx, mult in enumerate(params["budget_multipliers"]):
        budget = int(round(mult * base_budget))
        spec = tolerance_spec(
            n,
            k,
            budget,
            params["num_runs"],
            window,
            seed=(seed, mult_idx),
        )
        results = spec.run()
        fraction = results.converged_fraction
        times = results.consensus_times
        median_time = (
            float(np.nanmedian(times))
            if results.num_converged
            else float("nan")
        )
        success_by_mult.append((mult, fraction, median_time))
        rows.append(
            [
                mult,
                budget,
                fraction,
                median_time,
                params["num_runs"],
            ]
        )
    comparisons = _shape_checks(success_by_mult)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        preset=preset,
        headers=[
            "F / (sqrt(n)/k^1.5)",
            "F",
            "P[consensus]",
            "median T_cons",
            "runs",
        ],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "Adversary = SupportRunnerUp (moves mass from the leader to "
            "the strongest challenger after every round); window = "
            "O(k log n); all runs per point batched on "
            "BatchPopulationEngine."
        ),
    )


def _shape_checks(success_by_mult) -> list[ComparisonRecord]:
    records: list[ComparisonRecord] = []
    small = [f for m, f, _ in success_by_mult if m <= 1.0]
    large = [f for m, f, _ in success_by_mult if m >= 64.0]
    if small:
        ok = min(small) >= 0.8
        records.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "F = O(sqrt(n)/k^1.5) does not prevent consensus "
                "([GL18] tolerance regime)",
                f"min success fraction at mult <= 1: {min(small):.2f}",
                "match" if ok else "partial",
            )
        )
    if large:
        ok = max(large) <= 0.5
        records.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "A much larger budget stalls the dynamics (tolerance is "
                "a real threshold, not an artefact)",
                f"max success fraction at mult >= 64: {max(large):.2f}",
                "match" if ok else "partial",
            )
        )
    return records
