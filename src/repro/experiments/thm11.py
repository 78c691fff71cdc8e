"""Experiment ``thm11`` — Theorem 1.1 (main): k-sweep at fixed n.

Theorem 1.1: from any configuration (we use the hardest, balanced, one)
3-Majority reaches consensus in ``~Theta(min{k, sqrt n})`` rounds and
2-Choices in ``~Theta(k)`` rounds, w.h.p., for all ``2 <= k <= n``.

The reproduction sweeps ``k`` geometrically at fixed ``n`` and checks

* 3-Majority: substantial growth of the median consensus time up to
  ``k ~ sqrt(n)``, near-flatness beyond it, and a fitted saturating-
  power-law crossover within a constant factor of ``sqrt(n)`` (a raw
  log-log slope under-reads the rising branch because an additive
  ``~log n`` endgame dominates small k);
* 2-Choices: a plain power law with no plateau (the upper-half
  exponent stays close to the lower-half one).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.comparison import ComparisonRecord
from repro.analysis.estimators import consensus_times
from repro.analysis.scaling import (
    fit_power_law,
    fit_saturating_power_law,
    split_exponents,
)
from repro.configs.initial import balanced
from repro.core.registry import make_dynamics
from repro.seeding import as_seed_sequence
from repro.experiments.base import (
    ExperimentResult,
    measure_consensus_times,
    require_preset,
)

EXPERIMENT_ID = "thm11"
TITLE = "Theorem 1.1: consensus time ~Theta(min{k, sqrt n}) / ~Theta(k)"

PRESETS = {
    "micro": {
        "n": 256,
        "ks": (2, 4, 8, 16),
        "num_runs": 2,
        "budget_factor": 50.0,
    },
    "quick": {
        "n": 4096,
        "ks": (4, 8, 16, 32, 64, 128, 256, 512),
        "num_runs": 3,
        "budget_factor": 50.0,
    },
    "paper": {
        "n": 65536,
        "ks": (4, 16, 64, 128, 256, 512, 1024, 2048),
        "num_runs": 3,
        "budget_factor": 60.0,
    },
}


def run(preset: str = "quick", seed: int = 0) -> ExperimentResult:
    params = require_preset(PRESETS, preset)
    n = params["n"]
    log_n = math.log(n)
    sqrt_n = math.sqrt(n)
    root = as_seed_sequence(seed)
    rows: list[list] = []
    series: dict[str, tuple[list, list]] = {
        "3-majority": ([], []),
        "2-choices": ([], []),
    }
    for dyn_name in ("3-majority", "2-choices"):
        dynamics = make_dynamics(dyn_name)
        for k in params["ks"]:
            predicted = (
                min(k, sqrt_n) if dyn_name == "3-majority" else float(k)
            )
            budget = int(params["budget_factor"] * predicted * log_n) + 100
            (child,) = root.spawn(1)
            # Batched replication: all num_runs replicas of this grid
            # point advance in one vectorised (R, k) engine.
            results = measure_consensus_times(
                dynamics,
                balanced(n, k),
                num_runs=params["num_runs"],
                max_rounds=budget,
                seed=child,
            )
            times = consensus_times(results)
            median_time = (
                float(np.median(times)) if times.size else float("nan")
            )
            if times.size:
                series[dyn_name][0].append(float(k))
                series[dyn_name][1].append(max(median_time, 1.0))
            rows.append(
                [
                    dyn_name,
                    k,
                    median_time,
                    predicted,
                    round(median_time / max(predicted, 1.0), 2)
                    if times.size
                    else "nan",
                ]
            )
    comparisons = _shape_checks(series, n)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        preset=preset,
        headers=[
            "dynamics",
            "k",
            "median T_cons",
            "paper bound (no polylog)",
            "ratio",
        ],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "Ratios absorb the polylog factor; within one dynamics they "
            "should stay within a small multiplicative band across k on "
            "the rising branch."
        ),
    )


def _shape_checks(series: dict, n: int) -> list[ComparisonRecord]:
    records: list[ComparisonRecord] = []
    sqrt_n = math.sqrt(n)

    ks, times = series["3-majority"]
    if len(ks) >= 4:
        # An additive ~log n endgame inflates small-k times, so a raw
        # log-log slope under-reads the rising branch; the robust
        # formalization of ~Theta(min{k, sqrt n}) is: (a) substantial
        # growth up to k ~ sqrt(n), (b) near-flatness beyond it, and
        # (c) the fitted crossover lands within a constant factor of
        # sqrt(n) when the sweep reaches past it.
        fit = fit_saturating_power_law(ks, times)
        ordered = sorted(zip(ks, times))
        at_sqrt = min(
            (t for k, t in ordered if k >= sqrt_n),
            default=ordered[-1][1],
        )
        growth = at_sqrt / ordered[0][1]
        beyond = [t for k, t in ordered if k >= 2 * sqrt_n]
        plateau_ok = (not beyond) or max(beyond) <= 2.0 * at_sqrt
        growth_ok = growth >= 3.0
        crossover_ok = (
            fit.crossover == float("inf")
            and max(ks) <= 2 * sqrt_n
            or sqrt_n / 8 <= fit.crossover <= 8 * sqrt_n
        )
        ok = plateau_ok and growth_ok and crossover_ok
        records.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "3-Majority: T grows with k then plateaus at "
                "k ~ sqrt(n) (T = ~Theta(min{k, sqrt n}))",
                f"T(k_min) -> T(~sqrt n): x{growth:.1f}; plateau "
                f"excess beyond 2 sqrt(n): "
                f"x{(max(beyond) / at_sqrt) if beyond else 1.0:.2f}; "
                f"fitted crossover {fit.crossover:.0f} "
                f"(sqrt n = {sqrt_n:.0f})",
                "match" if ok else "partial",
            )
        )
    ks, times = series["2-choices"]
    if len(ks) >= 4:
        fit = fit_power_law(ks, times)
        low, high = split_exponents(ks, times)
        linear_ok = 0.6 <= fit.exponent <= 1.4
        no_plateau = high >= 0.4
        records.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "2-Choices: T ~ k throughout (no plateau)",
                f"global exponent {fit.exponent:.2f}, upper-half exponent "
                f"{high:.2f}",
                "match" if linear_ok and no_plateau else "partial",
            )
        )
    return records
