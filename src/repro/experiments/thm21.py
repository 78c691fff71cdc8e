"""Experiment ``thm21`` — Theorem 2.1: consensus in O(log n / gamma_0).

Theorem 2.1: starting from *any* configuration with
``gamma_0 >= C log n / sqrt(n)`` (3-Majority) or
``C (log n)^2 / n`` (2-Choices), the consensus time is
``O(log n / gamma_0)`` w.h.p.

The reproduction builds two-block configurations whose ``gamma_0`` spans
a geometric range above the threshold, measures the consensus time, and
checks that ``T * gamma_0 / log n`` stays within a constant band — i.e.
that the measured time is linear in ``1 / gamma_0``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.comparison import ComparisonRecord
from repro.analysis.estimators import consensus_times
from repro.analysis.scaling import fit_power_law
from repro.configs.initial import geometric_gamma
from repro.core.registry import make_dynamics
from repro.seeding import as_seed_sequence
from repro.state import gamma_from_counts
from repro.experiments.base import (
    ExperimentResult,
    measure_consensus_times,
    require_preset,
)
from repro.theory.bounds import gamma_condition

EXPERIMENT_ID = "thm21"
TITLE = "Theorem 2.1: consensus time O(log n / gamma_0) from large gamma_0"

PRESETS = {
    "micro": {
        "n": 256,
        "k": 16,
        "gamma_multipliers": (1.0, 4.0, 16.0),
        "num_runs": 2,
        "budget_factor": 60.0,
    },
    "quick": {
        "n": 4096,
        "k": 256,
        "gamma_multipliers": (1.0, 2.0, 4.0, 8.0, 16.0),
        "num_runs": 3,
        "budget_factor": 60.0,
    },
    "paper": {
        "n": 65536,
        "k": 1024,
        "gamma_multipliers": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        "num_runs": 5,
        "budget_factor": 80.0,
    },
}


def run(preset: str = "quick", seed: int = 0) -> ExperimentResult:
    params = require_preset(PRESETS, preset)
    n, k = params["n"], params["k"]
    log_n = math.log(n)
    root = as_seed_sequence(seed)
    rows: list[list] = []
    series: dict[str, tuple[list, list]] = {
        "3-majority": ([], []),
        "2-choices": ([], []),
    }
    for dyn_name in ("3-majority", "2-choices"):
        dynamics = make_dynamics(dyn_name)
        base_gamma = max(gamma_condition(dyn_name, n), 1.0 / k)
        for mult in params["gamma_multipliers"]:
            target = min(mult * base_gamma, 0.9)
            counts = geometric_gamma(n, k, target)
            gamma0 = gamma_from_counts(counts)
            budget = int(params["budget_factor"] * log_n / gamma0) + 100
            (child,) = root.spawn(1)
            # Batched replication: all num_runs replicas of this grid
            # point advance in one vectorised (R, k) engine.
            results = measure_consensus_times(
                dynamics,
                counts,
                num_runs=params["num_runs"],
                max_rounds=budget,
                seed=child,
            )
            times = consensus_times(results)
            median_time = (
                float(np.median(times)) if times.size else float("nan")
            )
            normalised = median_time * gamma0 / log_n
            if times.size:
                series[dyn_name][0].append(1.0 / gamma0)
                series[dyn_name][1].append(max(median_time, 1.0))
            rows.append(
                [
                    dyn_name,
                    round(gamma0, 6),
                    median_time,
                    round(log_n / gamma0, 1),
                    round(normalised, 3),
                ]
            )
    comparisons = _shape_checks(series, n)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        preset=preset,
        headers=[
            "dynamics",
            "gamma_0",
            "median T_cons",
            "log n / gamma_0",
            "T * gamma_0 / log n",
        ],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "The last column is the hidden constant of Theorem 2.1; "
            "the claim is that it is O(1) across the gamma_0 range."
        ),
    )


def _shape_checks(series: dict, n: int) -> list[ComparisonRecord]:
    """Theorem 2.1 is an *upper* bound ``T = O(log n / gamma_0)``.

    The honest formalization: (a) the hidden constant
    ``T * gamma_0 / log n`` stays below a fixed ceiling across the whole
    gamma_0 range, and (b) T is non-increasing in gamma_0 (up to
    Monte-Carlo noise).  A fitted exponent is reported for context but
    not gated on — runs from very large gamma_0 legitimately finish
    faster than the bound requires, flattening the exponent.
    """
    records: list[ComparisonRecord] = []
    ceiling = 30.0
    log_n = math.log(n)
    for dyn_name, (inv_gamma, times) in series.items():
        if len(inv_gamma) < 3:
            continue
        inv = np.asarray(inv_gamma)
        t = np.asarray(times)
        constants = t / inv / log_n  # = T * gamma_0 / log n
        bounded = bool(constants.max() <= ceiling)
        order = np.argsort(inv)  # ascending 1/gamma_0 = descending gamma
        sorted_t = t[order]
        monotone = bool(
            np.all(np.diff(sorted_t) >= -0.25 * sorted_t[:-1])
        )
        fit = fit_power_law(inv_gamma, times)
        records.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                f"{dyn_name}: T_cons = O(log n / gamma_0) uniformly "
                "over the gamma_0 sweep (Theorem 2.1)",
                f"max T*gamma_0/log n = {constants.max():.2f} "
                f"(ceiling {ceiling:g}); T non-increasing in gamma_0: "
                f"{'yes' if monotone else 'no'}; context exponent "
                f"{fit.exponent:.2f}",
                "match" if bounded and monotone else "partial",
            )
        )
    return records
