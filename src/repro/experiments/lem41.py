"""Experiment ``lem41`` — Lemma 4.1 / eqs. (5), (6): one-step moments.

Lemma 4.1 gives, conditioned on the previous round:

* ``E[alpha_t(i)] = alpha_i (1 + alpha_i - gamma)`` — both dynamics;
* variance bounds ``Var[alpha_t(i)] <= alpha_i / n`` (3-Majority) and
  ``alpha_i (alpha_i + gamma) / n`` (2-Choices);
* the bias mean identity and its variance bounds;
* ``E[gamma_t] >= gamma_{t-1} + (1 - gamma)/n`` (3-Majority) resp.
  ``+ (1 - sqrt(gamma))(1 - gamma) gamma / n`` (2-Choices).

The reproduction draws many i.i.d. one-round transitions from assorted
configurations and reports z-scores of the Monte-Carlo means against the
closed forms, plus the ratio of empirical variances to their bounds
(must be <= 1 up to Monte-Carlo noise).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.comparison import ComparisonRecord
from repro.configs.initial import balanced, two_block, zipf
from repro.core.registry import make_dynamics
from repro.seeding import spawn_generators
from repro.experiments.base import ExperimentResult, require_preset
from repro.theory.drift import (
    expected_alpha_next,
    expected_delta_next,
    expected_gamma_increase_lower_bound,
    var_alpha_upper_bound,
    var_delta_upper_bound,
)
from repro.theory.quantities import gamma_of_alpha

EXPERIMENT_ID = "lem41"
TITLE = "Lemma 4.1: Monte-Carlo one-step moments vs closed forms"

PRESETS = {
    "micro": {"n": 256, "num_samples": 400},
    "quick": {"n": 1024, "num_samples": 3000},
    "paper": {"n": 8192, "num_samples": 20000},
}


def _configurations(n: int) -> list[tuple[str, np.ndarray]]:
    return [
        ("balanced k=8", balanced(n, 8)),
        ("balanced k=64", balanced(n, 64)),
        ("two-block 30%", two_block(n, 16, 0.3)),
        ("zipf k=32", zipf(n, 32, 1.0)),
    ]


def run(preset: str = "quick", seed: int = 0) -> ExperimentResult:
    params = require_preset(PRESETS, preset)
    n = params["n"]
    m = params["num_samples"]
    rows: list[list] = []
    comparisons: list[ComparisonRecord] = []
    worst_alpha_z = 0.0
    worst_var_ratio = 0.0
    gamma_drift_ok = True
    generators = iter(spawn_generators(seed, 2 * len(_configurations(n))))
    for dyn_name in ("3-majority", "2-choices"):
        dynamics = make_dynamics(dyn_name)
        for label, counts in _configurations(n):
            rng = next(generators)
            alpha = counts / n
            gamma0 = gamma_of_alpha(alpha)
            # m i.i.d. one-step transitions from the same configuration:
            # one batch step over m identical rows.
            samples = (
                dynamics.population_step_batch(np.tile(counts, (m, 1)), rng)
                / n
            )
            mean = samples.mean(axis=0)
            var = samples.var(axis=0, ddof=1)
            predicted_mean = expected_alpha_next(alpha)
            # z-score of the worst opinion's mean deviation.
            sem = np.sqrt(np.maximum(var, 1e-18) / m)
            z = float(np.max(np.abs(mean - predicted_mean) / sem))
            worst_alpha_z = max(worst_alpha_z, z)
            var_bounds = np.asarray(
                [
                    var_alpha_upper_bound(alpha, i, n, dyn_name)
                    for i in range(counts.size)
                ]
            )
            ratio = float(np.max(var / np.maximum(var_bounds, 1e-18)))
            worst_var_ratio = max(worst_var_ratio, ratio)
            # Bias moments for the top-two pair.
            order = np.argsort(counts)[::-1]
            i, j = int(order[0]), int(order[1])
            delta_samples = samples[:, i] - samples[:, j]
            delta_mean = float(delta_samples.mean())
            delta_pred = expected_delta_next(alpha, i, j)
            delta_sem = float(delta_samples.std(ddof=1) / np.sqrt(m))
            delta_z = (
                abs(delta_mean - delta_pred) / delta_sem
                if delta_sem > 0
                else 0.0
            )
            delta_var_bound = var_delta_upper_bound(alpha, i, j, n, dyn_name)
            delta_var_ratio = float(
                delta_samples.var(ddof=1) / max(delta_var_bound, 1e-18)
            )
            worst_var_ratio = max(worst_var_ratio, delta_var_ratio)
            # Gamma submartingale drift.
            gamma_samples = np.sum(samples * samples, axis=1)
            gamma_gain = float(gamma_samples.mean()) - gamma0
            gamma_floor = expected_gamma_increase_lower_bound(
                alpha, n, dyn_name
            )
            gamma_sem = float(
                gamma_samples.std(ddof=1) / np.sqrt(m)
            )
            if gamma_gain < gamma_floor - 4.0 * gamma_sem:
                gamma_drift_ok = False
            rows.append(
                [
                    dyn_name,
                    label,
                    round(z, 2),
                    round(ratio, 3),
                    round(delta_z, 2),
                    round(gamma_gain, 7),
                    round(gamma_floor, 7),
                ]
            )
    comparisons.append(
        ComparisonRecord(
            EXPERIMENT_ID,
            "E[alpha_t(i)] = alpha_i (1 + alpha_i - gamma) "
            "(Lemma 4.1(i), both dynamics)",
            f"worst per-opinion z-score {worst_alpha_z:.2f} "
            "(Bonferroni-adjusted threshold ~5)",
            "match" if worst_alpha_z < 5.5 else "mismatch",
        )
    )
    comparisons.append(
        ComparisonRecord(
            EXPERIMENT_ID,
            "Variance bounds of Lemma 4.1(i)-(ii) hold",
            f"worst empirical/bound ratio {worst_var_ratio:.3f} "
            "(must be <= 1 + noise)",
            "match" if worst_var_ratio <= 1.1 else "mismatch",
        )
    )
    comparisons.append(
        ComparisonRecord(
            EXPERIMENT_ID,
            "E[gamma_t] - gamma >= Lemma 4.1(iii) floor "
            "(gamma is a submartingale)",
            "floor respected on every configuration"
            if gamma_drift_ok
            else "floor violated",
            "match" if gamma_drift_ok else "mismatch",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        preset=preset,
        headers=[
            "dynamics",
            "configuration",
            "worst z(alpha mean)",
            "var/bound",
            "z(delta mean)",
            "E[dgamma] (MC)",
            "floor",
        ],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "z-scores use the Monte-Carlo standard error; with "
            "~4 configs x k opinions the worst-of z under the null sits "
            "around 3-4, hence the threshold of 5.5."
        ),
    )
