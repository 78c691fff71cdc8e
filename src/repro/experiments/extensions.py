"""Experiment ``ext`` — Section 2.5 extensions and baselines.

Three open-direction probes from the paper's Section 2.5, plus the
baselines of Section 1.1, measured at one (n, k):

* **h-Majority** — consensus time vs. ``h`` (more samples, faster
  consensus; ``h = 3`` must agree with the closed-form 3-Majority);
* **undecided dynamics** — consensus time vs. ``k`` (the open question:
  the measured shape is close to linear in k at these sizes);
* **graphs beyond complete** — 3-Majority on a random-regular expander
  vs. the complete graph (open question: expanders should behave like
  the complete graph up to constants);
* **baselines** — Voter and Median rule vs. 3-Majority/2-Choices at the
  same (n, k), showing why majority-style aggregation matters.

All population-level sweeps run through the ``batch`` engine — every
catalogued dynamics now has a vectorised ``population_step_batch``, so
the replicated h-Majority / undecided / baseline measurements advance
all replicas as one count matrix instead of a Python replica loop (the
USD runs rely on the batch engine's k+1-label consensus convention:
only a *decided* winner stops a row).  The expander comparison runs the
per-vertex graph engine, one replica row per graph (each replica draws
its own random-regular graph), which is the point of that probe.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.comparison import ComparisonRecord
from repro.analysis.estimators import consensus_times
from repro.configs.initial import balanced
from repro.core.h_majority import HMajority
from repro.core.median import MedianRule
from repro.core.three_majority import ThreeMajority
from repro.core.undecided import UndecidedStateDynamics, with_undecided_slot
from repro.core.voter import Voter
from repro.engine.agent_batch import BatchAgentEngine
from repro.seeding import spawn_generators
from repro.state import counts_to_agents
from repro.experiments.base import (
    ExperimentResult,
    measure_consensus_times,
    require_preset,
)
from repro.graphs.complete import CompleteGraph
from repro.graphs.generators import random_regular

EXPERIMENT_ID = "ext"
TITLE = "Section 2.5 extensions: h-Majority, undecided, expanders, baselines"

PRESETS = {
    "micro": {
        "n": 256,
        "k": 4,
        "hs": (3, 5),
        "undecided_ks": (2, 4),
        "expander_degree": 8,
        "num_runs": 2,
        "budget": 8000,
    },
    "quick": {
        "n": 1024,
        "k": 8,
        "hs": (3, 5, 7),
        "undecided_ks": (2, 4, 8),
        "expander_degree": 16,
        "num_runs": 3,
        "budget": 20000,
    },
    "paper": {
        "n": 16384,
        "k": 32,
        "hs": (3, 5, 7, 9),
        "undecided_ks": (2, 4, 8, 16, 32, 64),
        "expander_degree": 32,
        "num_runs": 5,
        "budget": 200000,
    },
}


def run(preset: str = "quick", seed: int = 0) -> ExperimentResult:
    params = require_preset(PRESETS, preset)
    n, k = params["n"], params["k"]
    budget = params["budget"]
    rows: list[list] = []
    comparisons: list[ComparisonRecord] = []

    # ---------------- h-Majority sweep ------------------------------
    h_medians: dict[int, float] = {}
    for h_idx, h in enumerate(params["hs"]):
        dynamics = HMajority(h)
        results = measure_consensus_times(
            dynamics,
            balanced(n, k),
            num_runs=params["num_runs"],
            max_rounds=budget,
            seed=(seed, h_idx),
        )
        times = consensus_times(results)
        median = float(np.median(times)) if times.size else float("nan")
        h_medians[h] = median
        rows.append(["h-majority", f"h={h}", k, median])
    closed_form = measure_consensus_times(
        ThreeMajority(),
        balanced(n, k),
        num_runs=params["num_runs"],
        max_rounds=budget,
        seed=(seed, 50),
    )
    t3 = float(np.median(consensus_times(closed_form)))
    rows.append(["h-majority", "h=3 (closed form)", k, t3])
    if 3 in h_medians and math.isfinite(h_medians[3]):
        agree = 0.4 <= h_medians[3] / max(t3, 1.0) <= 2.5
        comparisons.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "Majority-of-h law at h=3 matches the closed-form "
                "3-Majority chain",
                f"median {h_medians[3]:.0f} vs {t3:.0f} rounds",
                "match" if agree else "mismatch",
            )
        )
    finite_h = [
        (h, t) for h, t in sorted(h_medians.items()) if math.isfinite(t)
    ]
    if len(finite_h) >= 2:
        monotone = all(
            finite_h[idx + 1][1] <= finite_h[idx][1] * 1.5
            for idx in range(len(finite_h) - 1)
        )
        comparisons.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "h-Majority: larger h does not slow consensus "
                "(stronger aggregation, Section 2.5)",
                " -> ".join(f"h={h}: {t:.0f}" for h, t in finite_h),
                "match" if monotone else "partial",
            )
        )

    # ---------------- undecided dynamics sweep ----------------------
    undecided_pairs: list[tuple[float, float]] = []
    for k_idx, uk in enumerate(params["undecided_ks"]):
        dynamics = UndecidedStateDynamics()
        counts = with_undecided_slot(balanced(n, uk))
        results = measure_consensus_times(
            dynamics,
            counts,
            num_runs=params["num_runs"],
            max_rounds=budget,
            seed=(seed, 100 + k_idx),
        )
        times = consensus_times(results)
        median = float(np.median(times)) if times.size else float("nan")
        if math.isfinite(median):
            undecided_pairs.append((float(uk), median))
        rows.append(["undecided", f"k={uk}", uk, median])
    if len(undecided_pairs) >= 2:
        increasing = undecided_pairs[-1][1] >= undecided_pairs[0][1]
        comparisons.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "Undecided dynamics: consensus time grows with k "
                "(open question, Section 2.5 — empirical shape only)",
                " -> ".join(
                    f"k={int(uk)}: {t:.0f}" for uk, t in undecided_pairs
                ),
                "match" if increasing else "partial",
            )
        )

    # ---------------- expander vs complete graph --------------------
    expander_times: list[float] = []
    complete_times: list[float] = []
    for run_idx, rng in enumerate(
        spawn_generators((seed, 200), params["num_runs"])
    ):
        graph = random_regular(
            n, params["expander_degree"], seed=rng, self_loops=True
        )
        opinions = counts_to_agents(balanced(n, k), rng=rng, shuffle=True)
        engine = BatchAgentEngine(
            ThreeMajority(),
            graph,
            opinions,
            num_replicas=1,
            num_opinions=k,
            seed=rng,
        )
        (result,) = engine.run_until_consensus(budget)
        if result.converged:
            expander_times.append(float(result.rounds))
        complete_engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(n),
            counts_to_agents(balanced(n, k)),
            num_replicas=1,
            num_opinions=k,
            seed=(seed, 300 + run_idx),
        )
        (result,) = complete_engine.run_until_consensus(budget)
        if result.converged:
            complete_times.append(float(result.rounds))
    med_exp = (
        float(np.median(expander_times))
        if expander_times
        else float("nan")
    )
    med_com = (
        float(np.median(complete_times))
        if complete_times
        else float("nan")
    )
    rows.append(["graphs", "random-regular expander", k, med_exp])
    rows.append(["graphs", "complete graph", k, med_com])
    if expander_times and complete_times:
        ratio = med_exp / max(med_com, 1.0)
        ok = ratio <= 4.0
        comparisons.append(
            ComparisonRecord(
                EXPERIMENT_ID,
                "3-Majority on a random-regular expander behaves like "
                "the complete graph up to constants (open question)",
                f"median {med_exp:.0f} vs {med_com:.0f} rounds "
                f"(ratio {ratio:.2f})",
                "match" if ok else "partial",
            )
        )

    # ---------------- baselines -------------------------------------
    for name, dynamics, baseline_seed in (
        ("voter", Voter(), 400),
        ("median", MedianRule(), 401),
    ):
        results = measure_consensus_times(
            dynamics,
            balanced(n, k),
            num_runs=params["num_runs"],
            max_rounds=budget,
            seed=(seed, baseline_seed),
        )
        times = consensus_times(results)
        median = float(np.median(times)) if times.size else float("inf")
        rows.append(["baseline", name, k, median])
        if name == "voter" and math.isfinite(t3):
            slower = median >= 3.0 * t3
            comparisons.append(
                ComparisonRecord(
                    EXPERIMENT_ID,
                    "Voter baseline is far slower than 3-Majority "
                    "(Theta(n) vs ~Theta(min{k, sqrt n}))",
                    f"voter median {median:.0f} vs 3-majority "
                    f"{t3:.0f} rounds",
                    "match" if slower else "partial",
                )
            )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        preset=preset,
        headers=["family", "variant", "k", "median T_cons"],
        rows=rows,
        comparisons=comparisons,
        notes="All runs start balanced at the stated k.",
    )
