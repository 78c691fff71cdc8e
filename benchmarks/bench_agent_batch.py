"""Benchmark ``agent-batch`` — batched graph replication wall time.

The batched graph engine exists for one reason: R independent replicas
of a sparse-substrate workload should cost one vectorised hot loop, not
R per-vertex loops.  This benchmark pins that claim at the headline
configuration — R = 64 replicas, n = 10^4 vertices, a fixed
random-regular graph — for the three dynamics with vectorised
``agent_step_batch`` overrides, and guards the overrides themselves:

* ``test_agent_batch_speedup`` — wall-clock of one R-row
  :class:`~repro.engine.agent_batch.BatchAgentEngine` against a loop of
  R one-row engines on spawned streams (reported, not asserted: a
  one-row engine runs the same vectorised step, so the ratio is small).
  Voter and 2-Choices are measured over a fixed pre-consensus round
  budget (Voter needs ~Theta(n) rounds to coalesce at this size, far
  past any sane benchmark budget; fixed-budget stepping mirrors
  ``bench_batch_dynamics``'s pre-consensus rationale and keeps both
  sides doing identical work).  3-Majority converges quickly, so it is
  measured to consensus.  Asserts an absolute-seconds bound on the
  R-row engine per dynamics, with headroom for noisy CI hosts over the
  0.4-0.7 s they take on a 2-core reference box.
The override-presence and no-row-loop guards that used to live here
are now enforced statically by ``repro lint``'s **no-row-loop** rule
(``src/repro/lint/rules/vectorization.py``), which checks every
concrete dynamics at once instead of a hand-kept list.

Run with:  pytest benchmarks/bench_agent_batch.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.configs import balanced
from repro.core import ThreeMajority, TwoChoices, Voter
from repro.engine import BatchAgentEngine
from repro.graphs import random_regular
from repro.seeding import spawn_generators
from repro.state import counts_to_agents

N = 10_000
K = 8
REPLICAS = 64
DEGREE = 15  # +1 self-loop per vertex -> 16-regular sampling
TO_CONSENSUS = 1_000_000

#: (label, dynamics factory, round budget, asserted bound on the R-row
#: engine's seconds).  ``None`` budget means run to consensus.
CASES = (
    ("voter", Voter, 200, 3.0),
    ("2-choices", TwoChoices, 100, 2.5),
    ("3-majority", ThreeMajority, None, 2.0),
)


def _graph():
    return random_regular(N, DEGREE, seed=1)


def _loop_seconds(dynamics, graph, counts, budget) -> float:
    """R lone chains, one one-row engine per spawned stream."""
    max_rounds = TO_CONSENSUS if budget is None else budget
    started = time.perf_counter()
    for rng in spawn_generators(0, REPLICAS):
        BatchAgentEngine(
            dynamics,
            graph,
            counts_to_agents(counts, rng=rng, shuffle=True),
            num_replicas=1,
            num_opinions=K,
            seed=rng,
        ).run_until_consensus(max_rounds)
    return time.perf_counter() - started


def _batch_seconds(dynamics, graph, counts, budget) -> float:
    max_rounds = TO_CONSENSUS if budget is None else budget
    rng = np.random.default_rng(0)
    opinions = rng.permuted(
        np.tile(counts_to_agents(counts), (REPLICAS, 1)), axis=1
    )
    started = time.perf_counter()
    engine = BatchAgentEngine(
        dynamics, graph, opinions, num_opinions=K, seed=rng
    )
    engine.run_until_consensus(max_rounds)
    return time.perf_counter() - started


def _study() -> dict:
    graph = _graph()
    counts = balanced(N, K)
    rows = []
    speedups: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for label, factory, budget, _bound in CASES:
        seq_s = _loop_seconds(factory(), graph, counts, budget)
        batch_s = _batch_seconds(factory(), graph, counts, budget)
        speedup = seq_s / batch_s
        speedups[label] = speedup
        seconds[label] = batch_s
        rows.append(
            [
                label,
                "to consensus" if budget is None else f"{budget} rounds",
                round(seq_s * 1000, 1),
                round(batch_s * 1000, 1),
                round(speedup, 1),
            ]
        )
    return {"rows": rows, "speedups": speedups, "seconds": seconds}


def test_agent_batch_speedup(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["dynamics", "workload", "one-row loop ms", "batch ms", "speedup"],
            study["rows"],
            title=(
                f"R-row BatchAgentEngine vs a loop of R one-row engines "
                f"(R={REPLICAS}, n={N:,}, k={K}, "
                f"random-regular d={DEGREE}+loops)"
            ),
        )
    )
    write_bench_json(
        "agent_batch",
        config={"R": REPLICAS, "n": N, "k": K, "degree": DEGREE},
        extra={
            "speedups": {
                label: round(value, 2)
                for label, value in study["speedups"].items()
            },
            "batch_seconds": {
                label: round(value, 4)
                for label, value in study["seconds"].items()
            },
        },
    )
    for label, _factory, _budget, bound in CASES:
        assert study["seconds"][label] <= bound, (
            f"{label}: R-row engine took {study['seconds'][label]:.2f} s, "
            f"over its {bound:g} s bound"
        )
