"""Benchmark ``backends`` — JIT-kernel speedups over the NumPy paths.

The compute-backend layer (see :mod:`repro.backends`) exists for the
measured hot-path laggard the NumPy vectorisation could not close: the
per-chunk neighbor sample+gather of the batched graph engine.  This
benchmark pins the layer's reason to exist:

* ``test_backend_kernel_speedups`` — one study, two comparisons at
  the headline configuration:

  - Agent-batch Voter and 3-Majority (R = 64, n = 10^4, k = 8, fixed
    random-regular graph, fixed pre-consensus round budgets): the
    whole-engine wall clock under ``use_backend("numba")`` against
    ``use_backend("numpy")`` — the fused ``csr_sample_gather`` kernel
    is the moving part.  Floors (asserted only when the ``numba``
    backend is importable and healthy): **>=2x** for Voter, **>=1.5x**
    for 3-Majority (3-Majority does more non-gather work per round, so
    its ceiling is lower).

  On NumPy-only hosts the study still runs the NumPy comparisons,
  still emits ``BENCH_backends.json`` (with ``"backend": "numpy"`` and
  null numba columns, keeping the cross-PR artefact trail unbroken),
  and then **skips** — never fails — so a missing optional dependency
  can't redden CI.

The capability-flag drift guard that used to live here is now
enforced statically by ``repro lint``'s **registry-completeness**
rule, which cross-checks the kernel catalogue against the dispatch
sites that request each kernel by name.

Run with:  pytest benchmarks/bench_backends.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import write_bench_json
from repro.analysis.tables import format_table
from repro.backends import backend_available, use_backend
from repro.configs import balanced
from repro.core import ThreeMajority, Voter
from repro.engine import BatchAgentEngine
from repro.graphs import random_regular
from repro.state import counts_to_agents

# Agent-batch configuration (the sample+gather laggard).
AG_N = 10_000
AG_K = 8
AG_REPLICAS = 64
AG_DEGREE = 15
AG_CASES = (  # (label, dynamics factory, round budget, numba-vs-numpy floor)
    ("voter", Voter, 200, 2.0),
    ("3-majority", ThreeMajority, 60, 1.5),
)

NUMBA_AVAILABLE = backend_available("numba")


def _agent_seconds(backend, factory, budget) -> float:
    graph = random_regular(AG_N, AG_DEGREE, seed=1)
    rng = np.random.default_rng(0)
    opinions = rng.permuted(
        np.tile(counts_to_agents(balanced(AG_N, AG_K)), (AG_REPLICAS, 1)),
        axis=1,
    )
    engine = BatchAgentEngine(
        factory(),
        graph,
        opinions,
        num_opinions=AG_K,
        seed=rng,
        backend=backend,
    )
    engine.step()  # warm-up (allocator, JIT compilation)
    started = time.perf_counter()
    for _ in range(budget):
        engine.step()
    return (time.perf_counter() - started) / budget


def _study() -> dict:
    agents = {}
    for label, factory, budget, _floor in AG_CASES:
        agents[label] = {
            "numpy_s": _agent_seconds("numpy", factory, budget),
            "numba_s": (
                _agent_seconds("numba", factory, budget)
                if NUMBA_AVAILABLE
                else None
            ),
        }
    return agents


def _ratio(baseline, optimised):
    if baseline is None or optimised is None:
        return None
    return baseline / optimised


def test_backend_kernel_speedups(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)

    def _ms(seconds):
        return "-" if seconds is None else round(seconds * 1000, 2)

    def _x(ratio):
        return "-" if ratio is None else round(ratio, 1)

    rows = []
    agent_speedups = {}
    for label, _factory, _budget, _floor in AG_CASES:
        entry = study[label]
        agent_speedups[label] = _ratio(entry["numpy_s"], entry["numba_s"])
        rows.append(
            [
                f"agent-batch {label}",
                _ms(entry["numpy_s"]),
                _ms(entry["numba_s"]),
                _x(agent_speedups[label]),
            ]
        )
    print()
    print(
        format_table(
            [
                "hot path",
                "numpy ms/round",
                "numba ms/round",
                "numba/numpy",
            ],
            rows,
            title=(
                f"Compute-backend kernels "
                f"(agent R={AG_REPLICAS}, n={AG_N:,}, k={AG_K}, "
                f"d={AG_DEGREE}+loops)"
            ),
        )
    )

    def _r(value):
        return None if value is None else round(value, 2)

    def _seconds(value):
        return None if value is None else round(value, 6)

    # Headline: the Voter gather, the kernel's purest workload.
    voter = study["voter"]
    write_bench_json(
        "backends",
        speedup=_r(agent_speedups["voter"]),
        baseline_seconds=voter["numpy_s"],
        optimised_seconds=voter["numba_s"],
        config={
            "agent": {
                "R": AG_REPLICAS, "n": AG_N, "k": AG_K,
                "degree": AG_DEGREE,
            },
        },
        extra={
            "numba_available": NUMBA_AVAILABLE,
            "agent_seconds": {
                label: {
                    "numpy_seconds": _seconds(entry["numpy_s"]),
                    "numba_seconds": _seconds(entry["numba_s"]),
                }
                for label, entry in study.items()
            },
            "agent_numba_vs_numpy": {
                label: _r(value)
                for label, value in agent_speedups.items()
            },
        },
    )
    if not NUMBA_AVAILABLE:
        pytest.skip(
            "numba unavailable: NumPy timings recorded, speedup floors "
            "not asserted"
        )
    for label, _factory, _budget, floor in AG_CASES:
        assert agent_speedups[label] >= floor, (
            f"agent-batch {label} numba vs numpy: "
            f"{agent_speedups[label]:.1f}x < {floor}x"
        )
