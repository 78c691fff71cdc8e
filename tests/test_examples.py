"""Smoke tests for the example scripts.

The fast examples run end-to-end (their output is part of the public
face of the library); the slow, sweep-style ones are compile-checked
and their helper functions exercised at reduced scale.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))


def _load(name: str):
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    assert ALL_EXAMPLES == [
        "adversarial_consensus.py",
        "async_vs_sync.py",
        "crossover_study.py",
        "plurality_voting.py",
        "quickstart.py",
        "service_quickstart.py",
        "undecided_dynamics.py",
    ]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_examples_compile(name):
    source = (EXAMPLES / name).read_text()
    compile(source, name, "exec")


def test_quickstart_runs(capsys):
    module = _load("quickstart.py")
    module.N = 2000
    module.K = 10
    module.main()
    out = capsys.readouterr().out
    assert "3-majority" in out
    assert "2-choices" in out


def test_plurality_voting_helpers(capsys):
    module = _load("plurality_voting.py")
    module.N = 1024
    module.K = 8
    module.ELECTIONS_PER_MARGIN = 4
    results = module.hold_elections(0.05, seed=0)
    assert len(results) == 4
    assert all(r.converged for r in results)


def test_crossover_helpers():
    module = _load("crossover_study.py")
    module.N = 1024
    module.RUNS = 2
    from repro.core import ThreeMajority

    value = module.median_time(ThreeMajority(), 4, seed=0)
    assert value > 0


def test_adversarial_helpers():
    module = _load("adversarial_consensus.py")
    module.N = 1024
    module.K = 4
    module.RUNS = 3
    module.WINDOW = 2000
    fraction, median = module.survive_attack(0, seed=0)
    assert fraction == 1.0
    assert median > 0


def test_undecided_helpers():
    module = _load("undecided_dynamics.py")
    module.N = 256
    module.RUNS = 2
    assert module.synchronous_rounds(2) > 0
    assert module.asynchronous_parallel_time(2) > 0


def test_service_quickstart_runs(capsys):
    module = _load("service_quickstart.py")
    module.GRID_A = {"n": [64, 128], "k": [2]}
    module.GRID_B = {"n": [128, 256], "k": [2]}
    module.NUM_RUNS = 2
    module.main()
    out = capsys.readouterr().out
    assert "cache hit" in out
    assert "rejected:" in out
    assert "status=ok" in out
