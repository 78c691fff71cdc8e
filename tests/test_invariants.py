"""Tests for ``repro.invariants`` — the cross-engine invariant harness.

The positive matrix runs every registered engine against every
catalogued dynamics family (and against every adversary strategy) under
full recording and demands a clean :func:`~repro.invariants.check_trace`
pass — the "simulator runs but lies" net.  The negative tests hand the
checks deliberately violating traces and pin down that each one raises
:class:`~repro.errors.InvariantViolation` naming its invariant.  The
registry behaves like the engine/backend/lint registries it mirrors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.registry import available_adversaries
from repro.engine.registry import available_engines
from repro.errors import ConfigurationError, InvariantViolation
from repro.invariants import (
    CorruptionRecord,
    Invariant,
    RunTrace,
    available_invariants,
    check_trace,
    get_invariant,
    register_invariant,
    run_traced,
    unregister_invariant,
)

ENGINES = (
    "population",
    "agent",
    "async",
    "batch",
    "agent-batch",
    "async-batch",
)

DYNAMICS = (
    "3-majority",
    "2-choices",
    "voter",
    "median",
    "undecided",
    "5-majority",
)

INVARIANTS = (
    "adversary-budget",
    "frozen-immutability",
    "mass-conservation",
    "monotone-consensus",
    "undecided-censoring",
)


def test_matrix_is_exhaustive():
    """The parametrized matrices cover every registered name."""
    assert sorted(ENGINES) == available_engines()
    assert list(INVARIANTS) == available_invariants()


# ---------------------------------------------------------------------
# Positive matrix: every engine x every dynamics, clean pass
# ---------------------------------------------------------------------


@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_dynamics_pair_passes_all_invariants(
    engine, dynamics
):
    trace = run_traced(
        engine,
        dynamics,
        n=16,
        k=3,
        num_replicas=3,
        seed=hash((engine, dynamics)) % 2**32,
        max_rounds=150,
    )
    assert len(trace.snapshots) >= 1
    assert trace.corruptions == []
    assert trace.num_replicas == 3
    if dynamics == "undecided":
        assert trace.undecided_label == trace.num_labels - 1
        assert trace.num_labels == 4  # k decided labels + undecided
    check_trace(trace)


def test_batch_two_choices_sparse_step_passes_all_invariants():
    # About 2 expected switchers per row at n = 64, k = 32, so the batch
    # step starts on its sparse strategy; the matrix's n = 16, k = 3
    # inputs only ever select the dense one.
    trace = run_traced(
        "batch",
        "2-choices",
        n=64,
        k=32,
        num_replicas=3,
        seed=17,
        max_rounds=400,
    )
    assert len(trace.snapshots) >= 1
    assert trace.num_replicas == 3
    check_trace(trace)


# ---------------------------------------------------------------------
# Positive matrix: every engine x every adversary strategy
# ---------------------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(available_adversaries()))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_adversary_pair_passes_all_invariants(
    engine, strategy
):
    trace = run_traced(
        engine,
        "3-majority",
        n=16,
        k=3,
        num_replicas=2,
        seed=hash((engine, strategy)) % 2**32,
        adversary=strategy,
        adversary_budget=1,
        max_rounds=80,
    )
    assert trace.adversary_budget == 1
    check_trace(trace)


def test_adversarial_run_actually_records_corruptions():
    trace = run_traced(
        "batch",
        "3-majority",
        n=16,
        k=3,
        num_replicas=2,
        seed=0,
        adversary="random",
        adversary_budget=1,
        max_rounds=80,
    )
    assert trace.corruptions
    assert all(
        isinstance(record, CorruptionRecord)
        for record in trace.corruptions
    )


def test_undecided_adversarial_run_passes():
    # USD + adversary exercises the censoring check under a custom
    # target on target-capable engines and without one on async.
    for engine in ("batch", "async"):
        trace = run_traced(
            engine,
            "undecided",
            n=16,
            k=2,
            num_replicas=2,
            seed=3,
            adversary="random",
            adversary_budget=1,
            max_rounds=60,
        )
        check_trace(trace)


# ---------------------------------------------------------------------
# Harness input validation
# ---------------------------------------------------------------------


def test_unknown_engine_is_rejected():
    with pytest.raises(ConfigurationError):
        run_traced("warp", "voter", n=8, k=2)


def test_adversary_requires_budget():
    with pytest.raises(ConfigurationError):
        run_traced("batch", "voter", n=8, k=2, adversary="random")


def test_negative_max_rounds_is_rejected():
    with pytest.raises(ConfigurationError):
        run_traced("batch", "voter", n=8, k=2, max_rounds=-1)


# ---------------------------------------------------------------------
# Negative tests: handcrafted lying traces, one per invariant
# ---------------------------------------------------------------------


def _trace(**overrides):
    defaults = dict(
        engine="batch",
        dynamics="3-majority",
        n=10,
        num_labels=2,
        num_replicas=1,
    )
    defaults.update(overrides)
    return RunTrace(**defaults)


def test_mass_conservation_catches_leaked_vertices():
    trace = _trace()
    trace.snap(0, [5, 5], [False])
    trace.snap(1, [5, 4], [False])  # one vertex vanished
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["mass-conservation"])
    assert excinfo.value.invariant == "mass-conservation"
    assert "total mass 9" in str(excinfo.value)


def test_frozen_immutability_catches_edited_frozen_rows():
    trace = _trace(num_replicas=2)
    trace.snap(0, [[10, 0], [5, 5]], [True, False])
    trace.snap(1, [[9, 1], [6, 4]], [True, False])  # frozen row moved
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["frozen-immutability"])
    assert excinfo.value.invariant == "frozen-immutability"


def test_monotone_consensus_catches_thawing():
    trace = _trace()
    trace.snap(0, [10, 0], [True])
    trace.snap(1, [10, 0], [False])  # stopped row came back to life
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["monotone-consensus"])
    assert excinfo.value.invariant == "monotone-consensus"
    assert "thawed" in str(excinfo.value)


def test_monotone_consensus_catches_stalled_index():
    trace = _trace()
    trace.snap(3, [5, 5], [False])
    trace.snap(3, [5, 5], [False])  # observation time did not advance
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["monotone-consensus"])
    assert excinfo.value.invariant == "monotone-consensus"


def test_adversary_budget_catches_corruption_without_adversary():
    trace = _trace()  # adversary_budget=None
    trace.corruptions.append(
        CorruptionRecord(call=0, moved=np.array([1]))
    )
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["adversary-budget"])
    assert excinfo.value.invariant == "adversary-budget"
    assert "adversary-free" in str(excinfo.value)


def test_adversary_budget_catches_overdrawn_row():
    trace = _trace(adversary_budget=2)
    trace.corruptions.append(
        CorruptionRecord(call=0, moved=np.array([2, 3]))  # 3 > F=2
    )
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["adversary-budget"])
    assert "exceeding the per-round budget F=2" in str(excinfo.value)


def test_undecided_censoring_catches_undecided_winner():
    trace = _trace(num_labels=3, undecided_label=2)
    trace.snap(0, [[0, 0, 10]], [True])  # froze all-undecided
    with pytest.raises(InvariantViolation) as excinfo:
        check_trace(trace, select=["undecided-censoring"])
    assert excinfo.value.invariant == "undecided-censoring"
    assert "censor" in str(excinfo.value)


def test_undecided_censoring_demands_decided_consensus():
    trace = _trace(num_labels=3, undecided_label=2)
    trace.snap(0, [[8, 0, 2]], [True])  # froze with undecided residue
    with pytest.raises(InvariantViolation):
        check_trace(trace, select=["undecided-censoring"])
    # ... but a custom stopping target legitimises early freezing.
    lenient = _trace(
        num_labels=3, undecided_label=2, custom_target=True
    )
    lenient.snap(0, [[8, 0, 2]], [True])
    check_trace(lenient, select=["undecided-censoring"])


def test_undecided_censoring_ignores_dynamics_without_a_slot():
    trace = _trace()  # undecided_label=None
    trace.snap(0, [[10, 0]], [True])
    check_trace(trace, select=["undecided-censoring"])


# ---------------------------------------------------------------------
# Registry semantics (mirrors the engine/backend registries)
# ---------------------------------------------------------------------


class _TautologyInvariant:
    name = "tautology"
    description = "always passes"

    def check(self, trace) -> None:
        return None


def test_builtin_catalogue_is_registered():
    for name in INVARIANTS:
        invariant = get_invariant(name)
        assert isinstance(invariant, Invariant)
        assert invariant.name == name
        assert invariant.description


def test_register_and_unregister_roundtrip():
    register_invariant(_TautologyInvariant())
    try:
        assert "tautology" in available_invariants()
        trace = _trace()
        trace.snap(0, [5, 5], [False])
        check_trace(trace, select=["tautology"])
    finally:
        unregister_invariant("tautology")
    assert "tautology" not in available_invariants()


def test_duplicate_registration_requires_replace():
    register_invariant(_TautologyInvariant())
    try:
        with pytest.raises(ConfigurationError):
            register_invariant(_TautologyInvariant())
        register_invariant(_TautologyInvariant(), replace=True)
    finally:
        unregister_invariant("tautology")


def test_invalid_and_unknown_names_are_rejected():
    with pytest.raises(ConfigurationError):
        register_invariant(object())  # no name attribute
    with pytest.raises(ConfigurationError):
        get_invariant("no-such-invariant")
    trace = _trace()
    with pytest.raises(ConfigurationError):
        check_trace(trace, select=["no-such-invariant"])
