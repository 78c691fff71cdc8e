"""Registry-driven run invariants, enforced uniformly across engines.

The paper-level conservation laws — per-row mass conservation,
frozen-row immutability, monotone consensus, [GL18] adversary budget
accounting, Undecided-State censoring — are registered as named
checks (:mod:`repro.invariants.checks`) over a uniform
:class:`~repro.invariants.trace.RunTrace` observation format, and
:func:`~repro.invariants.harness.run_traced` records such a trace from
any of the six registered engine names through the engines' opt-in
``record_hook``, and adversaries through the
:class:`~repro.invariants.trace.LedgerAdversary` wrapper.

``tests/test_invariants.py`` runs the full engine × dynamics ×
adversary matrix through :func:`~repro.invariants.registry.check_trace`
— the "simulator runs but lies" net.
"""

from repro.invariants.harness import run_traced
from repro.invariants.registry import (
    Invariant,
    available_invariants,
    check_trace,
    get_invariant,
    register_invariant,
    unregister_invariant,
)
from repro.invariants.trace import (
    CorruptionRecord,
    LedgerAdversary,
    RunTrace,
    TraceSnapshot,
)

# Importing the checks module registers the built-in catalogue.
from repro.invariants import checks as _checks  # noqa: F401

__all__ = [
    "CorruptionRecord",
    "Invariant",
    "LedgerAdversary",
    "RunTrace",
    "TraceSnapshot",
    "available_invariants",
    "check_trace",
    "get_invariant",
    "register_invariant",
    "run_traced",
    "unregister_invariant",
]
