"""Run traces: the uniform observation format invariants check.

Every engine family exposes its state differently (count vectors,
opinion matrices, ticks vs. rounds); invariants should not care.  A
:class:`RunTrace` normalises one batched run into a sequence of
:class:`TraceSnapshot` observations over an ``(R, k)`` count matrix
plus a per-row frozen mask, with the adversary's actual
per-round movements captured by :class:`LedgerAdversary` as they
happen.  The asynchronous engine snapshots per tick with ``index``
counting ticks.

The ledger wrapper is what makes budget accounting engine-agnostic:
rather than teaching six engines to report what their adversary did,
the adversary itself is wrapped once and the recorded deltas are
ground truth for every engine that calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adversary.base import Adversary

__all__ = [
    "CorruptionRecord",
    "LedgerAdversary",
    "RunTrace",
    "TraceSnapshot",
]


@dataclass(frozen=True)
class TraceSnapshot:
    """One observed state: ``index`` (round or tick), counts, frozen.

    ``counts`` is an ``(R, k)`` int64 copy, ``frozen`` an ``(R,)`` bool
    copy — snapshots own their arrays, so a later engine step can never
    retroactively edit the record.
    """

    index: int
    counts: np.ndarray
    frozen: np.ndarray


@dataclass(frozen=True)
class CorruptionRecord:
    """One adversary call: ordinal and per-row mass moved.

    ``moved[i]`` is the number of vertices the adversary reassigned in
    the ``i``-th row it was handed (active rows only, for the batch
    engines); each entry must respect the per-round budget F and their
    running total the cumulative ``F * calls`` budget.
    """

    call: int
    moved: np.ndarray


@dataclass
class RunTrace:
    """A complete observed run, ready for invariant checking.

    ``n`` is the per-row total mass, ``num_labels`` the full label
    count (``k + 1`` for Undecided-State — the undecided slot is a
    label like any other as far as mass conservation goes), and
    ``undecided_label`` the censored slot's index, or ``None`` for
    dynamics without one.  ``custom_target`` records that the run
    stopped on a caller predicate (e.g. the adversarial near-consensus
    threshold) rather than the dynamics' consensus convention — frozen
    rows then need not be at consensus, only non-censored.
    """

    engine: str
    dynamics: str
    n: int
    num_labels: int
    num_replicas: int
    adversary_budget: int | None = None
    undecided_label: int | None = None
    custom_target: bool = False
    snapshots: list[TraceSnapshot] = field(default_factory=list)
    corruptions: list[CorruptionRecord] = field(default_factory=list)

    def snap(
        self, index: int, counts: np.ndarray, frozen: np.ndarray
    ) -> None:
        """Record one observation (defensive copies, normalised shapes)."""
        matrix = np.array(counts, dtype=np.int64, copy=True)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        mask = np.array(frozen, dtype=bool, copy=True).reshape(-1)
        self.snapshots.append(
            TraceSnapshot(index=int(index), counts=matrix, frozen=mask)
        )


class LedgerAdversary(Adversary):
    """Transparent adversary wrapper that records every corruption.

    Delegates ``corrupt``/``corrupt_batch`` to the wrapped strategy
    unchanged (same budget, same stream consumption, same law) while
    appending one :class:`CorruptionRecord` per call with the mass each
    row actually moved — measured here, on the wrapper's own
    before/after copies, so a strategy cannot under-report itself.
    """

    def __init__(
        self, inner: Adversary, ledger: list[CorruptionRecord]
    ) -> None:
        super().__init__(inner.budget)
        self.inner = inner
        self.ledger = ledger

    def _record(self, before: np.ndarray, after: np.ndarray) -> None:
        delta = np.abs(
            np.asarray(after, dtype=np.int64)
            - np.asarray(before, dtype=np.int64)
        )
        moved = delta.sum(axis=-1) // 2
        self.ledger.append(
            CorruptionRecord(
                call=len(self.ledger),
                moved=np.atleast_1d(moved).astype(np.int64),
            )
        )

    def corrupt(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        before = np.array(counts, dtype=np.int64, copy=True)
        after = self.inner.corrupt(counts, rng)
        self._record(before, after)
        return after

    def corrupt_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        before = np.array(counts, dtype=np.int64, copy=True)
        after = self.inner.corrupt_batch(counts, rng)
        self._record(before, after)
        return after

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LedgerAdversary({self.inner!r})"
