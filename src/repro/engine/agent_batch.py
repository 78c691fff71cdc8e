"""Vectorised batch-replica engine for graph substrates.

:class:`~repro.engine.batch.BatchPopulationEngine` made every
complete-graph workload fast, but the dynamics on *general* graphs —
the whole reason :mod:`repro.graphs` exists — still ran one replica at a
time through :class:`~repro.engine.agent.AgentEngine`.  This engine is
the missing quadrant: it advances R replicas of per-vertex opinions on a
shared :class:`~repro.graphs.base.Graph` as one ``(R, n)`` integer
matrix, stepping every *unfinished* replica with a single call to the
dynamics' ``agent_step_batch``.  The pull-based paper dynamics
(3-Majority, 2-Choices, Voter) are fully vectorised there — one batched
neighbour-sampling pass (:meth:`~repro.graphs.base.Graph.
sample_neighbors_batch`) plus one fused opinion gather per sample plane
— while any other dynamics falls back to a per-row loop (correct, no
speedup).  ``benchmarks/bench_agent_batch.py`` guards the overrides and
tracks the speedups over sequential agent-level replication.

Cost model: the per-round work is proportional to the number of *active*
replica rows — rows are frozen the round they stop (consensus under the
dynamics' own convention, or a caller-supplied per-row ``target`` on the
count vectors), excluded from sampling, and never change again.  The
plain consensus path never materialises count vectors: stopping is
detected on the opinion matrix itself via a cheap column-subsample
prefilter (a necessary condition for row uniformity) followed by the
dynamics' exact ``consensus_mask_agents`` on the few candidate rows.
Count vectors are built only when something needs them — an adversary, a
``target`` predicate, or the final per-replica results.

Adversaries act on count vectors ([GL18] population model); this engine
lifts each row's corruption back onto vertices exactly like the
sequential :class:`~repro.engine.agent.AgentEngine`: uniformly random
holders of each losing opinion are reassigned to the gaining opinions
(:func:`apply_count_delta`), with the corruption contract enforced
row-wise every round.

Each row is the same Markov chain a single :class:`AgentEngine` runs on
the same graph (KS-equivalence-tested); all rows share one generator, so
a batch run is equal to R seeded sequential runs in distribution, not in
realisation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.adversary.base import (
    Adversary,
    apply_count_delta,
    enforce_corruption_contract_batch,
)
from repro.backends import resolve_backend, use_backend
from repro.core.base import Dynamics
from repro.engine.registry import register_engine
from repro.engine.runner import RunResult
from repro.errors import (
    ConfigurationError,
    ConsensusNotReached,
    StateError,
)
from repro.graphs.base import Graph
from repro.graphs.complete import CompleteGraph
from repro.seeding import RandomState, as_generator
from repro.state import counts_to_agents, validate_agents

__all__ = ["BatchAgentEngine", "apply_count_delta"]

#: Column stride of the consensus prefilter: a row is checked in full
#: only when ~n/stride probe columns all agree with column 0.  Any
#: stride is correct (uniformity implies probe uniformity); a prime
#: avoids resonating with structured vertex layouts.
_PREFILTER_STRIDE = 251


def _label_dtype(num_opinions: int) -> np.dtype:
    """Narrowest signed dtype holding labels ``[0, num_opinions)``.

    Narrow labels halve (or quarter) the bandwidth of every gather and
    compare in the hot loop; the engine widens transparently wherever
    numpy needs an index type.
    """
    if num_opinions <= 1 << 7:
        return np.dtype(np.int8)
    if num_opinions <= 1 << 15:
        return np.dtype(np.int16)
    if num_opinions <= 1 << 31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class BatchAgentEngine:
    """Advance R replicas of a graph chain as one opinion matrix.

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics`.  3-Majority, 2-Choices
        and Voter step fully vectorised via ``agent_step_batch``;
        dynamics without an override fall back to a per-row loop
        (correct, no speedup).
    graph:
        Shared substrate; ``graph.num_vertices`` must match the opinion
        row length.
    opinions:
        Either a length-``n`` opinion vector shared by every replica, or
        an ``(R, n)`` matrix giving each replica its own start (the
        registry adapter shuffles vertex identities per row, which
        matters on non-complete graphs).
    num_replicas:
        Number of replicas R.  Required with a 1-D ``opinions``; with a
        matrix it must match the row count (or be omitted).
    num_opinions:
        Size of the opinion space ``k``.  Announced to the dynamics via
        ``bind_opinion_space`` when given (the Undecided-State label
        convention needs it), defaulted from the labels otherwise.
    seed:
        Anything accepted by :func:`repro.seeding.as_generator`; one
        stream drives all replicas.
    adversary:
        Optional F-bounded :class:`~repro.adversary.base.Adversary`
        corrupting every active row after each round via
        ``corrupt_batch`` (contract-checked per row), lifted onto
        vertices with :func:`apply_count_delta`.
    target:
        Optional stopping predicate on a single row's *count vector*
        (the population-level contract shared with
        :class:`~repro.engine.batch.BatchPopulationEngine`); objects
        exposing ``batch(rows)`` are evaluated in one vectorised call.
    backend:
        Optional compute backend pinned for this engine's steps (name,
        instance, or ``None``/``"auto"`` to inherit the ambient backend
        — see :mod:`repro.backends`); a pure performance knob that
        never changes the sampled law.
    record_hook:
        Optional observation callback ``hook(round_index, counts,
        frozen)`` invoked after every :meth:`step` with the engine's
        per-replica *count* view (derived from the opinion matrix —
        the population-level contract all recorders share) and frozen
        mask.  Costs nothing when ``None``; used by
        :mod:`repro.invariants` to record traces.

    Attributes
    ----------
    opinions:
        The ``(R, n)`` opinion matrix (owned by the engine; narrow
        integer dtype).
    frozen, consensus_rounds, round_index:
        Same meaning as on :class:`BatchPopulationEngine`.
    """

    def __init__(
        self,
        dynamics: Dynamics,
        graph: Graph,
        opinions: np.ndarray,
        num_replicas: int | None = None,
        num_opinions: int | None = None,
        seed: RandomState = None,
        adversary: Adversary | None = None,
        target: Callable[[np.ndarray], bool] | None = None,
        backend: str | None = None,
        record_hook: Callable[[int, np.ndarray, np.ndarray], None]
        | None = None,
    ) -> None:
        self.backend = (
            None if backend in (None, "auto") else resolve_backend(backend)
        )
        self.record_hook = record_hook
        self.dynamics = dynamics
        self.graph = graph
        self.adversary = adversary
        self.target = target
        arr = np.asarray(opinions)
        if arr.ndim == 1:
            if num_replicas is None:
                raise ConfigurationError(
                    "num_replicas is required when opinions is a single "
                    "1-D configuration"
                )
            if num_replicas < 1:
                raise ConfigurationError(
                    f"num_replicas must be at least 1, got {num_replicas}"
                )
            base = validate_agents(arr, k=num_opinions)
            matrix = np.tile(base, (int(num_replicas), 1))
        elif arr.ndim == 2:
            if num_replicas is not None and num_replicas != arr.shape[0]:
                raise ConfigurationError(
                    f"opinions has {arr.shape[0]} rows but num_replicas="
                    f"{num_replicas}"
                )
            matrix = np.stack(
                [validate_agents(row, k=num_opinions) for row in arr]
            )
        else:
            raise ConfigurationError(
                f"opinions must be 1-D or (R, n), got shape {arr.shape}"
            )
        if matrix.shape[1] != graph.num_vertices:
            raise ConfigurationError(
                f"got {matrix.shape[1]} opinions per replica for a graph "
                f"with {graph.num_vertices} vertices"
            )
        self.num_replicas = int(matrix.shape[0])
        self.num_vertices = int(matrix.shape[1])
        self.num_opinions = (
            int(num_opinions)
            if num_opinions is not None
            else int(matrix.max()) + 1
        )
        # Same contract as AgentEngine: only a caller-stated opinion
        # space is bound (a label-maximum fallback would mislead e.g.
        # Undecided-State on fully decided starts).
        if num_opinions is not None:
            self.dynamics.bind_opinion_space(self.num_opinions)
        self.opinions = np.ascontiguousarray(
            matrix, dtype=_label_dtype(self.num_opinions)
        )
        self.rng = as_generator(seed)
        self.round_index = 0
        self.frozen = self._stopped(self.opinions)
        self.consensus_rounds = np.where(self.frozen, 0, -1).astype(
            np.int64
        )

    # ------------------------------------------------------------------
    # Count-vector views (built on demand; never in the plain hot loop)
    # ------------------------------------------------------------------
    def _counts_of(self, opinions: np.ndarray) -> np.ndarray:
        """Per-row opinion counts of an ``(rows, n)`` matrix, int64.

        Labels are bounds-checked first: the offset bincount would
        otherwise silently file an out-of-range label under the *next*
        row's bins.  A dynamics minting labels beyond the engine's
        opinion space (e.g. Undecided-State run with an inferred
        ``num_opinions``) fails loudly here, like the sequential
        engine's per-round validation does.
        """
        rows = opinions.shape[0]
        k = self.num_opinions
        top = int(opinions.max()) if opinions.size else 0
        if top >= k:
            raise StateError(
                f"opinion label {top} is outside the engine's opinion "
                f"space of size {k}; construct the engine with the full "
                "num_opinions (auxiliary labels included)"
            )
        offsets = (np.arange(rows, dtype=np.int64) * k)[:, None]
        flat = opinions.astype(np.int64, copy=False) + offsets
        return np.bincount(
            flat.reshape(-1), minlength=rows * k
        ).reshape(rows, k)

    @property
    def counts(self) -> np.ndarray:
        """Per-replica count matrix ``(R, k)`` derived from opinions."""
        return self._counts_of(self.opinions)

    def _stopped(self, opinions: np.ndarray) -> np.ndarray:
        """Per-row stopping mask on an opinion matrix.

        Without a ``target``: the dynamics' agent-level consensus rule,
        gated by the column-subsample prefilter so the full row scan
        only runs on rows that could plausibly be uniform.  With a
        ``target``: the predicate is evaluated on the rows' count
        vectors (vectorised when it exposes ``batch``).
        """
        rows = opinions.shape[0]
        if self.target is not None:
            counts = self._counts_of(opinions)
            batch_predicate = getattr(self.target, "batch", None)
            if batch_predicate is not None:
                return np.asarray(batch_predicate(counts), dtype=bool)
            return np.fromiter(
                (bool(self.target(row)) for row in counts),
                dtype=bool,
                count=rows,
            )
        mask = np.zeros(rows, dtype=bool)
        probe = opinions[:, ::_PREFILTER_STRIDE] == opinions[:, :1]
        candidates = np.flatnonzero(probe.all(axis=1))
        if candidates.size:
            mask[candidates] = np.asarray(
                self.dynamics.consensus_mask_agents(opinions[candidates]),
                dtype=bool,
            )
        return mask

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance every unfinished replica one synchronous round.

        Frozen rows are excluded from sampling (and corruption) and
        keep their opinions; rows that hit the stopping rule this round
        — checked after the adversary's corruption, matching the
        sequential adversarial chain — record it and freeze.
        """
        active = np.flatnonzero(~self.frozen)
        self.round_index += 1
        if active.size == 0:
            if self.record_hook is not None:
                self.record_hook(
                    self.round_index, self.counts, self.frozen
                )
            return self.opinions
        all_active = active.size == self.num_replicas
        view = self.opinions if all_active else self.opinions[active]
        with use_backend(self.backend):
            new_rows = self.dynamics.agent_step_batch(
                view, self.graph, self.rng
            )
        if self.adversary is not None:
            self._apply_corruption(new_rows)
        if all_active:
            # Keep the engine's narrow label dtype even when a row-loop
            # fallback dynamics returns widened rows.
            self.opinions = np.ascontiguousarray(
                new_rows, dtype=self.opinions.dtype
            )
        else:
            self.opinions[active] = new_rows
        done = active[self._stopped(new_rows)]
        self.consensus_rounds[done] = self.round_index
        self.frozen[done] = True
        if self.record_hook is not None:
            self.record_hook(self.round_index, self.counts, self.frozen)
        return self.opinions

    def _apply_corruption(self, new_rows: np.ndarray) -> None:
        """Corrupt all active rows on the count level, lift onto vertices.

        The corruption itself is one vectorised ``corrupt_batch`` call
        (contract-checked row-wise); the lift loops only over rows the
        adversary actually touched, moving at most F vertices each.
        """
        counts = self._counts_of(new_rows)
        corrupted = self.adversary.corrupt_batch(counts.copy(), self.rng)
        corrupted = enforce_corruption_contract_batch(
            counts, corrupted, self.adversary.budget
        )
        delta = corrupted - counts
        for row in np.flatnonzero(delta.any(axis=1)):
            apply_count_delta(new_rows[row], delta[row], self.rng)

    def all_consensus(self) -> bool:
        """True once every replica has stopped."""
        return bool(self.frozen.all())

    def run_until_consensus(self, max_rounds: int) -> list[RunResult]:
        """Run until every replica froze or ``max_rounds`` rounds passed."""
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be non-negative, got {max_rounds}"
            )
        while not self.frozen.all() and self.round_index < max_rounds:
            self.step()
        return self.results()

    def results(self) -> list[RunResult]:
        """Per-replica results for the rounds executed so far.

        Winner reporting follows the dynamics' count-level consensus
        convention (``consensus_mask_batch``), exactly like the
        population batch engine — an Undecided-State row only reports a
        winner when a decided opinion holds everything.
        """
        counts = self.counts
        winners = counts.argmax(axis=1)
        at_consensus = np.asarray(
            self.dynamics.consensus_mask_batch(counts), dtype=bool
        )
        out: list[RunResult] = []
        for r in range(self.num_replicas):
            converged = bool(self.frozen[r])
            out.append(
                RunResult(
                    converged=converged,
                    rounds=int(self.consensus_rounds[r])
                    if converged
                    else self.round_index,
                    winner=int(winners[r])
                    if converged and at_consensus[r]
                    else None,
                    final_counts=counts[r].copy(),
                )
            )
        return out

    # ------------------------------------------------------------------
    # Inspection helpers (matrix-level views)
    # ------------------------------------------------------------------
    @property
    def alpha(self) -> np.ndarray:
        """Fractional populations, shape ``(R, k)``."""
        return self.counts / self.num_vertices

    @property
    def gamma(self) -> np.ndarray:
        """Per-replica ``gamma_t``, shape ``(R,)``."""
        a = self.alpha
        return np.einsum("rk,rk->r", a, a)

    @property
    def alive(self) -> np.ndarray:
        """Per-replica surviving-opinion counts, shape ``(R,)``."""
        return np.count_nonzero(self.counts, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        adv = (
            f", adversary={self.adversary!r}"
            if self.adversary is not None
            else ""
        )
        return (
            f"BatchAgentEngine({self.dynamics.name}, "
            f"graph={self.graph!r}, R={self.num_replicas}, "
            f"round={self.round_index}, "
            f"frozen={int(self.frozen.sum())}{adv})"
        )


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R graph replicas in one vectorised engine.

    Vertex identities are shuffled independently per replica row
    (``rng.permuted``), mirroring the sequential agent adapter — on
    non-complete graphs *which* vertices hold which opinion matters.
    Honors ``spec.on_budget`` like every other engine adapter.
    """
    dynamics = spec.resolved_dynamics()
    counts = spec.initial_counts()
    graph = spec.graph or CompleteGraph(spec.n)
    rng = as_generator(spec.seed)
    base = counts_to_agents(counts)
    opinions = rng.permuted(
        np.tile(base, (spec.replicas, 1)), axis=1
    )
    engine = BatchAgentEngine(
        dynamics,
        graph,
        opinions,
        num_opinions=spec.k,
        seed=rng,
        adversary=spec.resolved_adversary(),
        target=spec.target,
        backend=getattr(spec, "backend", None),
    )
    budget = spec.round_budget()
    results = engine.run_until_consensus(budget)
    if spec.on_budget == "raise":
        censored = sum(1 for result in results if not result.converged)
        if censored:
            raise ConsensusNotReached(
                budget,
                f"{censored} of {spec.replicas} replicas did not reach "
                f"consensus within {budget} rounds",
            )
    return results


register_engine(
    "agent-batch",
    _run_spec,
    description=(
        "R replicas of a graph chain as one (R, n) opinion matrix"
    ),
    supports_graph=True,
    supports_target=True,
    supports_observers=False,
    supports_adversary=True,
)
