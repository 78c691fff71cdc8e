"""Vectorised batch-replica engine for graph substrates.

The per-vertex chain on an arbitrary :class:`~repro.graphs.base.Graph`:
this engine advances R replicas of per-vertex opinions on one shared
graph as an ``(R, n)`` integer matrix, stepping every *unfinished*
replica with a single call to the dynamics' ``agent_step_batch``.  The
base class derives that step, once for every dynamics, from the
dynamics' ``vertex_update``: one batched neighbour-sampling pass
(:meth:`~repro.graphs.base.Graph.sample_neighbors_batch`) plus one
fused opinion gather per sample plane, then the rule applied to the
sample planes; there is no row loop.
``benchmarks/bench_agent_batch.py`` guards the steps' wall time.

It is the only engine of the graph chain: ``agent-batch`` and ``agent``
are two registry names of one adapter, and a lone chain is the engine
with ``num_replicas=1``.  All rows share one generator, so replica
``i``'s realisation depends on R.  The tests check the one-step law on
small graphs, and the consensus-round law on the complete graph,
against exact oracles (``tests/test_exact_distributions.py``).

The replica bookkeeping — frozen rows, the adversary contract,
``target``, ``record_hook``, results and the ``on_budget`` tail — is the
shared run loop of :class:`~repro.engine.batch.BatchPopulationEngine`,
which this engine subclasses.  What the graph chain changes:

* **State** — an ``(R, n)`` opinion matrix in the narrowest integer dtype
  holding the labels; count vectors are built only when something needs
  them (an adversary, a ``target`` predicate, ``record_hook`` or the
  results).
* **Stopping** — detected on the opinion matrix itself via a cheap
  column-subsample prefilter (a necessary condition for row uniformity)
  followed by the dynamics' exact ``consensus_mask_agents`` on the few
  candidate rows.
* **Corruption** — adversaries act on count vectors ([GL18] population
  model); each row's corruption is lifted back onto vertices:
  uniformly random holders of each losing opinion are reassigned to the
  gaining opinions (:func:`apply_count_delta`).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.adversary.base import Adversary, apply_count_delta
from repro.core.base import Dynamics
from repro.engine.batch import (
    BatchPopulationEngine,
    build_replica_matrix,
    run_to_budget,
)
from repro.engine.registry import register_engine
from repro.engine.runner import RunResult
from repro.errors import ConfigurationError, StateError
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


class BatchAgentEngine(BatchPopulationEngine):
    """Advance R replicas of a graph chain as one opinion matrix.

    :class:`~repro.engine.batch.BatchPopulationEngine`'s run loop over
    an ``(R, n)`` opinion matrix: the step is ``agent_step_batch``,
    stopping uses the column prefilter plus ``consensus_mask_agents``,
    and corruptions are lifted onto vertices.

    Parameters
    ----------
    graph:
        Shared substrate; ``graph.num_vertices`` must match the opinion
        row length.
    opinions:
        Either a length-``n`` opinion vector shared by every replica, or
        an ``(R, n)`` matrix giving each replica its own start (the
        registry adapter shuffles vertex identities per row, which
        matters on non-complete graphs).
    num_opinions:
        Size of the opinion space ``k``.  Announced to the dynamics via
        ``bind_opinion_space`` when given (the Undecided-State label
        convention needs it), defaulted from the labels otherwise.
    dynamics, num_replicas, seed, adversary, target, backend, record_hook:
        As for :class:`~repro.engine.batch.BatchPopulationEngine`.
        Every dynamics steps all rows in one vectorised
        ``agent_step_batch``, derived from its ``vertex_update``.
        ``target``, the adversary and ``record_hook`` all see the
        per-replica *count* vectors derived from the opinion matrix —
        the population-level contract every recorder shares.

    Attributes
    ----------
    opinions:
        The ``(R, n)`` opinion matrix (owned by the engine; narrow
        integer dtype).
    counts:
        The ``(R, k)`` count matrix, derived from ``opinions``.
    frozen, consensus_rounds, round_index:
        As on :class:`~repro.engine.batch.BatchPopulationEngine`.
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
        self.graph = graph
        # The caller's opinion space (or None); _start_matrix settles it.
        self.num_opinions = num_opinions
        super().__init__(
            dynamics,
            opinions,
            num_replicas,
            seed,
            adversary,
            target,
            backend,
            record_hook,
        )

    def _start_matrix(
        self, opinions: np.ndarray, num_replicas: int | None
    ) -> np.ndarray:
        """The validated ``(R, n)`` start in the narrowest label dtype."""
        declared = self.num_opinions
        matrix = build_replica_matrix(
            opinions,
            num_replicas,
            lambda row: validate_agents(row, k=declared),
            name="opinions",
        )
        if matrix.shape[1] != self.graph.num_vertices:
            raise ConfigurationError(
                f"got {matrix.shape[1]} opinions per replica for a graph "
                f"with {self.graph.num_vertices} vertices"
            )
        self.num_vertices = int(matrix.shape[1])
        # Only a caller-stated opinion space is bound (a label-maximum
        # fallback would mislead e.g. Undecided-State on fully decided
        # starts).
        if declared is None:
            self.num_opinions = int(matrix.max()) + 1
        else:
            self.num_opinions = int(declared)
            self.dynamics.bind_opinion_space(self.num_opinions)
        return np.ascontiguousarray(
            matrix, dtype=_label_dtype(self.num_opinions)
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
        ``num_opinions``) fails loudly here.
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
        return self._counts_of(self._matrix)

    @property
    def opinions(self) -> np.ndarray:
        """The ``(R, n)`` opinion matrix (owned by the engine)."""
        return self._matrix

    # ------------------------------------------------------------------
    # The graph chain's hooks into the shared run loop
    # ------------------------------------------------------------------
    def _advance(self, active: np.ndarray) -> np.ndarray:
        """One ``agent_step_batch`` of the active rows.  The base
        ``_store`` keeps the engine's narrow label dtype even when a
        third-party dynamics returns widened rows."""
        return self.dynamics.agent_step_batch(
            self._active_rows(active), self.graph, self.rng
        )

    def _stopped(self, opinions: np.ndarray) -> np.ndarray:
        """Per-row stopping mask on an opinion matrix.

        Without a ``target``: the dynamics' agent-level consensus rule,
        gated by the column-subsample prefilter so the full row scan
        only runs on rows that could plausibly be uniform.  With a
        ``target``: the predicate on the rows' count vectors.
        """
        if self.target is not None:
            return super()._stopped(self._counts_of(opinions))
        mask = np.zeros(opinions.shape[0], dtype=bool)
        probe = opinions[:, ::_PREFILTER_STRIDE] == opinions[:, :1]
        candidates = np.flatnonzero(probe.all(axis=1))
        if candidates.size:
            mask[candidates] = np.asarray(
                self.dynamics.consensus_mask_agents(opinions[candidates]),
                dtype=bool,
            )
        return mask

    def _corrupt(self, new_rows: np.ndarray) -> np.ndarray:
        """Corrupt the rows' count vectors, then lift onto vertices.

        The corruption is the shared contract-checked ``corrupt_batch``
        call; the lift loops only over rows the adversary actually
        touched, moving at most F vertices each.
        """
        counts = self._counts_of(new_rows)
        delta = super()._corrupt(counts) - counts
        for row in np.flatnonzero(delta.any(axis=1)):
            apply_count_delta(new_rows[row], delta[row], self.rng)
        return new_rows


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: all R graph replicas in one vectorised engine.

    Vertex identities are shuffled independently per replica row
    (``rng.permuted``) — on non-complete graphs *which* vertices hold
    which opinion matters.
    """
    dynamics = spec.resolved_dynamics()
    counts = spec.initial_counts()
    graph = spec.graph or CompleteGraph(spec.n)
    rng = as_generator(spec.seed)
    opinions = rng.permuted(
        np.tile(counts_to_agents(counts), (spec.replicas, 1)), axis=1
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
    return run_to_budget(engine, spec)


_CAPABILITIES = dict(
    supports_graph=True, supports_target=True, supports_adversary=True
)

register_engine(
    "agent-batch",
    _run_spec,
    description=(
        "R replicas of a graph chain as one (R, n) opinion matrix"
    ),
    **_CAPABILITIES,
)
# The graph chain's own name runs the same engine.
register_engine(
    "agent",
    _run_spec,
    description=(
        "per-vertex chain on an arbitrary graph substrate; another "
        "name for agent-batch"
    ),
    **_CAPABILITIES,
)
