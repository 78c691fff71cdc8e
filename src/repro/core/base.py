"""Dynamics interface.

A *dynamics* (paper Definition 3.1) is the per-round update rule of a
synchronous consensus process.  Every dynamics in this library states
two things, and the base class derives everything else from them:

``population_step_batch``
    The exact count-vector transition on the complete graph with
    self-loops, for R independent replicas stored as the rows of an
    ``(R, k)`` count matrix.  Because vertices there are exchangeable and
    update independently given the round-(t-1) configuration, the count
    vector is a sufficient statistic and one round can be sampled
    *exactly* from closed-form per-vertex laws (paper eqs. (5) and (6)) —
    typically a handful of batched multinomial draws for all rows,
    independent of ``n``.  This is what makes ``n = 10^7`` experiments
    laptop-feasible.  It is the only implementation of the synchronous
    count chain: :meth:`Dynamics.population_step`, the single-vector
    step, is derived from it as the batch step on a one-row matrix.

``vertex_update``
    The per-vertex rule itself: the next opinions of updating vertices
    given their own opinions and their ``samples_per_round`` sampled
    neighbours' opinions, applied element-wise to whole arrays.  The
    two per-vertex chains are derived from it here, once:

    ``agent_step_batch``
        The per-vertex transition on an arbitrary
        :class:`~repro.graphs.base.Graph`, for R independent replicas
        stored as the rows of an ``(R, n)`` opinion matrix: every
        vertex samples its neighbours and applies the rule.  O(n) per
        row and round, but the only option off the complete graph.  On
        the complete graph it has the law of ``population_step_batch``
        (the tests check both against one exact oracle).  A lone chain
        is the one-row matrix ``opinions[None]``.

    ``async_population_step_batch``
        One tick of the asynchronous variant ([CMRSS25]) for R replicas
        stored as the rows of an ``(R, k)`` count matrix: in every row a
        single uniformly random vertex applies the rule to uniformly
        random vertices' opinions.  ``n`` async ticks correspond to one
        synchronous round.  A lone chain is the one-row matrix
        ``counts[None]``.

Subclasses additionally expose ``expected_alpha_next`` so that the theory
module and tests can check the one-step mean formulas of Lemma 4.1 against
Monte-Carlo estimates.

Compute backends
----------------
The measured hot loops in this module (``sample_holders_batch`` and the
fused neighbour sample+gather helper) consult
:func:`repro.backends.active_backend` for a named kernel before running
their inline NumPy code.  The inline code *is* the ``numpy`` backend —
the reference implementation every accelerated kernel is tested
against — so dispatch falls through to it whenever the active backend
does not accelerate the kernel in question.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.backends import active_backend, backend_kernel, quarantine_kernel
from repro.state import validate_counts
from repro.errors import StateError
from repro.graphs.base import Graph

__all__ = [
    "BATCH_ELEMENT_BUDGET",
    "Dynamics",
    "batch_binomial",
    "batch_multinomial_counts",
    "gather_neighbor_opinions_batch",
    "iter_row_chunks",
    "sample_and_gather_neighbor_opinions_batch",
    "sample_holders_batch",
    "sample_opinions_from_counts_batch",
]

#: Default per-call scratch budget (array *elements*, not bytes) for the
#: batched steps whose intermediates scale with more than ``R * k`` —
#: the agent-level samplers' ``(R, s*n)`` neighbour planes, h-Majority's
#: ``(R, ~h^3 k / 4)`` product-tree law scratch and the Median rule's
#: ``(R, k, k)`` group-law tensor or its per-vertex neighbour draws.
#: Dynamics chunk their replica rows so no *single* scratch array
#: outgrows the budget (see :func:`iter_row_chunks`); a handful of
#: budget-shaped temporaries coexist per chunk (sample labels, tree
#: levels, law copies), so size the knob for peak memory at a few times
#: the budget in bytes.  The
#: default of 2**22 elements (~32 MiB at int64) also keeps the per-chunk
#: working set near cache-resident — measured on a bandwidth-bound
#: counting pass, per-element cost is flat up to ~4M elements and
#: roughly quadruples by 16M, so bigger is not faster.  Override per
#: instance via ``Dynamics.batch_element_budget``.
BATCH_ELEMENT_BUDGET = 1 << 22


def batch_multinomial_counts(
    n: np.ndarray,
    probabilities: np.ndarray,
    rng: np.random.Generator,
    dynamics: str = "",
) -> np.ndarray:
    """Row-wise ``Multinomial(n[r], probabilities[r])`` for R replicas.

    ``n`` has shape ``(R,)`` and ``probabilities`` shape ``(R, k)``; one
    vectorised call samples all R rows (numpy broadcasts ``n`` against the
    leading axes of the probability matrix).  Floating-point round-off can
    leave a row summing to ``1 ± 1e-16``, and numpy's ``multinomial``
    rejects sums above 1, so rows are renormalised.  A row materially off
    1 indicates a bug in the caller's transition law and raises a
    :class:`~repro.errors.StateError` naming the offending row, the
    matrix shape and the dynamics.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    totals = p.sum(axis=-1)
    bad = ~((totals > 0.999999) & (totals < 1.000001))
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise StateError(
            f"transition probabilities in replica row {row} sum to "
            f"{totals[row]!r}, expected 1 (probability matrix shape "
            f"{p.shape}" + (f", dynamics {dynamics!r})" if dynamics else ")")
        )
    return rng.multinomial(
        np.asarray(n), p / totals[..., None]
    ).astype(np.int64)


def batch_binomial(
    counts: np.ndarray,
    probabilities: np.ndarray,
    rng: np.random.Generator,
    dynamics: str = "",
) -> np.ndarray:
    """Element-wise ``Binomial(counts, probabilities)`` with defensive clipping.

    The batched counterpart of ``rng.binomial`` for transition laws built
    from count ratios: probabilities like ``alpha_i + alpha_u`` can land a
    few ulp outside ``[0, 1]`` (numpy's binomial rejects them outright),
    so values within round-off of the boundary are clipped.  A probability
    materially outside ``[0, 1]`` indicates a bug in the caller's law and
    raises a :class:`~repro.errors.StateError` naming the dynamics.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    bad = (p < -1e-6) | (p > 1.000001)
    if bad.any():
        flat = int(np.flatnonzero(bad.ravel())[0])
        raise StateError(
            f"binomial probability {p.ravel()[flat]!r} at flat index "
            f"{flat} lies outside [0, 1] (probability array shape "
            f"{p.shape}" + (f", dynamics {dynamics!r})" if dynamics else ")")
        )
    return rng.binomial(
        np.asarray(counts), np.clip(p, 0.0, 1.0)
    ).astype(np.int64)


def iter_row_chunks(num_rows: int, elements_per_row: int, element_budget: int):
    """Yield ``(start, stop)`` row slices under a scratch-element budget.

    Shared memory guard for the batched samplers: a dynamics whose batch
    step's *dominant* scratch array holds ``elements_per_row`` elements
    per replica row processes at most ``element_budget //
    elements_per_row`` rows per vectorised call (always at least one, so
    a single huge row still runs — the guard bounds *width*, it never
    refuses work).
    """
    rows_per_chunk = max(1, element_budget // max(1, elements_per_row))
    for start in range(0, num_rows, rows_per_chunk):
        yield start, min(start + rows_per_chunk, num_rows)


def sample_opinions_from_counts_batch(
    counts: np.ndarray,
    num_samples: int,
    rng: np.random.Generator,
    dtype: np.dtype | type = np.int64,
) -> np.ndarray:
    """Row-wise i.i.d. opinion samples over an ``(R, k)`` count matrix.

    Returns an ``(R, num_samples)`` matrix whose row ``r`` holds i.i.d.
    draws from ``counts[r] / counts[r].sum()`` (on the complete graph with
    self-loops, the opinions of uniformly random neighbours), with no
    per-row Python loop.  Exploits exchangeability: per row, the *multiset*
    of sampled opinions is one multinomial draw; laying it out as label
    blocks and shuffling within the row (``rng.permuted``) recovers an
    i.i.d. sequence, because a uniformly random arrangement of a
    multinomially drawn multiset has exactly the i.i.d. law.

    ``dtype`` sets the label dtype (default int64); the shuffle is
    bandwidth-bound, so bulk callers that can live with int32 labels
    (any ``k < 2**31``) save real time by narrowing it.  Keep total
    call size near :data:`BATCH_ELEMENT_BUDGET` elements — the per-row
    shuffle is cache-resident there and several times slower per
    element on far larger calls.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_rows, k = counts.shape
    totals = counts.sum(axis=1)
    alpha = counts / totals[:, None]
    per_label = batch_multinomial_counts(
        np.full(num_rows, num_samples), alpha, rng
    )
    labels = np.repeat(
        np.tile(np.arange(k, dtype=dtype), num_rows),
        per_label.reshape(-1),
    )
    return rng.permuted(labels.reshape(num_rows, num_samples), axis=1)


def sample_holders_batch(
    counts: np.ndarray,
    num_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Opinions of uniformly random vertices, one draw set per row.

    Returns an ``(R, num_samples)`` label matrix whose row ``r`` holds
    i.i.d. opinions of uniformly random vertices of replica ``r`` — the
    few-samples counterpart of :func:`sample_opinions_from_counts_batch`
    used by the per-tick asynchronous batch steps, where each row needs
    only a handful of draws and a multinomial + shuffle would be
    overkill.

    Sampling is integer-exact (inverse CDF over the *integer* cumulative
    counts): a label with count 0 has an empty cdf step and can never be
    selected, so draws meant to pick an existing vertex (e.g. the
    updating vertex of an asynchronous tick) never land on a dead
    opinion — which matters, because decrementing a zero count would
    corrupt the configuration.

    Accelerated by the active backend's ``sample_holders`` kernel when
    one is registered (bitwise-identical: the bounded draws come from
    the same ``Generator`` call either way).
    """
    counts = np.asarray(counts, dtype=np.int64)
    kernel = backend_kernel("sample_holders")
    if kernel is not None:
        try:
            return kernel(counts, num_samples, rng)
        except Exception as exc:
            # A kernel dying at runtime degrades to the reference path
            # below instead of killing the run (warns once, and the
            # kernel stays quarantined for the rest of the process).
            quarantine_kernel(active_backend(), "sample_holders", exc)
    cdf = counts.cumsum(axis=1)
    u = rng.integers(
        0, cdf[:, -1:], size=(counts.shape[0], num_samples)
    )
    # searchsorted(cdf, u, side="right") per row, vectorised: label j is
    # selected iff cdf[j-1] <= u < cdf[j], i.e. exactly u falls in j's
    # block of the 0..n-1 vertex range.
    return (cdf[:, None, :] <= u[:, :, None]).sum(axis=2)


def gather_neighbor_opinions_batch(
    opinions: np.ndarray,
    neighbor_ids: np.ndarray,
) -> np.ndarray:
    """Look up sampled neighbours' opinions across R replica rows.

    ``opinions`` is a C-contiguous ``(R, n)`` opinion matrix and
    ``neighbor_ids`` a ``(samples, R, n)`` tensor of vertex ids (the
    layout produced by :meth:`repro.graphs.base.Graph.
    sample_neighbors_batch`).  Returns the ``(samples, R, n)`` tensor of
    the corresponding opinions, in ``opinions``' dtype — the gather
    behind :meth:`Dynamics.agent_step_batch`.

    Implementation note: each replica row is offset into the flattened
    opinion matrix and resolved with a single bounds-check-free
    ``np.take`` (ids are valid vertex indices by construction, so
    ``mode="clip"`` never clips); one fused take measures several times
    faster than per-sample fancy indexing.
    """
    num_rows, n = opinions.shape
    row_base = (np.arange(num_rows, dtype=np.intp) * n)[:, None]
    flat_index = np.add(neighbor_ids, row_base, casting="unsafe")
    return np.take(opinions.reshape(-1), flat_index, mode="clip")


def sample_and_gather_neighbor_opinions_batch(
    opinions: np.ndarray,
    graph: Graph,
    num_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled neighbours' opinions for every vertex of every replica.

    The fused front half of :meth:`Dynamics.agent_step_batch`:
    equivalent to ``graph.sample_neighbors_batch(rng, num_samples,
    rows)`` followed by :func:`gather_neighbor_opinions_batch`, returning
    the ``(num_samples, rows, n)`` opinion tensor directly.

    When the active backend provides a ``csr_sample_gather`` kernel and
    the graph exposes CSR kernel tables (see
    :meth:`repro.graphs.base.AdjacencyGraph.csr_kernel_tables`), the
    sample and the gather run as one compiled pass that never
    materialises the ``(num_samples, rows, n)`` *index* tensor — the
    measured agent-batch hot loop.  Otherwise it falls through to the
    two-step reference path, so graphs without CSR tables (e.g. the
    closed-form complete graph) and the ``numpy`` backend are
    unaffected.  The accelerated path consumes a different raw RNG
    stream, so it matches the reference in distribution, not bitwise.
    """
    opinions = np.ascontiguousarray(opinions)
    kernel = backend_kernel("csr_sample_gather")
    if kernel is not None:
        tables = getattr(graph, "csr_kernel_tables", None)
        if tables is not None:
            indptr, indices = tables()
            try:
                return kernel(indptr, indices, opinions, num_samples, rng)
            except Exception as exc:
                quarantine_kernel(
                    active_backend(), "csr_sample_gather", exc
                )
    ids = graph.sample_neighbors_batch(rng, num_samples, opinions.shape[0])
    return gather_neighbor_opinions_batch(opinions, ids)


class Dynamics(abc.ABC):
    """Abstract synchronous consensus dynamics."""

    #: Short machine name used by the registry and experiment tables.
    name: str = "abstract"

    #: Number of neighbour samples each vertex draws per synchronous round
    #: (3 for 3-Majority, 2 for 2-Choices, h for h-Majority, 1 for Voter).
    samples_per_round: int = 0

    #: Scratch-element budget consulted by batch steps whose intermediates
    #: outgrow ``R * k`` (agent-level samplers, h-Majority, Median); see
    #: :data:`BATCH_ELEMENT_BUDGET` and :func:`iter_row_chunks`.  Set it
    #: on an instance to override it for that instance.
    batch_element_budget: int = BATCH_ELEMENT_BUDGET

    # ------------------------------------------------------------------
    # Exact population-level chain (complete graph with self-loops)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance R independent replicas one round each.

        ``counts`` is an ``(R, k)`` int64 matrix, one replica per row;
        the result is a fresh matrix of the same shape with every row's
        mass conserved.  This is the one implementation of each
        dynamics' synchronous count chain: there is no row-loop
        fallback, so a dynamics (third-party ones included) must define
        it, and :meth:`population_step` derives the single-vector step
        from it.  Every catalogued dynamics samples all rows in a few
        vectorised calls (its module and method docstrings say how),
        which is what makes
        :class:`~repro.engine.batch.BatchPopulationEngine` fast
        (``benchmarks/bench_batch_dynamics.py`` guards the overrides and
        tracks the per-dynamics speedups).
        """

    def population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample the next count vector exactly.

        The batch step on a one-row matrix: ``counts`` is a validated
        count vector, and the result is a fresh int64 vector of the same
        length and total mass.
        """
        counts = np.asarray(counts, dtype=np.int64)
        return self.population_step_batch(counts[None, :], rng)[0]

    def consensus_mask_batch(self, counts: np.ndarray) -> np.ndarray:
        """Per-row consensus indicator over an ``(R, k)`` count matrix.

        The default — one opinion holds a row's entire mass — is right
        for every dynamics whose labels are all ordinary opinions.
        Dynamics with auxiliary labels override it: Undecided-State only
        counts a *decided* opinion holding everything.  The engines' run
        loops consult this (one count vector is the one-row matrix
        ``counts[None]``), so the label convention travels with the
        dynamics across every engine.
        """
        counts = np.asarray(counts)
        return counts.max(axis=1) == counts.sum(axis=1)

    # ------------------------------------------------------------------
    # The per-vertex rule, and the two chains derived from it
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def vertex_update(
        self,
        own: np.ndarray,
        seen: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Next opinions of updating vertices: the dynamics' rule.

        ``own`` holds the updating vertices' current opinions, in any
        shape.  ``seen`` holds their ``samples_per_round`` sampled
        neighbours' opinions stacked on a leading axis, so ``seen[j]``
        has ``own``'s shape.  The result is the vertices' next opinions,
        in ``own``'s shape.  Each vertex's samples are independent
        uniform draws from its neighbourhood, so the rule must act on
        each vertex's own entries only, vectorised over whole arrays.

        This is the one statement of each dynamics' per-vertex rule: a
        dynamics (third-party ones included) must define it, and
        :meth:`agent_step_batch` and :meth:`async_population_step_batch`
        apply it to the graph and asynchronous chains.
        """

    def bind_opinion_space(self, num_opinions: int) -> None:
        """Hook: an engine announces its opinion-space size before running.

        Most dynamics need nothing beyond the labels they see and ignore
        this.  Dynamics whose semantics depend on the label layout
        override it — Undecided-State derives its undecided label
        (``num_opinions - 1``) here, so a fully decided start is
        interpreted correctly.
        :class:`~repro.engine.agent_batch.BatchAgentEngine` calls this
        at construction when given ``num_opinions``, and
        :class:`~repro.engine.async_batch.AsyncBatchPopulationEngine`
        with its count vectors' length.
        """

    def agent_step_batch(
        self,
        opinions: np.ndarray,
        graph: Graph,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Advance R replicas of the agent-level chain one round each.

        ``opinions`` is an ``(R, n)`` integer matrix, one replica of
        per-vertex opinions per row, all sharing ``graph``; the result
        has the same shape and dtype.  Rows are chunked with
        :func:`iter_row_chunks` so the ``(samples, rows, n)`` neighbour
        scratch stays under ``batch_element_budget`` elements (chunking
        changes how the raw stream is consumed, never the sampled law).
        Each chunk draws every vertex's neighbour samples with one
        :func:`sample_and_gather_neighbor_opinions_batch` call and
        applies :meth:`vertex_update` to the sample planes.  This is
        the one implementation of the graph chain, and the step of
        :class:`~repro.engine.agent_batch.BatchAgentEngine`
        (``benchmarks/bench_agent_batch.py`` tracks its wall time).
        """
        opinions = np.ascontiguousarray(opinions)
        num_rows, n = opinions.shape
        samples = self.samples_per_round
        out = np.empty_like(opinions)
        for start, stop in iter_row_chunks(
            num_rows, samples * n, self.batch_element_budget
        ):
            block = opinions[start:stop]
            seen = sample_and_gather_neighbor_opinions_batch(
                block, graph, samples, rng
            )
            out[start:stop] = self.vertex_update(block, seen, rng)
        return out

    def consensus_mask_agents(self, opinions: np.ndarray) -> np.ndarray:
        """Per-row consensus indicator over an ``(R, n)`` opinion matrix.

        Agent-level counterpart of :meth:`consensus_mask_batch`, used by
        the batched graph engine so the label convention travels with
        the dynamics without materialising count vectors every round.
        The default — all vertices share one label — matches the generic
        count-level rule; Undecided-State overrides it (a row uniform on
        the undecided label is absorbing but *not* consensus).
        """
        opinions = np.asarray(opinions)
        return (opinions == opinions[:, :1]).all(axis=1)

    def async_population_step_batch(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One asynchronous tick for each of R independent replicas.

        ``counts`` is an ``(R, k)`` int64 matrix, one replica per row.
        In every row, :func:`sample_holders_batch` draws ``1 +
        samples_per_round`` uniformly random vertices' opinions
        (integer-exact, so a dead label is never drawn): the first is
        the updating vertex, the rest are its neighbours on the
        complete graph with self-loops.  :meth:`vertex_update` gives its
        next opinion, and one unit moves per row.  The matrix is updated
        in place and returned.  This is the one implementation of the
        asynchronous chain, and the per-tick step of
        :class:`~repro.engine.async_batch.AsyncBatchPopulationEngine`.
        """
        counts = np.asarray(counts, dtype=np.int64)
        draws = sample_holders_batch(counts, 1 + self.samples_per_round, rng)
        old = draws[:, 0]
        new = self.vertex_update(old, draws[:, 1:].T, rng)
        rows = np.arange(counts.shape[0])
        counts[rows, old] -= 1
        counts[rows, new] += 1
        return counts

    def single_vertex_law(
        self, alpha: np.ndarray, current_opinion: int
    ) -> np.ndarray:
        """Distribution of one vertex's next opinion given ``alpha``.

        Subclasses for which the law has a closed form (eqs. (5), (6))
        override this; the base class refuses so that dynamics without a
        closed form fail loudly rather than silently approximating.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a closed-form "
            "single-vertex law"
        )

    # ------------------------------------------------------------------
    # Theory hooks
    # ------------------------------------------------------------------
    def expected_alpha_next(self, alpha: np.ndarray) -> np.ndarray:
        """``E[alpha_t | alpha_{t-1}]`` where available (Lemma 4.1(i)).

        Both 3-Majority and 2-Choices share the closed form
        ``alpha * (1 + alpha - gamma)``; other dynamics override or
        inherit this default NotImplementedError.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define expected_alpha_next"
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def validated_population_step(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Population step with input/output validation (slow path).

        The engines validate once up front and then call
        :meth:`population_step` directly; this wrapper exists for ad-hoc
        interactive use.
        """
        checked = validate_counts(counts)
        result = self.population_step(checked, rng)
        return validate_counts(result, n=int(checked.sum()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
