"""Graph substrate interface.

The dynamics studied in the paper only ever interact with the underlying
graph through one primitive: *every vertex simultaneously samples one or
more uniformly-random neighbours (with replacement)*.  The
:class:`Graph` interface therefore exposes exactly that primitive, which
lets the complete graph (the paper's setting) special-case to a trivially
vectorised implementation while arbitrary graphs go through a CSR
adjacency structure.

The primitive is :meth:`Graph.sample_neighbors_batch`, which draws one
round of samples for R independent replicas sharing the substrate — the
sampling backbone of the ``agent-batch`` engine; one replica is
``num_replicas=1``.  Its output is sample-major,
``(samples_per_vertex, R, n)``, so each sample plane is one contiguous
matrix (the layout the vectorised ``agent_step_batch`` combiners consume
without strided access).

Self-loops matter: on the paper's "complete graph with self-loops",
choosing a random neighbour means choosing a uniformly random vertex
*including yourself*.  Graph constructors take an explicit ``self_loops``
flag so that both conventions are available.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import GraphError

__all__ = ["Graph", "AdjacencyGraph", "vertex_id_dtype"]


def vertex_id_dtype(num_vertices: int) -> np.dtype:
    """Narrowest practical dtype for vertex ids of an ``n``-vertex graph.

    Used by the batched samplers to keep neighbour-id tensors (the
    bandwidth hot spot of the ``agent-batch`` pipeline) as small as the
    vertex count allows; index arithmetic upcasts transparently.  An
    8-bit tier is deliberately absent — numpy's 8-bit bounded draws
    measure no faster than 16-bit ones, and graphs that small are not
    worth a branch.
    """
    if num_vertices <= 1 << 16:
        return np.dtype(np.uint16)
    if num_vertices <= 1 << 31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class Graph(abc.ABC):
    """A vertex set plus the neighbour-sampling primitive.

    Subclasses must set :attr:`num_vertices` and implement
    :meth:`sample_neighbors_batch`.
    """

    num_vertices: int

    @abc.abstractmethod
    def sample_neighbors_batch(
        self,
        rng: np.random.Generator,
        samples_per_vertex: int,
        num_replicas: int,
    ) -> np.ndarray:
        """Sample neighbours for every vertex of R independent replicas.

        Returns a ``(samples_per_vertex, num_replicas, num_vertices)``
        integer array: entry ``[j, r, v]`` is the ``j``-th i.i.d. uniform
        neighbour sample of vertex ``v`` in replica ``r``.  All entries
        are independent — replicas share the substrate, never the
        randomness.  The sample-major layout keeps each sample plane
        contiguous for the vectorised ``agent_step_batch`` combiners.

        The returned dtype is any integer type holding a vertex id
        (implementations narrow it for cache friendliness); downstream
        index arithmetic upcasts as needed.  This is each graph's one
        neighbour sampler: there is no row-loop fallback, and
        :class:`AdjacencyGraph` and
        :class:`~repro.graphs.complete.CompleteGraph` each draw the
        whole tensor in one vectorised pass.
        """

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency export: ``(indptr, indices)``.

        Row ``v`` of the adjacency list is
        ``indices[indptr[v]:indptr[v+1]]``.  :class:`AdjacencyGraph`
        returns its own arrays (no copy); the complete graph materialises
        the dense structure (O(n^2) memory — intended for tests and
        small-n interop, not for large complete substrates).  Graphs
        without an adjacency representation raise
        :class:`~repro.errors.GraphError`.
        """
        raise GraphError(
            f"{type(self).__name__} does not expose a CSR adjacency "
            "structure"
        )

    @property
    def is_complete_with_self_loops(self) -> bool:
        """True only for the paper's canonical substrate.

        The population (count-vector) engine is exact precisely on this
        substrate; engines consult this flag to decide whether the count
        representation is sufficient.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.num_vertices})"


class AdjacencyGraph(Graph):
    """A general (di)graph stored in CSR form with O(1) neighbour sampling.

    Parameters
    ----------
    indptr, indices:
        Standard CSR row-pointer and column-index arrays.  Row ``v`` of the
        adjacency list is ``indices[indptr[v]:indptr[v+1]]``.  Multi-edges
        are allowed and weight the sampling accordingly.
    name:
        Optional label used in reprs and experiment tables.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        name: str | None = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size < 2:
            raise GraphError("indptr must be 1-D with at least two entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise GraphError("indptr is inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        self.num_vertices = self.indptr.size - 1
        self.degrees = np.diff(self.indptr)
        if (self.degrees == 0).any():
            isolated = int(np.flatnonzero(self.degrees == 0)[0])
            raise GraphError(
                f"vertex {isolated} has no neighbours; consensus dynamics "
                "require every vertex to be able to sample a neighbour "
                "(add self-loops or remove isolated vertices)"
            )
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise GraphError("indices reference vertices outside the graph")
        self.name = name or "adjacency"
        # Lazy caches for the batched sampler: a narrow-dtype copy of the
        # adjacency list (halves/quarters gather bandwidth) and the
        # constant degree when the graph is regular (enables the
        # scalar-bound offset draw, ~5x cheaper per sample than numpy's
        # per-vertex-bound path).  Built on first batch call; irregular
        # graphs never pay for the copy (their sampler cannot use it).
        self._batch_indices: np.ndarray | None = None
        self._constant_degree: int | None = None
        self._degree_scanned = False

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray,
        directed: bool = False,
        self_loops: bool = False,
        name: str | None = None,
    ) -> "AdjacencyGraph":
        """Build from an ``(m, 2)`` edge array.

        Undirected edges are symmetrised.  ``self_loops=True`` appends one
        self-loop per vertex (the paper's convention).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src, dst = edges[:, 0], edges[:, 1]
        if not directed:
            src, dst = (
                np.concatenate([src, dst]),
                np.concatenate([dst, src]),
            )
        if self_loops:
            loops = np.arange(num_vertices, dtype=np.int64)
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, name=name)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The graph's own ``(indptr, indices)`` arrays (no copy)."""
        return self.indptr, self.indices

    def csr_kernel_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` in the layout compiled kernels expect.

        The capability hook behind
        :func:`repro.core.base.sample_and_gather_neighbor_opinions_batch`:
        a graph that exposes this method opts its adjacency into the
        fused backend ``csr_sample_gather`` kernel.  Both arrays are
        C-contiguous int64 (``__init__`` coerces them), so every graph
        shares one compiled kernel signature.  Graphs whose sampling is
        closed-form rather than table-driven (the complete graph)
        simply do not define it and keep their NumPy fast path.
        """
        return self.indptr, self.indices

    def _batch_sampling_tables(
        self,
    ) -> tuple[np.ndarray | None, int | None]:
        """(Once) scan for a constant degree; build the narrow copy.

        Returns ``(indices, degree)`` — both ``None``-free only for
        regular graphs; irregular graphs get ``(None, None)`` and skip
        the narrow adjacency copy entirely, since their sampler indexes
        the original arrays.
        """
        if not self._degree_scanned:
            low, high = int(self.degrees.min()), int(self.degrees.max())
            self._constant_degree = high if low == high else None
            self._degree_scanned = True
        if self._constant_degree is None:
            return None, None
        if self._batch_indices is None:
            self._batch_indices = self.indices.astype(
                vertex_id_dtype(self.num_vertices)
            )
        return self._batch_indices, self._constant_degree

    def _uniform_offsets_batch(
        self, rng: np.random.Generator, degree: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Exact uniform draws from ``[0, degree)`` for a regular graph.

        A power-of-two degree is served from the raw bit stream: one
        ``uint64`` draw yields eight (``degree <= 256``) or four masked
        offsets, which is several times cheaper per sample than numpy's
        bounded-integer path and still exactly uniform (masking uniform
        bits is bias-free only because the bound divides the bit-range —
        hence the power-of-two gate).  Other degrees use the scalar-bound
        Lemire path, still well ahead of the per-vertex-bound draw an
        irregular graph needs.
        """
        total = int(np.prod(shape))
        if degree & (degree - 1) == 0 and degree <= 1 << 16:
            view_dtype = np.uint8 if degree <= 1 << 8 else np.uint16
            per_word = 8 if view_dtype is np.uint8 else 4
            words = (total + per_word - 1) // per_word
            raw = rng.integers(
                0, 1 << 64, size=words, dtype=np.uint64
            ).view(view_dtype)[:total]
            np.bitwise_and(raw, degree - 1, out=raw)
            return raw.reshape(shape)
        dtype = np.uint16 if degree <= 1 << 16 else np.int64
        return rng.integers(0, degree, size=shape, dtype=dtype)

    def sample_neighbors_batch(
        self,
        rng: np.random.Generator,
        samples_per_vertex: int,
        num_replicas: int,
    ) -> np.ndarray:
        """One vectorised pass for all R replicas (see :class:`Graph`).

        Regular graphs draw every offset with one scalar-bound (or, for
        power-of-two degrees, raw-bit-masked) call and resolve them
        through the CSR arrays with bounds-check-free ``np.take`` — the
        positions are in range by construction (``offset < degree`` and
        ``indptr[v] + degree <= indptr[v + 1]``).  Irregular graphs use
        numpy's per-vertex-bound draw, each vertex's degree broadcast
        over the sample and replica axes.
        """
        shape = (samples_per_vertex, num_replicas, self.num_vertices)
        indices, degree = self._batch_sampling_tables()
        if degree is not None:
            offsets = self._uniform_offsets_batch(rng, degree, shape)
            positions = np.add(
                self.indptr[:-1], offsets, casting="unsafe"
            )
            return np.take(indices, positions, mode="clip")
        offsets = rng.integers(0, self.degrees, size=shape)
        return self.indices[self.indptr[:-1] + offsets]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdjacencyGraph(name={self.name!r}, n={self.num_vertices}, "
            f"edges={self.indices.size})"
        )
