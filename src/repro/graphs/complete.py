"""The complete graph, with and without self-loops.

The paper's canonical substrate is the complete graph *with* self-loops:
"choosing a random neighbour corresponds to choosing a vertex uniformly at
random" (Section 1).  Sampling is then a single ``rng.integers`` call,
independent of the adjacency structure.

The no-self-loop variant (sample uniformly among the other ``n - 1``
vertices) is provided for robustness studies; for large ``n`` the two are
statistically indistinguishable, and tests verify exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.base import Graph, vertex_id_dtype

__all__ = ["CompleteGraph"]


class CompleteGraph(Graph):
    """Complete graph on ``n`` vertices.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n >= 1``.
    self_loops:
        When True (the paper's convention and the default), a vertex's
        neighbourhood is the whole vertex set including itself.
    """

    def __init__(self, num_vertices: int, self_loops: bool = True) -> None:
        if num_vertices < 1:
            raise GraphError(f"need at least one vertex, got {num_vertices}")
        if not self_loops and num_vertices < 2:
            raise GraphError(
                "a single vertex without a self-loop has no neighbours"
            )
        self.num_vertices = int(num_vertices)
        self.self_loops = bool(self_loops)

    @property
    def is_complete_with_self_loops(self) -> bool:
        return self.self_loops

    def sample_neighbors_batch(
        self,
        rng: np.random.Generator,
        samples_per_vertex: int,
        num_replicas: int,
    ) -> np.ndarray:
        """One bounded draw covers every replica (see :class:`Graph`).

        With self-loops a neighbour sample is a uniform vertex, so the
        whole ``(s, R, n)`` tensor is a single ``rng.integers`` call in
        the narrowest dtype holding a vertex id.  Without them each
        vertex draws from ``[0, n - 1)`` and shifts draws at or above
        its own index up by one, which skips exactly itself.
        """
        n = self.num_vertices
        shape = (samples_per_vertex, num_replicas, n)
        if self.self_loops:
            return rng.integers(
                0, n, size=shape, dtype=vertex_id_dtype(n)
            )
        draws = rng.integers(0, n - 1, size=shape, dtype=np.int64)
        return draws + (draws >= np.arange(n, dtype=np.int64))

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialised dense CSR structure (O(n^2) memory; small n)."""
        n = self.num_vertices
        if self.self_loops:
            indptr = np.arange(n + 1, dtype=np.int64) * n
            indices = np.tile(np.arange(n, dtype=np.int64), n)
            return indptr, indices
        indptr = np.arange(n + 1, dtype=np.int64) * (n - 1)
        grid = np.tile(np.arange(n, dtype=np.int64), (n, 1))
        mask = ~np.eye(n, dtype=bool)
        return indptr, grid[mask]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "+loops" if self.self_loops else "-loops"
        return f"CompleteGraph(n={self.num_vertices}, {suffix})"
