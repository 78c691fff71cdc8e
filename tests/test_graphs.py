"""Tests for the graph substrate (complete, CSR, generators)."""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from repro.errors import GraphError
from repro.graphs import (
    AdjacencyGraph,
    CompleteGraph,
    core_periphery,
    cycle_graph,
    erdos_renyi,
    from_networkx,
    random_regular,
    stochastic_block_model,
    torus_grid,
)


class TestCompleteGraph:
    def test_sample_shape(self, rng):
        graph = CompleteGraph(10)
        samples = graph.sample_neighbors_batch(rng, 3, 1)[:, 0].T
        assert samples.shape == (10, 3)
        assert samples.min() >= 0 and samples.max() < 10

    def test_self_loops_flag(self):
        assert CompleteGraph(5).is_complete_with_self_loops
        assert not CompleteGraph(5, self_loops=False).\
            is_complete_with_self_loops

    def test_no_self_loops_never_samples_self(self, rng):
        graph = CompleteGraph(6, self_loops=False)
        samples = graph.sample_neighbors_batch(rng, 200, 1)[:, 0].T
        own = np.arange(6)[:, None]
        assert not np.any(samples == own)

    def test_no_self_loop_sampling_uniform(self, rng):
        graph = CompleteGraph(4, self_loops=False)
        samples = graph.sample_neighbors_batch(rng, 30_000, 1)[:, 0].T
        # Row 0 should hit {1,2,3} each about 10k times.
        histogram = np.bincount(samples[0], minlength=4)
        assert histogram[0] == 0
        assert np.all(np.abs(histogram[1:] - 10_000) < 600)

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            CompleteGraph(0)

    def test_rejects_lonely_vertex_without_loop(self):
        with pytest.raises(GraphError, match="no neighbours"):
            CompleteGraph(1, self_loops=False)


class TestAdjacencyGraph:
    def test_from_edges_symmetrises(self, rng):
        graph = AdjacencyGraph.from_edges(3, [[0, 1], [1, 2]])
        samples = graph.sample_neighbors_batch(rng, 1000, 1)[:, 0].T
        # Vertex 0 only neighbours 1.
        assert set(np.unique(samples[0])) == {1}
        assert set(np.unique(samples[1])) == {0, 2}

    def test_self_loops_appended(self, rng):
        graph = AdjacencyGraph.from_edges(2, [[0, 1]], self_loops=True)
        samples = graph.sample_neighbors_batch(rng, 2000, 1)[:, 0].T
        assert set(np.unique(samples[0])) == {0, 1}

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError, match="no neighbours"):
            AdjacencyGraph.from_edges(3, [[0, 1]])

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphError):
            AdjacencyGraph(np.asarray([0, 2]), np.asarray([0]))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            AdjacencyGraph(np.asarray([0, 1]), np.asarray([5]))

    def test_multi_edges_weight_sampling(self, rng):
        # Vertex 0 has edges to 1 (twice) and 2 (once): 2/3 vs 1/3.
        graph = AdjacencyGraph.from_edges(
            3, [[0, 1], [0, 1], [0, 2], [1, 2]]
        )
        samples = graph.sample_neighbors_batch(rng, 30_000, 1)[:, 0].T[0]
        share = np.mean(samples == 1)
        assert abs(share - 2 / 3) < 0.02


class TestGenerators:
    def test_cycle_degrees(self):
        graph = cycle_graph(10, self_loops=False)
        assert np.all(graph.degrees == 2)

    def test_cycle_with_loops_degrees(self):
        graph = cycle_graph(10, self_loops=True)
        assert np.all(graph.degrees == 3)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_torus_degrees(self):
        graph = torus_grid(4, self_loops=False)
        assert graph.num_vertices == 16
        assert np.all(graph.degrees == 4)

    def test_torus_too_small(self):
        with pytest.raises(GraphError):
            torus_grid(1)

    def test_erdos_renyi_density(self):
        graph = erdos_renyi(200, 0.2, seed=0, self_loops=False)
        expected = 0.2 * 199
        mean_degree = graph.degrees.mean()
        assert abs(mean_degree - expected) < 5.0

    def test_erdos_renyi_rejects_bad_p(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, 1.5)

    def test_erdos_renyi_no_duplicate_pairs(self):
        graph = erdos_renyi(50, 0.3, seed=1, self_loops=False)
        pairs = set()
        for v in range(graph.num_vertices):
            row = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
            for u in row:
                pairs.add((min(v, u), max(v, u)))
        # Each undirected edge appears exactly twice in CSR.
        assert graph.indices.size == 2 * len(pairs)

    def test_random_regular_degrees(self):
        graph = random_regular(100, 6, seed=0, self_loops=False)
        assert np.all(graph.degrees == 6)

    def test_random_regular_with_loops(self):
        graph = random_regular(50, 4, seed=0, self_loops=True)
        assert np.all(graph.degrees == 5)

    def test_random_regular_parity(self):
        with pytest.raises(GraphError, match="even"):
            random_regular(5, 3)

    def test_random_regular_degree_range(self):
        with pytest.raises(GraphError):
            random_regular(5, 5)

    def test_random_regular_is_simple(self):
        graph = random_regular(60, 4, seed=3, self_loops=False)
        for v in range(graph.num_vertices):
            row = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
            assert v not in row
            assert np.unique(row).size == row.size

    def test_sbm_blocks(self):
        graph = stochastic_block_model(
            [50, 50], p_in=0.3, p_out=0.01, seed=0, self_loops=False
        )
        assert graph.num_vertices == 100
        # Within-block density should dominate cross-block.
        within = cross = 0
        for v in range(50):
            row = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
            within += int(np.sum(row < 50))
            cross += int(np.sum(row >= 50))
        assert within > 5 * max(cross, 1)

    def test_sbm_bad_sizes(self):
        with pytest.raises(GraphError):
            stochastic_block_model([0, 10], 0.5, 0.1)

    def test_core_periphery_structure(self):
        graph = core_periphery(10, 20, attachment=2, seed=0)
        assert graph.num_vertices == 30
        # Periphery vertices: 2 anchors + 1 self-loop = 3.
        assert np.all(graph.degrees[10:] == 3)

    def test_core_periphery_bad_attachment(self):
        with pytest.raises(GraphError):
            core_periphery(5, 10, attachment=6)

    def test_from_networkx(self, rng):
        graph = from_networkx(nx.path_graph(4), self_loops=False)
        assert graph.num_vertices == 4
        samples = graph.sample_neighbors_batch(rng, 300, 1)[:, 0].T
        assert set(np.unique(samples[0])) == {1}
        assert set(np.unique(samples[1])) == {0, 2}

    def test_from_networkx_with_loops(self, rng):
        graph = from_networkx(nx.path_graph(3), self_loops=True)
        samples = graph.sample_neighbors_batch(rng, 500, 1)[:, 0].T
        assert 0 in np.unique(samples[0])

    def test_from_networkx_empty(self):
        with pytest.raises(GraphError):
            from_networkx(nx.Graph())


def _edge_set_fingerprint(params):
    """Build one random graph family member; return its CSR arrays.

    Module-level so the cross-process seeding test can ship it to a
    spawned interpreter (the same constraint ``run_sweep(workers=...)``
    puts on point functions).
    """
    from repro.graphs import make_graph

    graph = make_graph(**params)
    indptr, indices = graph.csr_arrays()
    return indptr.tolist(), indices.tolist()


class TestGeneratorSeeding:
    """Same seed => same edge set, in-process and across processes.

    The sweep layer keys cached points by (family, degree/probability,
    graph_seed), and ``run_sweep(workers=...)`` rebuilds substrates in
    worker processes — both are only sound when generator seeding is
    process-independent (networkx-backed samplers included, via the
    integer seed derived from our stream).
    """

    CASES = (
        {"name": "random-regular", "num_vertices": 48, "degree": 3,
         "seed": 7},
        {"name": "erdos-renyi", "num_vertices": 48,
         "edge_probability": 0.2, "seed": 7},
    )

    @pytest.mark.parametrize(
        "params", CASES, ids=lambda p: p["name"]
    )
    def test_same_seed_same_edges_in_process(self, params):
        first = _edge_set_fingerprint(params)
        second = _edge_set_fingerprint(params)
        assert first == second

    @pytest.mark.parametrize(
        "params", CASES, ids=lambda p: p["name"]
    )
    def test_different_seed_different_edges(self, params):
        first = _edge_set_fingerprint(params)
        other = _edge_set_fingerprint({**params, "seed": 8})
        assert first != other

    @pytest.mark.parametrize(
        "params", CASES, ids=lambda p: p["name"]
    )
    def test_seed_sequence_spawn_streams_reproducible(self, params):
        # spawn_generators-style derivation: a spawned child stream
        # yields the same graph wherever it is replayed.
        child = np.random.SeedSequence(11).spawn(3)[1]
        first = _edge_set_fingerprint({**params, "seed": child})
        child_again = np.random.SeedSequence(11).spawn(3)[1]
        second = _edge_set_fingerprint({**params, "seed": child_again})
        assert first == second

    def test_same_seed_same_edges_across_processes(self):
        import concurrent.futures
        import multiprocessing

        params = dict(self.CASES[0])
        local = _edge_set_fingerprint(params)
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=ctx
        ) as pool:
            remote = pool.submit(_edge_set_fingerprint, params).result()
        assert local == remote
