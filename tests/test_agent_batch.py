"""Contract tests for the batched graph engine.

The ``agent-batch`` engine (also registered as ``agent``) is the one
engine of the per-vertex chain.  Its one-step law on sparse graphs and
its consensus-round law on the complete graph are checked against exact
oracles in ``tests/test_exact_distributions.py``.  This module covers
the rest of the contract:

* **label space** — label-minting dynamics fail loudly;
* **sampling primitive** — ``Graph.sample_neighbors_batch`` draws
  uniform neighbours on every code path (power-of-two constant degree,
  general constant degree, irregular degrees, complete graph), and the
  CSR export round-trips;
* **adversary lift** — ``corrupt_batch`` plus vertex reassignment
  conserves every row's mass, moves exactly the corrupted number of
  vertices, respects the per-round F-bound, and identical seeds give
  identical ``(R, n)`` opinion matrices;
* **wiring regressions** — spec validation names the graph-capable
  engines, ``on_graph(...).batch()`` resolves to ``agent-batch``
  instead of dropping the graph, sweep grids accept ``graph``/
  ``degree`` parameters, and ``on_budget="raise"`` behaves like every
  other engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import make_adversary
from repro.configs import balanced
from repro.core import (
    ThreeMajority,
    UndecidedStateDynamics,
    gather_neighbor_opinions_batch,
)
from repro.engine import BatchAgentEngine
from repro.engine.agent_batch import apply_count_delta
from repro.engine.registry import get_engine
from repro.errors import ConfigurationError, ConsensusNotReached, GraphError
from repro.graphs import (
    AdjacencyGraph,
    CompleteGraph,
    Graph,
    cycle_graph,
    make_graph,
    random_regular,
)
from repro.simulation import Simulation, SimulationSpec
from repro.state import agents_to_counts, counts_to_agents


class TestDistributionalEquivalence:
    """The engine's opinion space holds whatever a step returns."""

    def test_out_of_range_labels_fail_loudly_in_counts(self):
        # The offset bincount behind counts/results would silently file
        # an out-of-range label under the next row's bins; it must
        # raise instead.
        from repro.errors import StateError

        engine = BatchAgentEngine(
            ThreeMajority(),
            CompleteGraph(10),
            np.zeros(10, dtype=np.int64),
            num_replicas=2,
            num_opinions=2,
            seed=0,
        )
        engine.opinions[0, 0] = 5  # simulate a label-minting dynamics
        with pytest.raises(StateError, match="opinion space"):
            engine.counts


class TestSampleNeighborsBatch:
    """The batched sampling primitive on every code path."""

    def _assert_uniform_over_neighbors(self, graph, vertex, rng):
        samples = graph.sample_neighbors_batch(rng, 2, 400)
        drawn = np.asarray(samples)[:, :, vertex].reshape(-1)
        indptr, indices = graph.csr_arrays()
        neighborhood = indices[indptr[vertex] : indptr[vertex + 1]]
        values, freq = np.unique(drawn, return_counts=True)
        assert set(values.tolist()) <= set(neighborhood.tolist())
        expected = drawn.size / neighborhood.size
        assert (np.abs(freq - expected) < 5 * np.sqrt(expected)).all()

    def test_uniform_on_power_of_two_regular_graph(self):
        graph = random_regular(64, 7, seed=0)  # degree 8 with loops
        assert int(graph.degrees[0]) == 8
        self._assert_uniform_over_neighbors(
            graph, 5, np.random.default_rng(0)
        )

    def test_uniform_on_general_regular_graph(self):
        graph = random_regular(64, 5, seed=0)  # degree 6: Lemire path
        self._assert_uniform_over_neighbors(
            graph, 5, np.random.default_rng(0)
        )

    def test_uniform_on_irregular_graph(self):
        edges = np.asarray([[0, 1], [0, 2], [0, 3], [1, 2], [3, 4]])
        graph = AdjacencyGraph.from_edges(5, edges, self_loops=True)
        assert graph.degrees.min() != graph.degrees.max()
        self._assert_uniform_over_neighbors(
            graph, 0, np.random.default_rng(0)
        )

    def test_complete_graph_without_self_loops_never_samples_self(self):
        graph = CompleteGraph(17, self_loops=False)
        samples = graph.sample_neighbors_batch(
            np.random.default_rng(0), 3, 50
        )
        own = np.arange(17)
        assert not (np.asarray(samples) == own).any()
        assert samples.shape == (3, 50, 17)

    def test_csr_arrays_roundtrip(self):
        graph = random_regular(32, 3, seed=1)
        indptr, indices = graph.csr_arrays()
        rebuilt = AdjacencyGraph(indptr, indices)
        assert rebuilt.num_vertices == 32
        assert (rebuilt.degrees == graph.degrees).all()

    def test_complete_graph_csr_export(self):
        indptr, indices = CompleteGraph(4, self_loops=True).csr_arrays()
        assert indptr.tolist() == [0, 4, 8, 12, 16]
        assert indices.reshape(4, 4).tolist() == [[0, 1, 2, 3]] * 4
        indptr, indices = CompleteGraph(3, self_loops=False).csr_arrays()
        assert indptr.tolist() == [0, 2, 4, 6]
        assert indices.tolist() == [1, 2, 0, 2, 0, 1]

    def test_base_graph_has_no_csr(self):
        class Opaque(Graph):
            num_vertices = 3

            def sample_neighbors_batch(
                self, rng, samples_per_vertex, num_replicas
            ):
                return np.zeros(
                    (samples_per_vertex, num_replicas, 3), dtype=np.int64
                )

        with pytest.raises(GraphError, match="CSR"):
            Opaque().csr_arrays()

    def test_gather_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        opinions = rng.integers(0, 5, size=(6, 40))
        ids = rng.integers(0, 40, size=(3, 6, 40))
        gathered = gather_neighbor_opinions_batch(opinions, ids)
        for j in range(3):
            for r in range(6):
                assert (
                    gathered[j, r] == opinions[r, ids[j, r]]
                ).all()


class TestAdversaryLift:
    """corrupt_batch + vertex reassignment on the opinion matrix."""

    N, K, R = 300, 5, 24

    def _engine(self, budget=6, seed=5):
        graph = random_regular(self.N, 7, seed=2)
        rng = np.random.default_rng(seed)
        opinions = rng.permuted(
            np.tile(counts_to_agents(balanced(self.N, self.K)), (self.R, 1)),
            axis=1,
        )
        return BatchAgentEngine(
            ThreeMajority(),
            graph,
            opinions,
            num_opinions=self.K,
            seed=rng,
            adversary=make_adversary("runner-up", budget),
        )

    def test_every_row_conserves_mass_every_round(self):
        engine = self._engine()
        for _ in range(40):
            engine.step()
            counts = engine.counts
            assert (counts.sum(axis=1) == self.N).all()
            assert (counts >= 0).all()
            if engine.all_consensus():
                break

    def test_apply_count_delta_realises_the_delta_exactly(self):
        rng = np.random.default_rng(0)
        opinions = counts_to_agents(np.asarray([40, 30, 20, 10]))
        rng.shuffle(opinions)
        before = agents_to_counts(opinions, 4)
        delta = np.asarray([-5, 2, -1, 4])
        reference = opinions.copy()
        apply_count_delta(opinions, delta, rng)
        after = agents_to_counts(opinions, 4)
        assert (after == before + delta).all()
        # The per-round F-bound on the agent level: exactly the moved
        # mass changes vertices, nothing else is touched.
        moved = int(np.abs(delta).sum()) // 2
        assert int((opinions != reference).sum()) == moved

    def test_over_budget_corruption_is_rejected(self):
        # The per-round F-bound is enforced on every row via
        # enforce_corruption_contract_batch: a strategy moving more than
        # its budget must surface as an error, never silent acceptance.
        from repro.adversary import Adversary

        class Cheater(Adversary):
            def corrupt(self, counts, rng):  # pragma: no cover
                return counts

            def corrupt_batch(self, counts, rng):
                counts[:, 0] += 10
                counts[:, 1] -= 10
                return counts

        bad = BatchAgentEngine(
            ThreeMajority(),
            random_regular(self.N, 7, seed=2),
            counts_to_agents(balanced(self.N, self.K)),
            num_replicas=4,
            num_opinions=self.K,
            seed=0,
            adversary=Cheater(1),
        )
        with pytest.raises(ConfigurationError, match="exceeding"):
            bad.step()

    def test_lift_moves_at_most_budget_vertices_per_round(self):
        # Freeze the dynamics (identity step) so the only vertex changes
        # come from the adversary's lift: per round, per row, at most F.
        budget = 4

        class FrozenDynamics(ThreeMajority):
            def agent_step_batch(self, opinions, graph, rng):
                return opinions.copy()

        graph = random_regular(self.N, 7, seed=2)
        engine = BatchAgentEngine(
            FrozenDynamics(),
            graph,
            counts_to_agents(balanced(self.N, self.K)),
            num_replicas=8,
            num_opinions=self.K,
            seed=3,
            adversary=make_adversary("runner-up", budget),
        )
        for _ in range(10):
            before = engine.opinions.copy()
            engine.step()
            changed = (engine.opinions != before).sum(axis=1)
            assert (changed <= budget).all(), changed

    def test_identical_seeds_identical_opinion_matrices(self):
        a = self._engine(seed=7)
        b = self._engine(seed=7)
        for _ in range(15):
            a.step()
            b.step()
        assert (a.opinions == b.opinions).all()
        assert (a.frozen == b.frozen).all()
        # And a different seed actually differs.
        c = self._engine(seed=8)
        for _ in range(15):
            c.step()
        assert (a.opinions != c.opinions).any()


class TestUndecidedConventionOnGraphs:
    """USD's k+1-label convention through the agent-batch engine."""

    def test_all_undecided_start_is_censored_not_winner(self):
        dynamics = UndecidedStateDynamics()
        engine = BatchAgentEngine(
            dynamics,
            CompleteGraph(50),
            np.full(50, 2, dtype=np.int64),
            num_replicas=3,
            num_opinions=3,
            seed=0,
        )
        results = engine.run_until_consensus(15)
        assert engine.round_index == 15
        assert all(not r.converged for r in results)
        assert all(r.winner is None for r in results)

    def test_decided_consensus_start_frozen_with_winner(self):
        engine = BatchAgentEngine(
            UndecidedStateDynamics(),
            CompleteGraph(50),
            np.full(50, 1, dtype=np.int64),
            num_replicas=3,
            num_opinions=3,
            seed=0,
        )
        assert engine.frozen.all()
        results = engine.run_until_consensus(10)
        assert all(r.converged and r.rounds == 0 for r in results)
        assert all(r.winner == 1 for r in results)


class TestSpecAndBuilderWiring:
    """Validation and builder-resolution regressions."""

    def test_graph_with_non_graph_engine_names_capable_engines(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SimulationSpec(
                n=64,
                k=2,
                engine="batch",
                graph=CompleteGraph(64),
            )
        message = str(excinfo.value)
        assert "'agent'" in message and "'agent-batch'" in message

    def test_on_graph_then_batch_resolves_to_agent_batch(self):
        graph = random_regular(64, 3, seed=0)
        spec = (
            Simulation.of("3-majority")
            .n(64)
            .k(2)
            .on_graph(graph)
            .batch()
            .replicas(4)
            .build()
        )
        assert spec.engine == "agent-batch"
        assert spec.graph is graph

    def test_batch_then_on_graph_resolves_to_agent_batch(self):
        # The reverse call order must not silently drop the batch
        # request back to sequential agent replication.
        graph = random_regular(64, 3, seed=0)
        spec = (
            Simulation.of("3-majority")
            .n(64)
            .k(2)
            .batch()
            .on_graph(graph)
            .replicas(4)
            .build()
        )
        assert spec.engine == "agent-batch"
        assert spec.graph is graph

    def test_bare_on_graph_then_batch_resolves_to_agent_batch(self):
        spec = (
            Simulation.of("3-majority")
            .n(64)
            .k(2)
            .on_graph()
            .batch()
            .build()
        )
        assert spec.engine == "agent-batch"

    def test_plain_batch_still_population_level(self):
        spec = Simulation.of("3-majority").n(64).k(2).batch().build()
        assert spec.engine == "batch"

    def test_spec_run_through_agent_batch(self):
        graph = random_regular(128, 5, seed=1)
        results = (
            Simulation.of("3-majority")
            .n(128)
            .k(4)
            .on_graph(graph)
            .batch()
            .replicas(8)
            .seed(3)
            .run()
        )
        assert results.num_converged == 8
        assert all(r.winner in range(4) for r in results)

    def test_identical_spec_seeds_identical_results(self):
        graph = random_regular(128, 5, seed=1)

        def run():
            return (
                Simulation.of("3-majority")
                .n(128)
                .k(4)
                .on_graph(graph)
                .batch()
                .replicas(6)
                .seed(42)
                .run()
            )

        a, b = run(), run()
        assert [r.rounds for r in a] == [r.rounds for r in b]
        assert [r.winner for r in a] == [r.winner for r in b]

    def test_on_budget_raise_contract(self):
        # Voter on a big cycle cannot reach consensus in 3 rounds.
        spec = SimulationSpec(
            dynamics="voter",
            n=64,
            k=2,
            engine="agent-batch",
            graph=cycle_graph(64),
            replicas=4,
            max_rounds=3,
            seed=0,
            on_budget="raise",
        )
        with pytest.raises(ConsensusNotReached):
            get_engine("agent-batch").run(spec)

    def test_registry_capabilities(self):
        info = get_engine("agent-batch")
        assert info.supports_graph
        assert info.supports_target
        assert info.supports_adversary

    def test_target_predicate_on_counts(self):
        spec = SimulationSpec(
            dynamics="3-majority",
            n=128,
            k=4,
            engine="agent-batch",
            graph=random_regular(128, 5, seed=1),
            replicas=4,
            seed=2,
            target=lambda counts: counts.max() >= 100,
        )
        results = spec.run()
        assert all(r.converged for r in results)
        assert all(r.final_counts.max() >= 100 for r in results)


class TestSweepGraphDimension:
    """Graph substrate as sweep grid parameters."""

    def test_spec_from_params_builds_graph_point(self):
        from repro.sweep import spec_from_params

        spec = spec_from_params(
            {
                "n": 64,
                "k": 2,
                "graph": "random-regular",
                "degree": 3,
                "graph_seed": 5,
            }
        )
        assert spec.engine == "agent-batch"
        assert spec.graph is not None
        assert spec.graph.num_vertices == 64

    def test_complete_graph_point_stays_population(self):
        from repro.sweep import spec_from_params

        spec = spec_from_params({"n": 64, "k": 2, "graph": "complete"})
        assert spec.engine == "batch"
        assert spec.graph is None

    def test_graph_points_hash_to_distinct_cache_keys(self):
        from repro.sweep.grid import _point_key

        base = {"n": 64, "k": 2, "graph": "random-regular"}
        keys = {
            _point_key({**base, "degree": d, "graph_seed": s})
            for d in (3, 5)
            for s in (0, 1)
        }
        assert len(keys) == 4

    def test_consensus_times_point_on_graph(self):
        from repro.sweep import consensus_times_point_batch

        values = consensus_times_point_batch(
            {
                "n": 64,
                "k": 2,
                "graph": "random-regular",
                "degree": 3,
                "graph_seed": 1,
            },
            3,
            (0,),
        )
        assert all(np.isfinite(v) and v > 0 for v in values)

    def test_make_graph_families(self):
        assert make_graph("complete", 10).num_vertices == 10
        assert make_graph(
            "random-regular", 10, degree=3, seed=0
        ).num_vertices == 10
        assert make_graph(
            "erdos-renyi", 10, edge_probability=0.5, seed=0
        ).num_vertices == 10
        assert make_graph("cycle", 10).num_vertices == 10
        with pytest.raises(GraphError, match="unknown graph family"):
            make_graph("petersen", 10)
        with pytest.raises(GraphError, match="degree"):
            make_graph("random-regular", 10)
        # Inapplicable parameters are rejected, never silently ignored
        # (a sweep axis over them would fabricate identical substrates
        # presented as different points).
        with pytest.raises(GraphError, match="does not take"):
            make_graph("erdos-renyi", 10, edge_probability=0.5, degree=3)
        with pytest.raises(GraphError, match="does not take"):
            make_graph("random-regular", 10, degree=3,
                       edge_probability=0.5)
        with pytest.raises(GraphError, match="does not take"):
            make_graph("complete", 10, degree=3)
        with pytest.raises(GraphError, match="does not take"):
            make_graph("cycle", 10, edge_probability=0.5)
