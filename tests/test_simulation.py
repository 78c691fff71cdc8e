"""Tests for the unified simulation API (spec, builder, results)."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro import ResultSet, Simulation, SimulationSpec, SupportRunnerUp
from repro.adversary import near_consensus_target
from repro.configs import balanced
from repro.core import ThreeMajority
from repro.engine import RunResult
from repro.errors import ConfigurationError, ConsensusNotReached
from repro.graphs.generators import cycle_graph
from repro.simulation import default_round_budget, execute
from repro.experiments.base import measure_consensus_times


class TestSpecValidation:
    def test_defaults_resolve(self):
        spec = SimulationSpec(n=100, k=4)
        assert spec.engine == "population"
        assert spec.initial == "balanced"
        assert spec.round_budget() == default_round_budget(100, 4)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="engine"):
            SimulationSpec(n=100, k=4, engine="warp")

    def test_rejects_unknown_initial(self):
        with pytest.raises(ConfigurationError, match="initial"):
            SimulationSpec(n=100, k=4, initial="bogus")

    def test_rejects_missing_nk(self):
        with pytest.raises(ConfigurationError, match="n and k"):
            SimulationSpec()

    def test_rejects_generator_seed(self):
        with pytest.raises(ConfigurationError, match="declarative"):
            SimulationSpec(n=100, k=4, seed=np.random.default_rng(0))

    def test_rejects_bad_dynamics_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown dynamics"):
            SimulationSpec(dynamics="42-flavour", n=100, k=4)

    def test_rejects_bad_initial_params_eagerly(self):
        with pytest.raises(ConfigurationError, match="zipf"):
            SimulationSpec(
                n=100, k=4, initial="zipf", initial_params={"slope": 2}
            )

    def test_rejects_graph_off_agent_engine(self):
        with pytest.raises(ConfigurationError, match="agent"):
            SimulationSpec(
                n=10, k=2, engine="population", graph=cycle_graph(10)
            )

    def test_rejects_graph_size_mismatch(self):
        with pytest.raises(ConfigurationError, match="vertices"):
            SimulationSpec(
                n=12, k=2, engine="agent", graph=cycle_graph(10)
            )

    def test_async_rejects_target(self):
        with pytest.raises(ConfigurationError, match="target"):
            SimulationSpec(
                n=100, k=4, engine="async", target=lambda c: True
            )

    def test_batch_accepts_target(self):
        """Per-row target masking lifted the old batch carve-out."""
        spec = SimulationSpec(
            n=100, k=4, engine="batch", target=lambda c: True
        )
        assert spec.target is not None

    def test_counts_derive_and_check_nk(self):
        spec = SimulationSpec(counts=np.asarray([30, 20]))
        assert (spec.n, spec.k) == (50, 2)
        assert spec.initial == "custom"
        with pytest.raises(ConfigurationError, match="sum"):
            SimulationSpec(counts=np.asarray([30, 20]), n=60)
        with pytest.raises(ConfigurationError, match="opinions"):
            SimulationSpec(counts=np.asarray([30, 20]), k=3)

    def test_spec_counts_are_frozen(self):
        spec = SimulationSpec(counts=np.asarray([30, 20]))
        with pytest.raises(ValueError):
            spec.counts[0] = 7
        fresh = spec.initial_counts()
        fresh[0] = 7  # copies are writable
        assert spec.counts[0] == 30

    def test_initial_counts_matches_family(self):
        spec = SimulationSpec(n=100, k=4, initial="zipf")
        assert (spec.initial_counts() == np.asarray(
            SimulationSpec(n=100, k=4, initial="zipf").initial_counts()
        )).all()
        assert spec.initial_counts().sum() == 100

    def test_random_initial_family_is_reproducible_from_spec_seed(self):
        """dirichlet starts derive their stream from the spec seed."""
        spec = SimulationSpec(
            dynamics="voter", n=100, k=3, initial="dirichlet", seed=42
        )
        assert (spec.initial_counts() == spec.initial_counts()).all()
        twin = SimulationSpec(
            dynamics="voter", n=100, k=3, initial="dirichlet", seed=42
        )
        assert (spec.initial_counts() == twin.initial_counts()).all()
        other = SimulationSpec(
            dynamics="voter", n=100, k=3, initial="dirichlet", seed=43
        )
        assert (spec.initial_counts() != other.initial_counts()).any()
        # Whole runs of the same frozen spec agree too.
        assert (
            spec.run().consensus_times == twin.run().consensus_times
        ).all()

    def test_random_initial_family_explicit_seed_wins(self):
        spec = SimulationSpec(
            n=100,
            k=3,
            initial="dirichlet",
            initial_params={"seed": 7},
            seed=1,
        )
        other = SimulationSpec(
            n=100,
            k=3,
            initial="dirichlet",
            initial_params={"seed": 7},
            seed=2,
        )
        assert (spec.initial_counts() == other.initial_counts()).all()

    def test_describe_mentions_engine_and_start(self):
        spec = SimulationSpec(n=100, k=4, engine="batch", replicas=8)
        text = spec.describe()
        assert "engine=batch" in text
        assert "balanced" in text


class TestSpecAdversary:
    """The adversary is a first-class, validated spec dimension."""

    def test_name_resolves_with_budget(self):
        spec = SimulationSpec(
            n=100, k=4, adversary="runner-up", adversary_budget=3
        )
        adversary = spec.resolved_adversary()
        assert isinstance(adversary, SupportRunnerUp)
        assert adversary.budget == 3

    def test_name_requires_budget(self):
        with pytest.raises(ConfigurationError, match="adversary_budget"):
            SimulationSpec(n=100, k=4, adversary="runner-up")

    def test_budget_requires_adversary(self):
        with pytest.raises(ConfigurationError, match="without an adversary"):
            SimulationSpec(n=100, k=4, adversary_budget=3)

    def test_unknown_strategy_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            SimulationSpec(
                n=100, k=4, adversary="gremlin", adversary_budget=1
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            SimulationSpec(
                n=100, k=4, adversary="random", adversary_budget=-2
            )

    def test_instance_derives_budget(self):
        spec = SimulationSpec(
            n=100, k=4, adversary=SupportRunnerUp(7)
        )
        assert spec.adversary_budget == 7
        assert spec.resolved_adversary() is spec.adversary

    def test_instance_budget_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicts"):
            SimulationSpec(
                n=100,
                k=4,
                adversary=SupportRunnerUp(7),
                adversary_budget=9,
            )

    def test_adversary_in_repr_and_describe(self):
        spec = SimulationSpec(
            n=100, k=4, adversary="runner-up", adversary_budget=3
        )
        assert "adversary='runner-up'" in repr(spec)
        assert "adversary_budget=3" in repr(spec)
        assert "adversary=runner-up(F=3)" in spec.describe()

    def test_no_adversary_resolves_to_none(self):
        assert SimulationSpec(n=100, k=4).resolved_adversary() is None

    @pytest.mark.parametrize(
        "engine", ["population", "agent", "async", "batch"]
    )
    def test_every_engine_runs_adversarial_specs(self, engine):
        results = SimulationSpec(
            dynamics="3-majority",
            n=300,
            k=3,
            engine=engine,
            replicas=2,
            seed=6,
            adversary="random",
            adversary_budget=2,
            max_rounds=20_000,
        ).run()
        assert len(results) == 2
        assert all(r.converged for r in results)
        for r in results:
            assert r.final_counts.sum() == 300


class TestBuilder:
    def test_builds_equivalent_spec(self):
        spec = (
            Simulation.of("2-choices")
            .n(1000)
            .k(10)
            .zipf(exponent=0.5)
            .replicas(4)
            .batch()
            .seed(3)
            .max_rounds(500)
            .build()
        )
        assert spec == SimulationSpec(
            dynamics="2-choices",
            n=1000,
            k=10,
            initial="zipf",
            initial_params={"exponent": 0.5},
            engine="batch",
            replicas=4,
            seed=3,
            max_rounds=500,
        )

    def test_counts_clears_nk(self):
        spec = (
            Simulation.of("voter").n(5).k(5).counts([10, 10]).build()
        )
        assert (spec.n, spec.k) == (20, 2)

    def test_from_spec_roundtrip(self):
        original = SimulationSpec(
            n=100, k=4, engine="batch", replicas=8, seed=5
        )
        rebuilt = Simulation.from_spec(original).build()
        assert rebuilt == original

    def test_adversary_method(self):
        spec = (
            Simulation.of("3-majority")
            .n(100)
            .k(4)
            .adversary("revive-weakest", 2)
            .build()
        )
        assert spec.adversary == "revive-weakest"
        assert spec.adversary_budget == 2

    def test_from_spec_roundtrip_with_adversary(self):
        original = SimulationSpec(
            n=100,
            k=4,
            engine="batch",
            replicas=8,
            seed=5,
            adversary=SupportRunnerUp(4),
        )
        rebuilt = Simulation.from_spec(original).build()
        assert rebuilt == original
        assert rebuilt.adversary_budget == 4

    def test_on_graph_selects_agent_engine(self):
        spec = (
            Simulation.of("3-majority")
            .n(10)
            .k(2)
            .on_graph(cycle_graph(10))
            .build()
        )
        assert spec.engine == "agent"

    def test_run_returns_result_set(self):
        results = (
            Simulation.of("3-majority")
            .n(200)
            .k(4)
            .replicas(3)
            .seed(0)
            .run()
        )
        assert isinstance(results, ResultSet)
        assert len(results) == 3


class TestExecuteEngines:
    @pytest.mark.parametrize(
        "alias, engine, graph",
        [
            ("population", "batch", None),
            ("agent", "agent-batch", cycle_graph(24, self_loops=True)),
        ],
        ids=["population", "agent-on-cycle"],
    )
    @pytest.mark.parametrize(
        "stopping",
        [
            {},
            {"target": lambda counts: counts.max() >= 18},
            {
                "adversary": "runner-up",
                "adversary_budget": 1,
                "target": near_consensus_target(24, 1),
            },
        ],
        ids=["consensus", "target", "adversary"],
    )
    def test_chain_name_equals_its_batch_engine(
        self, alias, engine, graph, stopping
    ):
        """``population`` and ``agent`` run the batch engines: a seeded
        spec gives the same results, replica for replica."""

        def run(name):
            return execute(
                SimulationSpec(
                    dynamics="3-majority",
                    n=24,
                    k=3,
                    engine=name,
                    graph=graph,
                    replicas=6,
                    seed=13,
                    max_rounds=400,
                    **stopping,
                )
            )

        for a, b in zip(run(alias), run(engine), strict=True):
            assert (a.converged, a.rounds, a.winner) == (
                b.converged,
                b.rounds,
                b.winner,
            )
            assert np.array_equal(a.final_counts, b.final_counts)

    def test_batch_engine_runs(self):
        results = (
            Simulation.of("3-majority")
            .n(2000)
            .k(16)
            .replicas(12)
            .batch()
            .seed(1)
            .run()
        )
        assert results.num_converged == 12
        assert (results.winner_histogram().sum()) == 12

    def test_agent_engine_on_cycle(self):
        results = (
            Simulation.of("voter")
            .n(16)
            .k(2)
            .on_graph(cycle_graph(16))
            .replicas(2)
            .max_rounds(50_000)
            .seed(4)
            .run()
        )
        assert len(results) == 2
        assert all(r.converged for r in results)

    def test_async_engine_reports_ticks(self):
        results = (
            Simulation.of("3-majority")
            .n(300)
            .k(3)
            .asynchronous()
            .replicas(2)
            .seed(5)
            .run()
        )
        for r in results:
            assert r.converged
            assert r.metrics["ticks"] >= r.rounds
            assert r.rounds == int(np.ceil(r.metrics["ticks"] / 300))

    def test_on_budget_raise(self):
        spec = SimulationSpec(
            dynamics="2-choices",
            n=4096,
            k=512,
            replicas=2,
            max_rounds=2,
            on_budget="raise",
        )
        with pytest.raises(ConsensusNotReached):
            execute(spec)
        with pytest.raises(ConsensusNotReached):
            execute(
                SimulationSpec(
                    dynamics="2-choices",
                    n=4096,
                    k=512,
                    engine="batch",
                    replicas=2,
                    max_rounds=2,
                    on_budget="raise",
                )
            )

    def test_custom_target_predicate(self):
        spec = SimulationSpec(
            dynamics="3-majority",
            n=1000,
            k=10,
            replicas=2,
            seed=2,
            target=lambda counts: np.count_nonzero(counts) <= 5,
        )
        for r in execute(spec):
            assert r.converged
            assert np.count_nonzero(r.final_counts) <= 5

    def test_batch_target_stops_per_row(self):
        """Per-row target masking: batch rows freeze at the predicate."""
        spec = SimulationSpec(
            dynamics="3-majority",
            n=1000,
            k=10,
            engine="batch",
            replicas=6,
            seed=2,
            target=lambda counts: np.count_nonzero(counts) <= 5,
        )
        results = execute(spec)
        assert results.num_converged == 6
        for r in results:
            assert np.count_nonzero(r.final_counts) <= 5
            # Stopped before strict consensus => no winner reported.
            if r.final_counts.max() < 1000:
                assert r.winner is None


class TestResultSet:
    def _mixed(self):
        return ResultSet(
            [
                RunResult(True, 10, 1, np.asarray([0, 50])),
                RunResult(True, 20, 0, np.asarray([50, 0])),
                RunResult(False, 99, None, np.asarray([25, 25])),
            ]
        )

    def test_sequence_protocol(self):
        results = self._mixed()
        assert len(results) == 3
        assert results[0].rounds == 10
        assert [r.rounds for r in results] == [10, 20, 99]
        sliced = results[:2]
        assert isinstance(sliced, ResultSet)
        assert len(sliced) == 2

    def test_consensus_times_nan_for_censored(self):
        times = self._mixed().consensus_times
        assert times[0] == 10 and times[1] == 20
        assert np.isnan(times[2])

    def test_quantiles_exclude_censored(self):
        results = self._mixed()
        assert results.median == 15
        assert results.quantiles((0.0, 1.0)).tolist() == [10.0, 20.0]

    def test_quantiles_all_censored_is_nan(self):
        results = ResultSet(
            [RunResult(False, 9, None, np.asarray([1, 1]))]
        )
        assert np.isnan(results.median)

    def test_censoring_counts(self):
        results = self._mixed()
        assert results.num_converged == 2
        assert results.num_censored == 1
        assert results.converged_fraction == pytest.approx(2 / 3)

    def test_winner_histogram(self):
        histogram = self._mixed().winner_histogram(num_opinions=3)
        assert histogram.tolist() == [1, 1, 0]

    def test_empty_slice_degrades_gracefully(self):
        """Slicing must mirror list semantics, including empty slices."""
        empty = self._mixed()[0:0]
        assert isinstance(empty, ResultSet)
        assert len(empty) == 0
        assert list(empty) == []
        assert empty.num_converged == 0
        assert np.isnan(empty.converged_fraction)
        assert np.isnan(empty.median)
        assert ResultSet([]).winner_histogram().tolist() == [0]

    def test_to_dicts_and_csv(self, tmp_path):
        results = self._mixed()
        dicts = results.to_dicts()
        assert dicts[2] == {
            "replica": 2,
            "converged": False,
            "rounds": 99,
            "winner": None,
        }
        path = results.to_csv(tmp_path / "runs.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[0]["rounds"] == "10"

    def test_summary_mentions_censoring(self):
        text = self._mixed().summary()
        assert "1 censored" in text
        assert "median 15" in text

    def test_summary_omits_winners_for_target_stopped_runs(self):
        """Converged-but-no-winner runs must not fabricate a winner."""
        results = ResultSet(
            [
                RunResult(True, 10, None, np.asarray([45, 5])),
                RunResult(True, 12, None, np.asarray([44, 6])),
            ]
        )
        text = results.summary()
        assert "2 converged" in text
        assert "winners" not in text


class TestMeasureConsensusTimesShim:
    def test_batch_engine_option(self):
        """The shim always runs the batch engine: one ResultSet of
        every replica."""
        results = measure_consensus_times(
            ThreeMajority(),
            balanced(512, 8),
            num_runs=6,
            max_rounds=10_000,
            seed=1,
        )
        assert isinstance(results, ResultSet)
        assert results.num_converged == 6
