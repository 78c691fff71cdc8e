"""Tests for the parameter-sweep driver."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import CacheIntegrityError, ConfigurationError
from repro.simulation import SimulationSpec
from repro.sweep import (
    SweepPoint,
    SweepSpec,
    consensus_times_point_batch,
    run_sweep,
    spec_from_params,
)
from repro.sweep.grid import _point_key, _seed_entropy


def _cheap_point(params, num_runs, seed):
    """Deterministic-ish fast point function for driver tests."""
    rng = np.random.default_rng(seed)
    return tuple(
        float(params["x"] * 10 + draw)
        for draw in rng.integers(0, 3, size=num_runs)
    )


def _explodes_on_x3(params, num_runs, seed):
    """Module-level (picklable) point function failing on one point."""
    if params["x"] == 3:
        raise RuntimeError("boom")
    return (float(params["x"]),) * num_runs


def _params_only_key(params):
    """The cache key of the retired per-replica measurement."""
    canon = json.dumps(
        {str(k): params[k] for k in sorted(params)}, sort_keys=True
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _hammer_shared_cache(args):
    """Run one full sweep against a shared cache dir (subprocess)."""
    cache_dir, grid_size = args
    spec = SweepSpec(
        grid={"x": list(range(grid_size))}, num_runs=2, seed=0
    )
    points = run_sweep(
        spec, batch_point_function=_cheap_point, cache_dir=cache_dir
    )
    return [point.values for point in points]


class TestSweepSpec:
    def test_points_cartesian(self):
        spec = SweepSpec(grid={"a": [1, 2], "b": ["x", "y"]})
        points = spec.points()
        assert len(points) == 4
        assert {"a": 1, "b": "x"} in points

    def test_fixed_merged(self):
        spec = SweepSpec(grid={"a": [1]}, fixed={"c": 9})
        assert spec.points() == [{"a": 1, "c": 9}]

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={})

    def test_rejects_grid_fixed_overlap(self):
        with pytest.raises(ConfigurationError, match="both"):
            SweepSpec(grid={"a": [1]}, fixed={"a": 2})

    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"a": [1]}, num_runs=0)


class TestSweepPoint:
    def test_median_ignores_nan(self):
        point = SweepPoint({"a": 1}, (1.0, float("nan"), 3.0))
        assert point.median == 2.0
        assert point.censored == 1

    def test_all_censored(self):
        point = SweepPoint({}, (float("nan"),))
        assert np.isnan(point.median)


class TestRunSweep:
    def test_basic_run(self):
        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=4, seed=0)
        results = run_sweep(spec, batch_point_function=_cheap_point)
        assert len(results) == 3
        for point in results:
            assert len(point.values) == 4
            assert point.median >= point.params["x"] * 10

    def test_reproducible(self):
        spec = SweepSpec(grid={"x": [1, 2]}, num_runs=3, seed=5)
        a = run_sweep(spec, batch_point_function=_cheap_point)
        b = run_sweep(spec, batch_point_function=_cheap_point)
        assert [p.values for p in a] == [p.values for p in b]

    def test_point_independent_of_grid(self):
        """Adding grid values never changes existing points."""
        small = SweepSpec(grid={"x": [1]}, num_runs=3, seed=5)
        big = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=3, seed=5)
        a = run_sweep(small, batch_point_function=_cheap_point)
        b = run_sweep(big, batch_point_function=_cheap_point)
        assert a[0].values == b[0].values

    def test_cache_roundtrip(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2]}, num_runs=2, seed=1)
        first = run_sweep(
            spec, batch_point_function=_cheap_point, cache_dir=tmp_path
        )
        assert len(list(tmp_path.glob("*.json"))) == 2

        calls = []

        def spy(params, num_runs, seed):
            calls.append(params)
            return (0.0,) * num_runs

        second = run_sweep(
            spec, batch_point_function=spy, cache_dir=tmp_path
        )
        assert not calls  # everything came from cache
        assert [p.values for p in first] == [p.values for p in second]

    def test_cache_resume_partial(self, tmp_path):
        spec1 = SweepSpec(grid={"x": [1]}, num_runs=2, seed=1)
        run_sweep(spec1, batch_point_function=_cheap_point, cache_dir=tmp_path)
        spec2 = SweepSpec(grid={"x": [1, 2]}, num_runs=2, seed=1)
        calls = []

        def counting(params, num_runs, seed):
            calls.append(params["x"])
            return _cheap_point(params, num_runs, seed)

        run_sweep(
            spec2, batch_point_function=counting, cache_dir=tmp_path
        )
        # Only the new point was measured (once per point), never x = 1.
        assert calls == [2]

    def test_cache_files_valid_json(self, tmp_path):
        spec = SweepSpec(grid={"x": [7]}, num_runs=1, seed=0)
        run_sweep(spec, batch_point_function=_cheap_point, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        assert payload["params"] == {"x": 7}
        assert len(payload["values"]) == 1

    def test_truncated_cache_file_raises_cache_integrity_error(
        self, tmp_path
    ):
        spec = SweepSpec(grid={"x": [7]}, num_runs=1, seed=0)
        run_sweep(spec, batch_point_function=_cheap_point, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        # Simulate a crash mid-write / disk truncation.
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(CacheIntegrityError) as excinfo:
            run_sweep(
                spec, batch_point_function=_cheap_point, cache_dir=tmp_path
            )
        message = str(excinfo.value)
        assert path.name in message
        assert "delete it to re-measure" in message

    def test_cache_file_missing_key_raises_cache_integrity_error(
        self, tmp_path
    ):
        spec = SweepSpec(grid={"x": [7]}, num_runs=1, seed=0)
        run_sweep(spec, batch_point_function=_cheap_point, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        del payload["values"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheIntegrityError):
            run_sweep(
                spec, batch_point_function=_cheap_point, cache_dir=tmp_path
            )

    def test_point_key_stable_under_ordering(self):
        assert _point_key({"a": 1, "b": 2}) == _point_key({"b": 2, "a": 1})

    def test_bad_seed_type(self):
        spec = SweepSpec(grid={"x": [1]}, seed=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="stable"):
            run_sweep(spec, batch_point_function=_cheap_point)

    def test_tuple_seed_order_matters(self):
        """Regression: (1, 2) and (2, 1) used to collapse (summed)."""
        a = run_sweep(
            SweepSpec(grid={"x": [1]}, num_runs=6, seed=(1, 2)),
            batch_point_function=_cheap_point,
        )
        b = run_sweep(
            SweepSpec(grid={"x": [1]}, num_runs=6, seed=(2, 1)),
            batch_point_function=_cheap_point,
        )
        assert a[0].values != b[0].values

    def test_int_seed_entropy_unchanged(self):
        """Int seeds keep their historical single-entry entropy."""
        assert _seed_entropy(7) == [7]
        assert _seed_entropy(None) == [0]
        assert _seed_entropy((3, 4)) == [3, 4]

    def test_workers_match_sequential(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=3, seed=8)
        sequential = run_sweep(spec, batch_point_function=_cheap_point)
        parallel = run_sweep(
            spec, batch_point_function=_cheap_point, workers=2
        )
        assert [p.values for p in sequential] == [
            p.values for p in parallel
        ]

    def test_workers_populate_cache(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2]}, num_runs=2, seed=1)
        run_sweep(
            spec,
            batch_point_function=_cheap_point,
            cache_dir=tmp_path,
            workers=2,
        )
        assert len(list(tmp_path.glob("*.json"))) == 2
        calls = []

        def spy(params, num_runs, seed):
            calls.append(params)
            return (0.0,) * num_runs

        run_sweep(spec, batch_point_function=spy, cache_dir=tmp_path)
        assert not calls

    def test_cache_written_incrementally(self, tmp_path):
        """An interrupted sweep must keep every finished point."""
        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=1, seed=0)
        seen = []

        def explodes_on_third(params, num_runs, seed):
            seen.append(params["x"])
            if len(seen) == 3:
                raise RuntimeError("boom")
            return (float(params["x"]),) * num_runs

        with pytest.raises(RuntimeError):
            run_sweep(
                spec,
                batch_point_function=explodes_on_third,
                cache_dir=tmp_path,
            )
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_rejects_nonpositive_workers(self):
        spec = SweepSpec(grid={"x": [1]})
        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep(spec, batch_point_function=_cheap_point, workers=0)

    def test_rejects_bad_on_error(self):
        spec = SweepSpec(grid={"x": [1]})
        with pytest.raises(ConfigurationError, match="on_error"):
            run_sweep(
                spec, batch_point_function=_cheap_point, on_error="ignore"
            )

    def test_raise_names_the_offending_point(self):
        """A failing point must identify itself, not raise bare."""
        from repro.errors import SweepPointError

        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=1, seed=0)
        with pytest.raises(SweepPointError, match="'x': 3") as info:
            run_sweep(spec, batch_point_function=_explodes_on_x3)
        assert info.value.params == {"x": 3}
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "boom" in str(info.value)

    def test_parallel_raise_names_the_offending_point(self):
        from repro.errors import SweepPointError

        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=1, seed=0)
        with pytest.raises(SweepPointError, match="'x': 3"):
            run_sweep(
                spec, batch_point_function=_explodes_on_x3, workers=2
            )

    def test_skip_records_failure_and_keeps_going(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2, 3, 4]}, num_runs=1, seed=0)
        points = run_sweep(
            spec,
            batch_point_function=_explodes_on_x3,
            cache_dir=tmp_path,
            on_error="skip",
        )
        assert [p.params["x"] for p in points] == [1, 2, 3, 4]
        failed = points[2]
        assert failed.failed
        assert "boom" in failed.error
        assert failed.values == ()
        assert np.isnan(failed.median)
        assert all(not p.failed for i, p in enumerate(points) if i != 2)
        # Failures are never cached: a resume retries the point.
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_skip_parallel(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2, 3, 4]}, num_runs=1, seed=0)
        points = run_sweep(
            spec,
            batch_point_function=_explodes_on_x3,
            cache_dir=tmp_path,
            on_error="skip",
            workers=2,
        )
        assert [p.failed for p in points] == [
            False, False, True, False,
        ]
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_progress_reports_every_point(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=1, seed=0)
        run_sweep(
            spec, batch_point_function=_cheap_point, cache_dir=tmp_path
        )
        calls = []
        # Second run: all three points come from the cache and must
        # still be reported.
        points = run_sweep(
            spec,
            batch_point_function=_cheap_point,
            cache_dir=tmp_path,
            progress=lambda done, total, point: calls.append(
                (done, total, point.params["x"])
            ),
        )
        assert [c[:2] for c in calls] == [(1, 3), (2, 3), (3, 3)]
        assert [c[2] for c in calls] == [1, 2, 3]
        assert len(points) == 3

    def test_progress_counts_skipped_failures(self):
        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=1, seed=0)
        calls = []
        run_sweep(
            spec,
            batch_point_function=_explodes_on_x3,
            on_error="skip",
            progress=lambda done, total, point: calls.append(done),
        )
        assert calls == [1, 2, 3]

    def test_atomic_cache_write_leaves_no_temp_files(self, tmp_path):
        spec = SweepSpec(grid={"x": [1, 2]}, num_runs=1, seed=0)
        run_sweep(
            spec, batch_point_function=_cheap_point, cache_dir=tmp_path
        )
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob(".*"))

    def test_two_processes_hammering_one_cache_dir(self, tmp_path):
        """Concurrent resumers must never interleave a torn write.

        Two subprocesses run the same sweep against one cache dir at
        the same time; afterwards every cache file must parse as
        complete JSON and both processes must have computed identical
        values (each point owns its seed stream, so last-writer-wins
        races are value-neutral).
        """
        from concurrent.futures import ProcessPoolExecutor

        grid_size = 12
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(
                    _hammer_shared_cache,
                    [(str(tmp_path), grid_size)] * 2,
                )
            )
        assert results[0] == results[1]
        cache_files = list(tmp_path.glob("*.json"))
        assert len(cache_files) == grid_size
        for path in cache_files:
            payload = json.loads(path.read_text())  # must not be torn
            assert len(payload["values"]) == 2
        assert not list(tmp_path.glob("*.tmp"))

    def test_parallel_failure_keeps_finished_points(self, tmp_path):
        """A failing point must not lose the other finished points.

        Regression for the head-of-line-blocking consumption pattern:
        results are consumed with ``as_completed``, every finished
        point is cached, and the first error surfaces afterwards.
        """
        spec = SweepSpec(grid={"x": [1, 2, 3]}, num_runs=1, seed=0)
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(
                spec,
                batch_point_function=_explodes_on_x3,
                cache_dir=tmp_path,
                workers=2,
            )
        cached = [
            json.loads(p.read_text())["params"]["x"]
            for p in tmp_path.glob("*.json")
        ]
        assert sorted(cached) == [1, 2]


class TestSpecFromParams:
    def test_builds_validated_spec(self):
        spec = spec_from_params(
            {"dynamics": "2-choices", "n": 256, "k": 4, "max_rounds": 99}
        )
        assert spec.n == 256
        assert spec.round_budget() == 99

    def test_initial_family_passthrough(self):
        spec = spec_from_params(
            {
                "n": 256,
                "k": 4,
                "initial": "zipf",
                "initial_params": {"exponent": 2.0},
            }
        )
        counts = spec.initial_counts()
        assert counts[0] > counts[-1]

    def test_invalid_params_raise_eagerly(self):
        with pytest.raises(ConfigurationError):
            spec_from_params({"n": 2, "k": 4})

    def test_adversary_passthrough(self):
        spec = spec_from_params(
            {
                "n": 256,
                "k": 4,
                "adversary": "runner-up",
                "adversary_budget": 3,
            }
        )
        assert spec.adversary == "runner-up"
        assert spec.adversary_budget == 3
        assert spec.resolved_adversary().budget == 3

    def test_adversary_requires_budget(self):
        with pytest.raises(ConfigurationError, match="adversary_budget"):
            spec_from_params(
                {"n": 256, "k": 4, "adversary": "runner-up"}
            )


class TestAdversarialCacheKeys:
    """Adversarial points must never collide with plain points."""

    BASE = {"dynamics": "3-majority", "n": 256, "k": 4}

    def test_adversarial_key_differs_from_plain(self):
        plain = _point_key(self.BASE)
        attacked = _point_key(
            {**self.BASE, "adversary": "runner-up", "adversary_budget": 2}
        )
        assert plain != attacked

    def test_keys_differ_across_budgets(self):
        keys = {
            _point_key(
                {
                    **self.BASE,
                    "adversary": "runner-up",
                    "adversary_budget": budget,
                }
            )
            for budget in (0, 1, 2, 64)
        }
        assert len(keys) == 4

    def test_keys_differ_across_strategies(self):
        keys = {
            _point_key(
                {
                    **self.BASE,
                    "adversary": name,
                    "adversary_budget": 2,
                }
            )
            for name in ("random", "runner-up", "revive-weakest")
        }
        assert len(keys) == 3

    def test_budget_axis_cache_files_distinct(self, tmp_path):
        spec = SweepSpec(
            grid={"adversary_budget": [0, 2]},
            fixed={
                "dynamics": "3-majority",
                "n": 256,
                "k": 4,
                "adversary": "runner-up",
            },
            num_runs=2,
            seed=3,
        )
        points = run_sweep(spec, cache_dir=tmp_path)
        assert len(points) == 2
        assert len(list(tmp_path.glob("*.json"))) == 2
        by_budget = {
            p.params["adversary_budget"]: p.values for p in points
        }
        assert set(by_budget) == {0, 2}
        assert all(v > 0 for v in by_budget[0])
        assert all(v > 0 for v in by_budget[2])


class TestConsensusTimesPointBatch:
    """The default point function on the chains a point can name."""

    @pytest.mark.parametrize("dynamics", ["3-majority", "2-choices"])
    def test_measures_real_dynamics(self, dynamics):
        values = consensus_times_point_batch(
            {"dynamics": dynamics, "n": 512, "k": 4}, 3, (0,)
        )
        assert len(values) == 3
        assert all(np.isfinite(v) and v > 0 for v in values)

    def test_censoring_returns_nan(self):
        values = consensus_times_point_batch(
            {"dynamics": "2-choices", "n": 4096, "k": 512,
             "max_rounds": 2},
            3,
            (0,),
        )
        assert len(values) == 3
        assert all(np.isnan(v) for v in values)

    def test_end_to_end_sweep(self, tmp_path):
        spec = SweepSpec(
            grid={"k": [2, 8]},
            fixed={"n": 512, "dynamics": "3-majority"},
            num_runs=2,
            seed=3,
        )
        results = run_sweep(spec, cache_dir=tmp_path)
        medians = {p.params["k"]: p.median for p in results}
        assert medians[8] > 0 and medians[2] > 0

    def test_adversarial_point_measures_threshold_time(self):
        values = consensus_times_point_batch(
            {
                "dynamics": "3-majority",
                "n": 512,
                "k": 4,
                "adversary": "runner-up",
                "adversary_budget": 2,
            },
            3,
            (0,),
        )
        assert all(np.isfinite(v) and v > 0 for v in values)

    def test_adversarial_point_can_censor(self):
        """A huge stalling budget exhausts the window -> NaN.

        With F = 30 on n = 512, k = 2 the adversary re-pins the top two
        opinions together after every round (gap <= 2F is halved to
        <= 1), so the n - 4F = 392 threshold stays out of reach.
        """
        values = consensus_times_point_batch(
            {
                "dynamics": "3-majority",
                "n": 512,
                "k": 2,
                "max_rounds": 300,
                "adversary": "runner-up",
                "adversary_budget": 30,
            },
            3,
            (0,),
        )
        assert all(np.isnan(v) for v in values)

    def test_huge_budget_is_not_an_instant_success(self):
        """The majority floor keeps n - 4F thresholds meaningful.

        With F = 200 on n = 1000, k = 2 the raw n - 4F = 200 threshold
        would be satisfied by the balanced start itself, reporting the
        strongest adversary as an instant (round-0) success.
        """
        values = consensus_times_point_batch(
            {
                "dynamics": "3-majority",
                "n": 1000,
                "k": 2,
                "max_rounds": 300,
                "adversary": "runner-up",
                "adversary_budget": 200,
            },
            3,
            (0,),
        )
        # A stall, not a round-0 "success".
        assert all(np.isnan(v) for v in values)

    def test_async_engine_point(self):
        """engine='async' measures the tick chain in sync-equiv rounds."""
        values = consensus_times_point_batch(
            {"dynamics": "3-majority", "n": 128, "k": 2,
             "engine": "async"},
            3,
            (0,),
        )
        assert all(np.isfinite(v) and v > 0 for v in values)

    def test_async_engine_point_can_censor(self):
        values = consensus_times_point_batch(
            {"dynamics": "3-majority", "n": 512, "k": 64,
             "engine": "async", "max_rounds": 1},
            3,
            (0,),
        )
        assert all(np.isnan(v) for v in values)


class TestSpecFromParamsEngines:
    BASE = {"dynamics": "3-majority", "n": 256, "k": 4}

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="chain family"):
            spec_from_params({**self.BASE, "engine": "batch"})

    def test_rejects_graph_with_non_agent_engine(self):
        with pytest.raises(ConfigurationError, match="agent chain"):
            spec_from_params(
                {
                    **self.BASE,
                    "graph": "random-regular",
                    "degree": 4,
                    "engine": "async",
                }
            )

    @pytest.mark.parametrize(
        "engine, batch_engine",
        [
            (None, "batch"),
            ("population", "batch"),
            ("async", "async-batch"),
        ],
    )
    def test_batch_measure_maps_to_sibling(self, engine, batch_engine):
        params = dict(self.BASE)
        if engine is not None:
            params["engine"] = engine
        spec = spec_from_params(params, replicas=6, seed=(1, 2))
        assert spec.engine == batch_engine
        assert spec.replicas == 6

    def test_batch_measure_graph_point_maps_to_agent_batch(self):
        spec = spec_from_params(
            {
                **self.BASE,
                "graph": "random-regular",
                "degree": 4,
            },
            replicas=3,
        )
        assert spec.engine == "agent-batch"
        assert spec.graph is not None

    def test_batch_measure_adversarial_point_carries_target(self):
        spec = spec_from_params(
            {
                **self.BASE,
                "adversary": "runner-up",
                "adversary_budget": 2,
            },
            replicas=3,
        )
        assert spec.engine == "batch"
        assert spec.target is not None
        # F = 0 cannot stall strict consensus: no target.
        assert spec_from_params(
            {
                **self.BASE,
                "adversary": "runner-up",
                "adversary_budget": 0,
            }
        ).target is None

    def test_random_initial_family_start_is_seed_independent(self):
        """Dirichlet starts are a function of the params alone.

        The spec carries a measurement seed, which must not leak into
        the initial configuration: every replica, under every sweep
        seed, starts from the draw of the default spec seed.
        """
        params = {**self.BASE, "initial": "dirichlet"}
        default_draw = SimulationSpec(
            n=256, k=4, initial="dirichlet"
        ).initial_counts()
        for seed in ((9, 9, 9), (1,)):
            start = spec_from_params(
                params, replicas=4, seed=seed
            ).initial_counts()
            assert (start == default_draw).all()


class TestBatchMeasurement:
    """run_sweep measures every point through the batch engines."""

    POINT = {"dynamics": "3-majority", "n": 512}

    def test_default_measure_is_batch(self, tmp_path):
        """The default point function caches under the versioned batch
        key, not the parameters-only key."""
        spec = SweepSpec(
            grid={"k": [4]}, fixed=self.POINT, num_runs=3, seed=0
        )
        run_sweep(spec, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        assert payload["measure"] == "batch"
        params = {**self.POINT, "k": 4}
        assert path.stem == _point_key(params)
        assert path.stem != _params_only_key(params)

    def test_point_key_versioned_measure_field(self):
        """The key hashes the params plus ``__measure__: batch/v1``."""
        params = {**self.POINT, "k": 4}
        versioned = {**params, "__measure__": "batch/v1"}
        assert _point_key(params) == _params_only_key(versioned)
        assert _point_key(params) != _params_only_key(params)

    @pytest.mark.parametrize(
        "params, key",
        [
            pytest.param(
                {"dynamics": "3-majority", "n": 512, "k": 4},
                "b8ed6986d04f20f1",
                id="population",
            ),
            pytest.param(
                {"dynamics": "2-choices", "n": 256, "k": 4,
                 "graph": "random-regular", "degree": 4},
                "9d6deaa33a4821d8",
                id="graph",
            ),
            pytest.param(
                {"dynamics": "3-majority", "n": 512, "k": 4,
                 "engine": "async"},
                "bef673e1cd2241ed",
                id="async",
            ),
            pytest.param(
                {"dynamics": "3-majority", "n": 512, "k": 4,
                 "adversary": "runner-up", "adversary_budget": 2},
                "61c3eef3027d1161",
                id="adversarial",
            ),
        ],
    )
    def test_point_key_is_pinned(self, params, key):
        """Warm caches carry over: a point's file name never drifts."""
        assert _point_key(params) == key

    def test_old_sequential_cache_file_is_ignored(self, tmp_path):
        """A params-only-keyed file from an old sequential sweep is
        never read: the point is re-measured under its batch key."""
        spec = SweepSpec(
            grid={"k": [4]}, fixed=self.POINT, num_runs=3, seed=0
        )
        params = {**self.POINT, "k": 4}
        old = tmp_path / f"{_params_only_key(params)}.json"
        old_document = json.dumps(
            {
                "params": params,
                "values": [-1.0, -1.0, -1.0],
                "measure": "sequential",
            }
        )
        old.write_text(old_document)
        (point,) = run_sweep(spec, cache_dir=tmp_path)
        assert point.values == run_sweep(spec)[0].values
        assert all(v > 0 for v in point.values)
        new = tmp_path / f"{_point_key(params)}.json"
        assert json.loads(new.read_text())["values"] == list(point.values)
        assert old.read_text() == old_document

    @pytest.mark.parametrize("measure", ["sequential", "vectorised"])
    def test_rejects_other_measure(self, measure):
        spec = SweepSpec(grid={"x": [1]})
        with pytest.raises(ConfigurationError, match="measure"):
            run_sweep(spec, measure=measure)

    def test_batch_censored_rows_are_nan(self):
        spec = SweepSpec(
            grid={"k": [512]},
            fixed={"dynamics": "2-choices", "n": 4096, "max_rounds": 2},
            num_runs=3,
            seed=0,
        )
        (point,) = run_sweep(spec, measure="batch")
        assert all(np.isnan(v) for v in point.values)
        assert point.censored == 3

    def test_batch_point_function_direct(self):
        values = consensus_times_point_batch(
            {**self.POINT, "k": 4}, 5, (1, 2, 3)
        )
        assert len(values) == 5
        assert all(v > 0 for v in values)
        # Declarative seed: same entropy, same values.
        assert values == consensus_times_point_batch(
            {**self.POINT, "k": 4}, 5, (1, 2, 3)
        )

    def test_batch_workers_match_serial(self, tmp_path):
        spec = SweepSpec(
            grid={"k": [2, 4]}, fixed=self.POINT, num_runs=3, seed=5
        )
        serial = run_sweep(spec, measure="batch")
        parallel = run_sweep(spec, measure="batch", workers=2)
        assert [p.values for p in serial] == [
            p.values for p in parallel
        ]

    def test_async_points_measure_batched(self):
        spec = SweepSpec(
            grid={"k": [2, 4]},
            fixed={"dynamics": "3-majority", "n": 128, "engine": "async"},
            num_runs=3,
            seed=2,
        )
        points = run_sweep(spec)  # default batch -> async-batch
        for point in points:
            assert point.censored == 0
            assert point.median > 0
