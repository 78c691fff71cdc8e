"""Compute-backend layer: registry, kernels, threading, equivalence.

Four groups:

* registry semantics — registration, lookup, fail-closed detection,
  the env default, the ambient ``use_backend`` context and the
  unavailable-backend error path (all numpy-only);
* kernel logic — the numba kernel *source* run in pure Python via
  identity decorators against the NumPy reference implementations,
  including the edge cases (h=1, one-hot rows, bitwise agreement) and
  the h > 127 widening regression (all numpy-only, so the loop
  bodies stay verified even where numba is not installed);
* wiring — spec/builder/CLI/sweep carry the backend dimension and
  sweep points cache per backend;
* NumPy-vs-Numba equivalence — KS tests across the batch, agent-batch
  and async-batch engines plus compiled-kernel unit checks.  These
  require numba and are *skipped* (never failed) without it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.backends import (
    AUTO_BACKEND,
    BACKEND_ENV_VAR,
    NumbaBackend,
    active_backend,
    available_backends,
    backend_available,
    default_backend,
    detect_backend,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
    use_backend,
)
from repro.backends.numba_kernels import KERNEL_NAMES, build_kernels
from repro.backends.registry import _clear_default_cache
from repro.core import (
    HMajority,
    ThreeMajority,
    Voter,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
)
from repro.core.h_majority import majority_winners
from repro.engine import (
    AsyncBatchPopulationEngine,
    BatchAgentEngine,
    BatchPopulationEngine,
)
from repro.errors import BackendUnavailableError, ConfigurationError
from repro.graphs import make_graph
from repro.simulation import Simulation, SimulationSpec
from repro.sweep.grid import _point_key, spec_from_params

NUMBA_AVAILABLE = backend_available("numba")
needs_numba = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="numba is not installed"
)

KS_PVALUE_FLOOR = 0.01


def _identity_njit(*args, **kwargs):
    """Stand-in for ``numba.njit`` that leaves functions untouched."""
    if args and callable(args[0]):
        return args[0]

    def deco(fn):
        return fn

    return deco


@pytest.fixture
def pure_kernels():
    """The numba kernel bodies as plain Python functions."""
    return build_kernels(_identity_njit, range)


@pytest.fixture(autouse=True)
def _unpolluted_backend_registry():
    """Snapshot the registry so dummy registrations never leak."""
    before = set(available_backends())
    yield
    for name in set(available_backends()) - before:
        unregister_backend(name)
    _clear_default_cache()


class _DummyBackend:
    name = "dummy"
    description = "test double"
    accelerates = frozenset()

    def __init__(self, available=True, check_fails=False):
        self._available = available
        self._check_fails = check_fails
        self.unavailable_reason = "" if available else "synthetic outage"

    def is_available(self):
        return self._available

    def kernel(self, name):
        return None

    def self_check(self):
        if self._check_fails:
            raise RuntimeError("synthetic self-check failure")


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["numba", "numpy"]

    def test_numpy_backend_always_available(self):
        backend = get_backend("numpy")
        assert backend.is_available()
        assert backend.accelerates == frozenset()
        assert all(
            backend.kernel(name) is None for name in sorted(KERNEL_NAMES)
        )

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ConfigurationError, match="numpy"):
            get_backend("cuda")

    def test_duplicate_registration_rejected(self):
        register_backend("dummy", _DummyBackend)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("dummy", _DummyBackend)
        register_backend("dummy", _DummyBackend, replace=True)

    def test_reserved_and_bad_names_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend(AUTO_BACKEND, _DummyBackend)
        with pytest.raises(ConfigurationError):
            register_backend("", _DummyBackend)

    def test_unregister_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            unregister_backend("never-registered")

    def test_unavailable_backend_error_path(self):
        register_backend(
            "dummy", lambda: _DummyBackend(available=False)
        )
        assert not backend_available("dummy")
        with pytest.raises(BackendUnavailableError) as excinfo:
            get_backend("dummy")
        assert excinfo.value.backend == "dummy"
        assert "synthetic outage" in str(excinfo.value)
        # The CLI listing path still gets an instance to describe.
        assert get_backend("dummy", require_available=False) is not None

    def test_detection_fails_closed_on_self_check(self):
        register_backend(
            "dummy",
            lambda: _DummyBackend(check_fails=True),
            priority=99,
        )
        # dummy outranks everything but its self-check raises, so
        # detection must skip it rather than select it.
        assert detect_backend().name != "dummy"

    def test_detection_fails_closed_on_broken_factory(self):
        def broken():
            raise RuntimeError("factory exploded")

        register_backend("dummy", broken, priority=99)
        assert detect_backend().name != "dummy"
        assert not backend_available("dummy")

    def test_detection_prefers_verified_high_priority(self):
        register_backend("dummy", _DummyBackend, priority=99)
        _clear_default_cache()
        assert detect_backend().name == "dummy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        _clear_default_cache()
        assert default_backend().name == "numpy"

    def test_env_override_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
        _clear_default_cache()
        with pytest.raises(ConfigurationError):
            default_backend()

    def test_env_override_unavailable_raises(self, monkeypatch):
        register_backend(
            "dummy", lambda: _DummyBackend(available=False)
        )
        monkeypatch.setenv(BACKEND_ENV_VAR, "dummy")
        _clear_default_cache()
        # A pinned env backend must fail loudly, never silently fall
        # back — the user is relying on the pin.
        with pytest.raises(BackendUnavailableError):
            default_backend()

    def test_use_backend_nesting_and_inheritance(self):
        base = active_backend()
        with use_backend("numpy") as outer:
            assert active_backend() is outer
            with use_backend(None) as inherited:
                # None = inherit the ambient backend.
                assert inherited is outer
        assert active_backend() is base

    def test_resolve_backend_forms(self):
        assert resolve_backend(None) is default_backend()
        assert resolve_backend(AUTO_BACKEND) is default_backend()
        assert resolve_backend("numpy").name == "numpy"
        instance = get_backend("numpy")
        assert resolve_backend(instance) is instance
        with pytest.raises(ConfigurationError):
            resolve_backend(123)

    def test_numba_backend_advertises_expected_kernels(self):
        # Importable (and meaningful) without numba installed: the
        # capability flags are class metadata, not compiled state.
        assert NumbaBackend.accelerates == KERNEL_NAMES
        assert KERNEL_NAMES == {
            "majority_winners",
            "csr_sample_gather",
            "sample_holders",
        }

    def test_numba_unavailable_reports_reason(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; unavailable path not reachable")
        with pytest.raises(BackendUnavailableError, match="numba"):
            get_backend("numba")


# ---------------------------------------------------------------------------
# Kernel logic in pure Python against the NumPy references
# ---------------------------------------------------------------------------
class TestKernelLogic:
    def test_majority_winners_deterministic_rows(self, pure_kernels, rng):
        samples = np.array([[1, 1, 2], [3, 2, 2], [5, 5, 5]])
        out = np.empty(3, dtype=samples.dtype)
        pure_kernels["majority_winners"](samples, rng.random(3), out)
        assert out.tolist() == [1, 2, 5]

    def test_majority_winners_h1_is_identity(self, pure_kernels, rng):
        samples = rng.integers(0, 9, size=(50, 1))
        out = np.empty(50, dtype=samples.dtype)
        pure_kernels["majority_winners"](samples, rng.random(50), out)
        assert (out == samples[:, 0]).all()

    def test_majority_winners_tie_break_uniform(self, pure_kernels, rng):
        rows = np.tile([0, 0, 1, 1], (4000, 1))
        out = np.empty(4000, dtype=rows.dtype)
        pure_kernels["majority_winners"](rows, rng.random(4000), out)
        frac = out.mean()
        assert 0.45 < frac < 0.55

    def test_csr_kernel_samples_true_neighbors(self, pure_kernels):
        graph = make_graph("random-regular", 30, degree=4, seed=1)
        indptr, indices = graph.csr_kernel_tables()
        opinions = (np.arange(60).reshape(2, 30) % 7).astype(np.int16)
        out = np.empty((3, 2, 30), dtype=opinions.dtype)
        with np.errstate(over="ignore"):
            pure_kernels["csr_sample_gather"](
                indptr, indices, np.ascontiguousarray(opinions),
                np.uint64(11), out,
            )
        for row in range(2):
            for vertex in range(30):
                neighbors = opinions[
                    row, indices[indptr[vertex]:indptr[vertex + 1]]
                ]
                assert set(out[:, row, vertex]) <= set(neighbors)

    def test_sample_holders_kernel_bitwise_vs_reference(
        self, pure_kernels
    ):
        counts = np.random.default_rng(5).integers(1, 50, size=(32, 6))
        reference = sample_holders_batch(
            counts, 4, np.random.default_rng(7)
        )
        c64 = np.ascontiguousarray(counts, dtype=np.int64)
        draws = np.random.default_rng(7).integers(
            0, c64.sum(axis=1, keepdims=True), size=(32, 4)
        )
        out = np.empty_like(draws)
        pure_kernels["sample_holders"](c64, draws, out)
        assert (reference == out).all()

    def test_bounded_draw_is_exact_and_in_range(self, pure_kernels):
        bounded = pure_kernels["_bounded"]
        state = np.uint64(424242)
        seen = np.zeros(7, dtype=np.int64)
        with np.errstate(over="ignore"):
            for _ in range(7000):
                state, value = bounded(state, np.uint64(7))
                seen[int(value)] += 1
        assert seen.sum() == 7000
        # Exact uniformity: each cell ~1000; 5-sigma band ~±150.
        assert seen.min() > 800 and seen.max() < 1200


# ---------------------------------------------------------------------------
# The h > 127 widening regression (satellite fix)
# ---------------------------------------------------------------------------
class TestWideHRegression:
    def test_majority_winners_h_above_int8_range(self, rng):
        # 128 occurrences of the majority label: int8 scratch would
        # wrap to -128 and argmax would crown the minority.
        h = 130
        row = np.array([0] * 128 + [1] * 2)
        samples = np.tile(row, (64, 1))
        assert samples.shape[1] == h
        winners = majority_winners(samples, rng)
        assert (winners == 0).all()

    def test_hmajority_population_step_wide_h(self, rng):
        dynamics = HMajority(130)
        counts = np.array([180, 20], dtype=np.int64)
        stepped = dynamics.population_step(counts, rng)
        assert stepped.sum() == 200
        # With h=130 samples per vertex at alpha=0.9, every vertex sees
        # a label-0 majority essentially surely.
        assert stepped[0] == 200

    def test_pure_kernel_wide_h(self, pure_kernels, rng):
        row = np.array([0] * 128 + [1] * 2)
        samples = np.tile(row, (16, 1))
        out = np.empty(16, dtype=samples.dtype)
        pure_kernels["majority_winners"](samples, rng.random(16), out)
        assert (out == 0).all()


# ---------------------------------------------------------------------------
# Spec / builder / sweep / CLI wiring
# ---------------------------------------------------------------------------
class TestWiring:
    def test_spec_default_backend_is_auto(self):
        spec = SimulationSpec(n=100, k=2)
        assert spec.backend == AUTO_BACKEND
        assert AUTO_BACKEND not in spec.describe()

    def test_spec_accepts_registered_backend(self):
        spec = SimulationSpec(n=100, k=2, backend="numpy")
        assert spec.backend == "numpy"
        assert "backend=numpy" in spec.describe()

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            SimulationSpec(n=100, k=2, backend="no-such-backend")

    def test_spec_rejects_non_string_backend(self):
        with pytest.raises(ConfigurationError, match="declarative"):
            SimulationSpec(n=100, k=2, backend=get_backend("numpy"))

    def test_spec_unavailable_backend_raises_eagerly(self):
        if NUMBA_AVAILABLE:
            spec = SimulationSpec(n=100, k=2, backend="numba")
            assert spec.backend == "numba"
        else:
            with pytest.raises(BackendUnavailableError):
                SimulationSpec(n=100, k=2, backend="numba")

    def test_builder_backend_round_trip(self):
        spec = (
            Simulation.of("3-majority")
            .n(1000)
            .k(5)
            .replicas(4)
            .batch()
            .backend("numpy")
            .build()
        )
        assert spec.backend == "numpy"
        assert Simulation.from_spec(spec).build().backend == "numpy"

    def test_spec_runs_under_pinned_numpy_backend(self):
        results = (
            Simulation.of("3-majority")
            .n(500)
            .k(4)
            .replicas(6)
            .batch()
            .seed(3)
            .backend("numpy")
            .run()
        )
        assert results.num_converged == 6

    def test_engine_backend_knob_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            BatchPopulationEngine(
                ThreeMajority(),
                np.array([50, 50]),
                num_replicas=4,
                backend="no-such-backend",
            )

    def test_engine_backend_knob_pins_instance(self):
        engine = BatchPopulationEngine(
            ThreeMajority(),
            np.array([50, 50]),
            num_replicas=4,
            seed=0,
            backend="numpy",
        )
        assert engine.backend.name == "numpy"
        engine.step()
        assert (engine.counts.sum(axis=1) == 100).all()

    def test_sweep_params_carry_backend(self):
        spec = spec_from_params({"n": 200, "k": 2, "backend": "numpy"})
        assert spec.backend == "numpy"
        default = spec_from_params({"n": 200, "k": 2})
        assert default.backend == AUTO_BACKEND

    def test_sweep_cache_keys_distinct_per_backend(self):
        base = {"n": 200, "k": 2}
        keys = {
            _point_key(base),
            _point_key({**base, "backend": "numpy"}),
            _point_key({**base, "backend": "numba"}),
        }
        assert len(keys) == 3

    def test_cli_backends_subcommand(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "numba" in out
        assert "[default]" in out

    def test_cli_simulate_backend_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--n", "500", "--k", "3",
                "--replicas", "4",
                "--engine", "batch",
                "--backend", "numpy",
            ]
        )
        assert code == 0
        assert "consensus time" in capsys.readouterr().out

    def test_cli_simulate_unavailable_backend_is_clean_error(
        self, capsys
    ):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; unavailable path not reachable")
        from repro.cli import main

        code = main(
            ["simulate", "--n", "100", "--k", "2", "--backend", "numba"]
        )
        assert code == 2
        assert "not available" in capsys.readouterr().out

    def test_cli_sweep_backend_axis(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep",
            "--dynamics", "3-majority",
            "--n", "200", "--k", "2",
            "--runs", "2",
            "--workers", "1",
            "--cache", str(tmp_path),
            "--backend", "numpy",
        ]
        assert main(argv) == 0
        capsys.readouterr()

    def test_execute_installs_spec_backend(self):
        from repro.engine.registry import register_engine, unregister_engine
        from repro.simulation.run import execute

        seen = {}

        def probe_engine(spec):
            seen["backend"] = active_backend().name
            return []

        try:
            register_engine(
                "backend-probe", probe_engine, description="probe"
            )
            execute(
                SimulationSpec(
                    n=10, k=2, engine="backend-probe", backend="numpy"
                )
            )
        finally:
            unregister_engine("backend-probe")
        assert seen["backend"] == "numpy"


# ---------------------------------------------------------------------------
# NumPy-vs-Numba equivalence (skipped without numba, never failed)
# ---------------------------------------------------------------------------
def _consensus_times(engine_name, dynamics, backend, seed):
    builder = (
        Simulation.of(dynamics)
        .n(300)
        .k(5)
        .replicas(60)
        .engine(engine_name)
        .seed(seed)
        .backend(backend)
    )
    if engine_name == "agent-batch":
        builder.on_graph(
            make_graph("random-regular", 300, degree=8, seed=2)
        ).engine(engine_name)
    results = builder.run()
    return np.asarray(results.consensus_times, dtype=float)


@needs_numba
class TestNumbaEquivalence:
    @pytest.mark.parametrize(
        "engine_name,dynamics",
        [
            ("async-batch", "5-majority"),
            ("batch", "3-majority"),
            ("agent-batch", "voter"),
            ("agent-batch", "3-majority"),
            ("async-batch", "3-majority"),
        ],
    )
    def test_consensus_time_ks_equivalence(self, engine_name, dynamics):
        numpy_times = _consensus_times(engine_name, dynamics, "numpy", 11)
        numba_times = _consensus_times(engine_name, dynamics, "numba", 17)
        assert not np.isnan(numpy_times).any()
        assert not np.isnan(numba_times).any()
        _, p_value = ks_2samp(numpy_times, numba_times)
        assert p_value > KS_PVALUE_FLOOR

    def test_compiled_majority_winners_matches_reference_law(self):
        kernel = get_backend("numba").kernel("majority_winners")
        samples = np.array([[1, 1, 2], [3, 2, 2], [5, 5, 5]], np.int64)
        winners = kernel(samples, np.random.default_rng(0))
        assert winners.tolist() == [1, 2, 5]
        # h=1 edge: identity regardless of the tie-break stream.
        single = np.random.default_rng(1).integers(0, 5, size=(40, 1))
        assert (
            kernel(single, np.random.default_rng(2)) == single[:, 0]
        ).all()

    def test_compiled_holders_bitwise_equal_reference(self):
        counts = np.random.default_rng(5).integers(1, 50, size=(32, 6))
        with use_backend("numpy"):
            reference = sample_holders_batch(
                counts, 4, np.random.default_rng(7)
            )
        with use_backend("numba"):
            accelerated = sample_holders_batch(
                counts, 4, np.random.default_rng(7)
            )
        assert (reference == accelerated).all()

    def test_compiled_csr_gather_samples_true_neighbors(self):
        graph = make_graph("random-regular", 50, degree=6, seed=3)
        opinions = (
            np.random.default_rng(0).integers(0, 4, size=(4, 50))
        ).astype(np.int16)
        with use_backend("numba"):
            gathered = sample_and_gather_neighbor_opinions_batch(
                opinions, graph, 3, np.random.default_rng(1)
            )
        assert gathered.shape == (3, 4, 50)
        indptr, indices = graph.csr_kernel_tables()
        for row in range(4):
            for vertex in range(50):
                neighbors = set(
                    opinions[row, indices[indptr[vertex]:indptr[vertex + 1]]]
                )
                assert set(gathered[:, row, vertex]) <= neighbors

    def test_all_frozen_rows_are_fixed_points(self):
        consensus = np.array([[100, 0], [0, 100]], dtype=np.int64)
        engine = BatchPopulationEngine(
            HMajority(5), consensus, seed=0, backend="numba"
        )
        assert engine.all_consensus()
        engine.step()
        assert (engine.counts == consensus).all()

    def test_async_engine_under_numba(self):
        engine = AsyncBatchPopulationEngine(
            ThreeMajority(),
            np.array([40, 60]),
            num_replicas=8,
            seed=4,
            backend="numba",
        )
        engine.run_until_consensus(max_ticks=200_000)
        assert engine.frozen.all()

    def test_agent_engine_under_numba_preserves_mass(self):
        graph = make_graph("random-regular", 120, degree=6, seed=5)
        opinions = np.random.default_rng(0).integers(
            0, 3, size=120
        )
        engine = BatchAgentEngine(
            Voter(),
            graph,
            opinions,
            num_replicas=6,
            num_opinions=3,
            seed=1,
            backend="numba",
        )
        engine.step()
        assert engine.opinions.shape == (6, 120)
        assert int(engine.opinions.max()) < 3
