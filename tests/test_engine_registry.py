"""Tests for the string-keyed engine registry.

The acceptance bar for the registry refactor: adding a registry entry is
the *only* step needed to expose a new engine to specs (validation,
capability checks) and the dispatcher, and the built-in engines all
dispatch through it.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    RunResult,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.errors import ConfigurationError
from repro.simulation import SimulationSpec, execute

#: Every engine the package registers; each adapter honours on_budget.
BUILTIN_ENGINES = (
    "population",
    "agent",
    "async",
    "batch",
    "agent-batch",
    "async-batch",
)


class TestRegistryContents:
    def test_builtin_engines_registered(self):
        assert set(available_engines()) >= {
            "population",
            "agent",
            "async",
            "batch",
        }

    def test_get_engine_returns_info(self):
        info = get_engine("batch")
        assert info.name == "batch"
        assert callable(info.run)
        assert info.supports_target
        assert info.supports_adversary

    def test_unknown_engine_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            get_engine("warp")
        with pytest.raises(ConfigurationError, match="population"):
            get_engine("warp")

    def test_capability_flags_match_engine_semantics(self):
        assert get_engine("agent").supports_graph
        assert not get_engine("population").supports_graph
        assert not get_engine("async").supports_target

    @pytest.mark.parametrize(
        "alias, engine",
        [
            ("population", "batch"),
            ("agent", "agent-batch"),
            ("async", "async-batch"),
        ],
    )
    def test_each_chain_name_runs_its_batch_engine(self, alias, engine):
        aliased, canonical = get_engine(alias), get_engine(engine)
        assert aliased.run is canonical.run
        assert "another name for " + engine in aliased.description
        for flag in ("graph", "target", "adversary"):
            assert getattr(aliased, f"supports_{flag}") == getattr(
                canonical, f"supports_{flag}"
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine("population", lambda spec: [])

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            register_engine("", lambda spec: [])

    def test_capability_flags_fail_closed_by_default(self):
        """An engine must declare what its runner honours; defaults
        reject target/adversary specs instead of silently ignoring
        those dimensions."""
        register_engine("bare", lambda spec: [])
        try:
            info = get_engine("bare")
            assert not info.supports_target
            assert not info.supports_adversary
            assert not info.supports_graph
            with pytest.raises(ConfigurationError, match="target"):
                SimulationSpec(
                    n=100, k=4, engine="bare", target=lambda c: True
                )
            with pytest.raises(ConfigurationError, match="adversary"):
                SimulationSpec(
                    n=100,
                    k=4,
                    engine="bare",
                    adversary="random",
                    adversary_budget=1,
                )
        finally:
            unregister_engine("bare")


class TestPluggableEngine:
    """A registry entry alone exposes a new engine to the spec layer."""

    @pytest.fixture
    def toy_engine(self):
        def run(spec):
            counts = spec.initial_counts()
            return [
                RunResult(
                    converged=True,
                    rounds=1,
                    winner=0,
                    final_counts=counts,
                )
                for _ in range(spec.replicas)
            ]

        register_engine(
            "toy",
            run,
            description="test double",
            supports_target=False,
            supports_adversary=False,
        )
        try:
            yield
        finally:
            unregister_engine("toy")

    def test_spec_accepts_and_executes_registered_engine(self, toy_engine):
        spec = SimulationSpec(n=100, k=4, engine="toy", replicas=3)
        results = execute(spec)
        assert len(results) == 3
        assert results.num_converged == 3

    def test_capabilities_enforced_from_entry(self, toy_engine):
        with pytest.raises(ConfigurationError, match="target"):
            SimulationSpec(
                n=100, k=4, engine="toy", target=lambda c: True
            )
        with pytest.raises(ConfigurationError, match="adversary"):
            SimulationSpec(
                n=100,
                k=4,
                engine="toy",
                adversary="random",
                adversary_budget=1,
            )

    def test_appears_in_available_engines(self, toy_engine):
        assert "toy" in available_engines()

    def test_on_budget_raise_is_uniform(self):
        """The dispatcher applies on_budget without engine knowledge."""

        def never_converges(spec):
            return [
                RunResult(
                    converged=False,
                    rounds=spec.round_budget(),
                    winner=None,
                    final_counts=spec.initial_counts(),
                )
            ]

        register_engine("stuck", never_converges)
        try:
            from repro.errors import ConsensusNotReached

            with pytest.raises(ConsensusNotReached):
                execute(
                    SimulationSpec(
                        n=100, k=4, engine="stuck", on_budget="raise"
                    )
                )
        finally:
            unregister_engine("stuck")

    @pytest.mark.parametrize("engine", BUILTIN_ENGINES)
    def test_on_budget_raise_contract_at_adapter_level(self, engine):
        """Every built-in adapter honours on_budget='raise' itself.

        Regression: the batch adapter used to return censored results
        and rely on the ``execute`` dispatcher, so direct
        ``get_engine(...).run(spec)`` callers silently got censored
        data while the other engines raised.
        """
        from repro.errors import ConsensusNotReached

        spec = SimulationSpec(
            dynamics="voter",
            n=100,
            k=4,
            engine=engine,
            replicas=3,
            max_rounds=0,  # guaranteed censoring from a split start
            on_budget="raise",
            seed=0,
        )
        with pytest.raises(ConsensusNotReached):
            get_engine(engine).run(spec)

    @pytest.mark.parametrize("engine", BUILTIN_ENGINES)
    def test_on_budget_return_yields_censored_results(self, engine):
        spec = SimulationSpec(
            dynamics="voter",
            n=100,
            k=4,
            engine=engine,
            replicas=3,
            max_rounds=0,
            on_budget="return",
            seed=0,
        )
        results = list(get_engine(engine).run(spec))
        assert len(results) == 3
        assert all(not r.converged for r in results)
        assert all(r.winner is None for r in results)

    def test_replace_flag_allows_override(self):
        original = get_engine("population")
        register_engine(
            "population",
            original.run,
            description="override",
            supports_target=original.supports_target,
            supports_adversary=original.supports_adversary,
            replace=True,
        )
        try:
            assert get_engine("population").description == "override"
        finally:
            register_engine(
                "population",
                original.run,
                description=original.description,
                supports_graph=original.supports_graph,
                supports_target=original.supports_target,
                supports_adversary=original.supports_adversary,
                replace=True,
            )

