"""Tests for ``repro.lint`` — the static contract checker.

Each rule gets a minimal violating fixture tree (asserting the exact
diagnostic), a clean fixture, and the suite covers suppression-comment
semantics, the rule registry, and an end-to-end ``repro lint`` run
over the installed package asserting zero violations.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.lint import (
    Diagnostic,
    available_rules,
    get_rule,
    register_rule,
    run_lint,
    unregister_rule,
)

ALL_RULES = {
    "rng-discipline",
    "no-row-loop",
    "registry-completeness",
    "optimize-safe-contracts",
    "spec-threading",
    "store-transaction-discipline",
}


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def lint(root: Path, rule: str) -> list[Diagnostic]:
    return run_lint([root], select=[rule])


# ---------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------


class _DummyRule:
    name = "dummy-rule"
    description = "a test rule"
    severity = "warning"

    def check(self, context):
        return []


def test_registry_register_lookup_unregister():
    try:
        register_rule(_DummyRule())
        assert "dummy-rule" in available_rules()
        assert get_rule("dummy-rule").description == "a test rule"
        with pytest.raises(ConfigurationError):
            register_rule(_DummyRule())
        register_rule(_DummyRule(), replace=True)
    finally:
        unregister_rule("dummy-rule")
    assert "dummy-rule" not in available_rules()
    with pytest.raises(ConfigurationError):
        get_rule("dummy-rule")


def test_registry_rejects_bad_severity():
    class Bad(_DummyRule):
        name = "bad-severity"
        severity = "fatal"

    with pytest.raises(ConfigurationError):
        register_rule(Bad())


def test_builtin_rules_registered():
    assert ALL_RULES <= set(available_rules())


def test_diagnostic_render_format():
    diagnostic = Diagnostic(
        path="core/base.py", line=7, rule="rng-discipline", message="boom"
    )
    assert diagnostic.render() == "core/base.py:7: rng-discipline boom"


# ---------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------


def test_rng_discipline_flags_default_rng(tmp_path):
    write_tree(
        tmp_path,
        {
            "sampler.py": """\
                import numpy as np

                def draw():
                    rng = np.random.default_rng(0)
                    return rng.integers(10)
            """
        },
    )
    (diagnostic,) = lint(tmp_path, "rng-discipline")
    assert diagnostic.render() == (
        "sampler.py:4: rng-discipline call to np.random.default_rng "
        "outside seeding.py; take a numpy.random.Generator parameter "
        "(repro.seeding.as_generator / spawn_generators) instead"
    )


def test_rng_discipline_flags_legacy_and_imports(tmp_path):
    write_tree(
        tmp_path,
        {
            "legacy.py": """\
                import numpy as np
                from numpy.random import default_rng

                def jitter(x):
                    np.random.seed(0)
                    return x + np.random.normal()
            """
        },
    )
    diagnostics = lint(tmp_path, "rng-discipline")
    assert [(d.line, d.rule) for d in diagnostics] == [
        (2, "rng-discipline"),
        (5, "rng-discipline"),
        (6, "rng-discipline"),
    ]


def test_rng_discipline_allows_seeding_and_declarative(tmp_path):
    write_tree(
        tmp_path,
        {
            "seeding.py": """\
                import numpy as np

                def as_generator(seed):
                    return np.random.default_rng(seed)
            """,
            "clean.py": """\
                import numpy as np

                def split(seed):
                    root = np.random.SeedSequence(seed)
                    return root.spawn(2)

                def step(counts, rng: np.random.Generator):
                    return rng.permutation(counts)
            """,
        },
    )
    assert lint(tmp_path, "rng-discipline") == []


# ---------------------------------------------------------------------
# no-row-loop
# ---------------------------------------------------------------------


def test_no_row_loop_flags_loop_and_missing_override(tmp_path):
    write_tree(
        tmp_path,
        {
            "core/dyn.py": """\
                import numpy as np


                class Looped(Dynamics):
                    def population_step_batch(self, counts, rng):
                        out = []
                        for row in counts:
                            out.append(self.population_step(row, rng))
                        return np.stack(out)
            """
        },
    )
    diagnostics = lint(tmp_path, "no-row-loop")
    messages = [d.render() for d in diagnostics]
    assert (
        "core/dyn.py:4: no-row-loop Looped does not override "
        "vertex_update; without it the batch engines get the base class "
        "version, which is abstract"
    ) in messages
    assert (
        "core/dyn.py:7: no-row-loop Python for loop in "
        "Looped.population_step_batch; batch methods and vertex_update "
        "must vectorize over the replica axis (use iter_row_chunks for "
        "scratch-memory chunking)"
    ) in messages
    assert len(diagnostics) == 2


def test_no_row_loop_requires_vertex_update_for_every_dynamics(tmp_path):
    # Hand-written graph and asynchronous steps do not stand in for the
    # rule: the base class derives both steps from vertex_update.
    write_tree(
        tmp_path,
        {
            "core/median.py": """\
                class MedianRule(Dynamics):
                    def population_step_batch(self, counts, rng):
                        return counts

                    def async_population_step_batch(self, counts, rng):
                        return counts

                    def agent_step_batch(self, opinions, graph, rng):
                        return opinions
            """
        },
    )
    (diagnostic,) = lint(tmp_path, "no-row-loop")
    assert "does not override vertex_update" in diagnostic.message


def test_no_row_loop_flags_loop_in_vertex_update(tmp_path):
    # vertex_update runs on whole sample planes, so a loop over its
    # vertices is a row loop even without a _batch suffix.
    write_tree(
        tmp_path,
        {
            "core/dyn.py": """\
                class PerVertex(Dynamics):
                    def population_step_batch(self, counts, rng):
                        return counts

                    def vertex_update(self, own, seen, rng):
                        out = own.copy()
                        for index in range(own.size):
                            out.flat[index] = seen[0].flat[index]
                        return out
            """
        },
    )
    (diagnostic,) = lint(tmp_path, "no-row-loop")
    assert diagnostic.render() == (
        "core/dyn.py:7: no-row-loop Python for loop in "
        "PerVertex.vertex_update; batch methods and vertex_update must "
        "vectorize over the replica axis (use iter_row_chunks for "
        "scratch-memory chunking)"
    )


def test_no_row_loop_allows_chunk_iterators_and_base_class(tmp_path):
    write_tree(
        tmp_path,
        {
            "core/clean.py": """\
                import abc


                class Dynamics(abc.ABC):
                    def population_step_batch(self, counts, rng):
                        # A base-class row loop is exempt: the class
                        # subclasses ABC, not Dynamics.
                        return [self.step(row, rng) for row in counts]


                class Chunked(Dynamics):
                    def population_step_batch(self, counts, rng):
                        for start, stop in iter_row_chunks(8, 4, 16):
                            counts[start:stop] *= 1
                        return counts

                    def vertex_update(self, own, seen, rng):
                        return seen[0]
            """
        },
    )
    assert lint(tmp_path, "no-row-loop") == []


# ---------------------------------------------------------------------
# registry-completeness
# ---------------------------------------------------------------------


def test_registry_completeness_unregistered_dynamics(tmp_path):
    write_tree(
        tmp_path,
        {
            "core/registry.py": """\
                _FACTORIES = {"voter": Voter}
            """,
            "core/voter.py": """\
                class Voter(Dynamics):
                    def population_step_batch(self, counts, rng):
                        return counts

                    def vertex_update(self, own, seen, rng):
                        return seen[0]
            """,
            "core/orphan.py": """\
                class Orphan(Dynamics):
                    def population_step_batch(self, counts, rng):
                        return counts

                    def vertex_update(self, own, seen, rng):
                        return seen[0]
            """,
        },
    )
    (diagnostic,) = lint(tmp_path, "registry-completeness")
    assert diagnostic.render() == (
        "core/orphan.py:1: registry-completeness Dynamics subclass "
        "Orphan is not referenced by core/registry.py; register it so "
        "make_dynamics can build it"
    )


def test_registry_completeness_unregistered_engine_and_backend(tmp_path):
    write_tree(
        tmp_path,
        {
            "engine/fast.py": """\
                class FastEngine:
                    pass
            """,
            "backends/gpu.py": """\
                class GpuBackend:
                    name = "gpu"
            """,
            "protocols/base.py": """\
                class PairwiseEngine:
                    pass
            """,
        },
    )
    diagnostics = lint(tmp_path, "registry-completeness")
    assert [d.path for d in diagnostics] == [
        "backends/gpu.py",
        "engine/fast.py",
        "protocols/base.py",
    ]
    assert "register_backend" in diagnostics[0].message
    assert "register_engine" in diagnostics[1].message
    assert "PairwiseEngine" in diagnostics[2].message


def test_registry_completeness_orphan_kernel(tmp_path):
    write_tree(
        tmp_path,
        {
            "backends/numba_kernels.py": """\
                KERNEL_NAMES = frozenset({"ghost_kernel"})
            """,
            "core/base.py": """\
                def hot_path(backend, data):
                    fn = backend.kernel("real_kernel")
                    return fn(data)
            """,
        },
    )
    (diagnostic,) = lint(tmp_path, "registry-completeness")
    assert diagnostic.render() == (
        "backends/numba_kernels.py:1: registry-completeness kernel "
        "'ghost_kernel' is exported by KERNEL_NAMES but no dispatch "
        'site requests it via .kernel("ghost_kernel")'
    )


def test_registry_completeness_backend_kernel_counts_as_request(tmp_path):
    # The quarantine-aware dispatch helper requests kernels by name
    # through a plain function call, not a backend attribute; the rule
    # must recognise both forms or every backend_kernel site regresses
    # into a false "orphan kernel" diagnostic.
    write_tree(
        tmp_path,
        {
            "backends/numba_kernels.py": """\
                KERNEL_NAMES = frozenset({"real_kernel"})
            """,
            "core/base.py": """\
                def hot_path(data):
                    fn = backend_kernel("real_kernel")
                    return fn(data)
            """,
        },
    )
    assert lint(tmp_path, "registry-completeness") == []


def test_registry_completeness_unarmed_fault_point(tmp_path):
    write_tree(
        tmp_path,
        {
            "faults/points.py": """\
                DECLARED = (FaultPoint("store.transaction", "doc"),)
            """,
            "service/store.py": """\
                def begin():
                    fault_point("worker.rogue")
            """,
        },
    )
    rendered = sorted(
        d.render() for d in lint(tmp_path, "registry-completeness")
    )
    assert len(rendered) == 2
    assert "declared but no armed" in rendered[0]
    assert "'store.transaction'" in rendered[0]
    assert "undeclared point 'worker.rogue'" in rendered[1]


def test_registry_completeness_armed_fault_point_is_clean(tmp_path):
    write_tree(
        tmp_path,
        {
            "faults/points.py": """\
                DECLARED = (FaultPoint("store.transaction", "doc"),)
            """,
            "service/store.py": """\
                def begin():
                    fault_point("store.transaction", operation="write")
            """,
        },
    )
    assert lint(tmp_path, "registry-completeness") == []


def test_registry_completeness_clean_tree(tmp_path):
    write_tree(
        tmp_path,
        {
            "core/registry.py": """\
                _FACTORIES = {"voter": Voter}
            """,
            "core/voter.py": """\
                class Voter(Dynamics):
                    def population_step_batch(self, counts, rng):
                        return counts

                    def vertex_update(self, own, seen, rng):
                        return seen[0]
            """,
            "engine/fast.py": """\
                class FastEngine:
                    pass


                register_engine("fast", FastEngine)
            """,
            "backends/__init__.py": """\
                register_backend("gpu", GpuBackend)
            """,
            "backends/gpu.py": """\
                class GpuBackend:
                    name = "gpu"
            """,
            "backends/numba_kernels.py": """\
                KERNEL_NAMES = frozenset({"real_kernel"})
            """,
            "core/base.py": """\
                def hot_path(backend, data):
                    fn = backend.kernel("real_kernel")
                    return fn(data)
            """,
        },
    )
    assert lint(tmp_path, "registry-completeness") == []


def test_registry_completeness_unregistered_invariant(tmp_path):
    write_tree(
        tmp_path,
        {
            "invariants/checks.py": """\
                class MassInvariant:
                    name = "mass"


                class GhostInvariant:
                    name = "ghost"


                register_invariant(MassInvariant())
            """,
            "invariants/registry.py": """\
                class Invariant(Protocol):
                    name: str
            """,
        },
    )
    (diagnostic,) = lint(tmp_path, "registry-completeness")
    assert diagnostic.render() == (
        "invariants/checks.py:5: registry-completeness invariant class "
        "GhostInvariant is not passed to a register_invariant call "
        "anywhere in the tree; check_trace can never run it"
    )


# ---------------------------------------------------------------------
# optimize-safe-contracts
# ---------------------------------------------------------------------


def test_optimize_safe_contracts_flags_assert(tmp_path):
    write_tree(
        tmp_path,
        {
            "checks.py": """\
                def positive(x):
                    assert x > 0
                    return x
            """
        },
    )
    (diagnostic,) = lint(tmp_path, "optimize-safe-contracts")
    assert diagnostic.render() == (
        "checks.py:2: optimize-safe-contracts bare assert is stripped "
        "under python -O; raise a typed repro.errors exception instead"
    )


def test_optimize_safe_contracts_clean_raise(tmp_path):
    write_tree(
        tmp_path,
        {
            "checks.py": """\
                from repro.errors import StateError

                def positive(x):
                    if x <= 0:
                        raise StateError(f"x must be positive, got {x}")
                    return x
            """
        },
    )
    assert lint(tmp_path, "optimize-safe-contracts") == []


# ---------------------------------------------------------------------
# spec-threading
# ---------------------------------------------------------------------

_SPEC_FIXTURE = """\
    class SimulationSpec:
        n: int = 0
        foo: str = "bar"

        def describe(self):
            return f"n={self.n}"
"""

_GRID_FIXTURE = """\
    def spec_from_params(params):
        return {"n": params["n"]}
"""

_CLI_FIXTURE = """\
    def build():
        parser.add_argument("--n", type=int)
"""


def test_spec_threading_flags_half_wired_field(tmp_path):
    write_tree(
        tmp_path,
        {
            "spec.py": _SPEC_FIXTURE,
            "grid.py": _GRID_FIXTURE,
            "cli.py": _CLI_FIXTURE,
        },
    )
    diagnostics = lint(tmp_path, "spec-threading")
    assert [d.render() for d in diagnostics] == [
        "spec.py:3: spec-threading spec field 'foo' does not appear in "
        "describe(); run summaries would hide this axis",
        "spec.py:3: spec-threading spec field 'foo' has no CLI flag "
        "--foo; the axis is unreachable from the command line",
        "spec.py:3: spec-threading spec field 'foo' is not threaded "
        "through the sweep canonicalisation in grid.py; cache keys "
        "would alias across its values",
    ]


def test_spec_threading_clean_when_fully_wired(tmp_path):
    write_tree(
        tmp_path,
        {
            "spec.py": """\
                class SimulationSpec:
                    n: int = 0
                    foo: str = "bar"

                    def describe(self):
                        return f"n={self.n}, foo={self.foo}"
            """,
            "grid.py": """\
                def spec_from_params(params):
                    return {"n": params["n"], "foo": params["foo"]}
            """,
            "cli.py": """\
                def build():
                    parser.add_argument("--n", type=int)
                    parser.add_argument("--foo")
            """,
        },
    )
    assert lint(tmp_path, "spec-threading") == []


def test_spec_threading_real_spec_is_fully_wired():
    assert run_lint(select=["spec-threading"]) == []


# ---------------------------------------------------------------------
# store-transaction-discipline
# ---------------------------------------------------------------------


def test_store_discipline_flags_untransacted_dml(tmp_path):
    write_tree(
        tmp_path,
        {
            "service/store.py": """\
                class JobStore:
                    def _transaction(self):
                        return _Transaction(self._connection)

                    def sneak(self, job_id):
                        self._connection.execute(
                            "UPDATE jobs SET state = 'done' WHERE id = ?",
                            (job_id,),
                        )
            """
        },
    )
    (diagnostic,) = lint(tmp_path, "store-transaction-discipline")
    assert diagnostic.render() == (
        "service/store.py:6: store-transaction-discipline "
        "JobStore.sneak executes UPDATE outside the BEGIN IMMEDIATE "
        "helper; wrap it in 'with self._transaction():'"
    )


def test_store_discipline_allows_transacted_dml_and_reads(tmp_path):
    write_tree(
        tmp_path,
        {
            "service/store.py": """\
                class JobStore:
                    def _transaction(self):
                        return _Transaction(self._connection)

                    def complete(self, job_id):
                        with self._lock, self._transaction():
                            self._connection.execute(
                                f"UPDATE jobs SET state = ? {_SUFFIX}",
                                (job_id,),
                            )

                    def get(self, job_id):
                        return self._connection.execute(
                            "SELECT * FROM jobs WHERE id = ?", (job_id,)
                        ).fetchone()

                    def _init_schema(self):
                        self._connection.execute(
                            "CREATE TABLE IF NOT EXISTS jobs (id TEXT)"
                        )
            """
        },
    )
    assert lint(tmp_path, "store-transaction-discipline") == []


# ---------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------


def test_suppression_named_rule(tmp_path):
    write_tree(
        tmp_path,
        {
            "snippet.py": """\
                def check(x):
                    assert x  # repro: noqa[optimize-safe-contracts]
            """
        },
    )
    assert lint(tmp_path, "optimize-safe-contracts") == []


def test_suppression_bare_noqa_suppresses_every_rule(tmp_path):
    write_tree(
        tmp_path,
        {
            "snippet.py": """\
                import numpy as np

                def check(x):
                    rng = np.random.default_rng(0)  # repro: noqa
                    assert rng  # repro: noqa
            """
        },
    )
    assert run_lint([tmp_path]) == []


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    write_tree(
        tmp_path,
        {
            "snippet.py": """\
                def check(x):
                    assert x  # repro: noqa[rng-discipline]
            """
        },
    )
    (diagnostic,) = lint(tmp_path, "optimize-safe-contracts")
    assert diagnostic.rule == "optimize-safe-contracts"


# ---------------------------------------------------------------------
# Runner / CLI
# ---------------------------------------------------------------------


def test_unknown_rule_name_raises(tmp_path):
    with pytest.raises(ConfigurationError):
        run_lint([tmp_path], select=["no-such-rule"])


def test_missing_path_raises(tmp_path):
    with pytest.raises(ConfigurationError):
        run_lint([tmp_path / "absent"])


def test_syntax_error_becomes_diagnostic(tmp_path):
    write_tree(tmp_path, {"broken.py": "def broken(:\n"})
    (diagnostic,) = run_lint([tmp_path])
    assert diagnostic.rule == "syntax-error"
    assert diagnostic.path == "broken.py"


def test_end_to_end_package_tree_is_clean():
    assert run_lint() == []


def test_cli_lint_exits_zero_on_package(capsys):
    assert main(["lint"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_lint_exits_nonzero_with_diagnostics(tmp_path, capsys):
    write_tree(tmp_path, {"bad.py": "assert True\n"})
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:1: optimize-safe-contracts" in out
    assert "repro: noqa" in out


def test_cli_lint_select_and_list(tmp_path, capsys):
    write_tree(tmp_path, {"bad.py": "assert True\n"})
    assert main(["lint", str(tmp_path), "--select", "rng-discipline"]) == 0
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_RULES:
        assert name in out
    assert main(["lint", str(tmp_path), "--select", "bogus"]) == 2
