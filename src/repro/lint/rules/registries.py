"""registry-completeness: nothing ships half-registered.

The repo routes construction through string-keyed registries (the PR
2-4 pattern): dynamics via ``core/registry.py``, engines via
``register_engine``, backends via ``register_backend``, and compiled
kernels via ``backend.kernel(name)``.  A class that exists but is not
registered is dead weight the CLI/sweep/spec layers can't reach — and
a kernel exported by the numba backend that no dispatch site requests
is untested compiled code.  Six sub-checks:

* every concrete ``Dynamics`` subclass in ``core/`` is referenced by
  ``core/registry.py``;
* every ``*Engine`` class in the tree, outside modules named
  ``registry.py``, is passed to a ``register_engine`` call in its own
  module;
* every concrete ``*Backend`` class (Protocol definitions exempt) is
  passed to a ``register_backend`` call somewhere in the tree;
* every name in ``numba_kernels.py``'s ``KERNEL_NAMES`` is requested
  by some ``.kernel("<name>")`` or ``backend_kernel("<name>")``
  dispatch site;
* every concrete ``*Invariant`` class in ``invariants/`` (Protocol
  definitions exempt) is passed to a ``register_invariant`` call, so
  the cross-engine harness can never silently drop a check;
* every fault point declared in ``faults/points.py`` has at least one
  armed ``fault_point("<name>")`` call site in the tree, and every
  armed call names a declared point — so the chaos catalogue can
  neither rot (dead declarations) nor drift (undeclared injections).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintContext, SourceFile
from repro.lint.model import Diagnostic, register_rule

__all__ = ["RegistryCompletenessRule"]


def _names_in(node: ast.AST) -> set[str]:
    found: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _calls_to(tree: ast.AST, function: str) -> list[ast.Call]:
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name == function:
            calls.append(node)
    return calls


def _has_protocol_base(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        try:
            if "Protocol" in ast.unparse(base):
                return True
        except Exception:  # pragma: no cover - defensive
            continue
    return False


def _module_classes(file: SourceFile) -> list[ast.ClassDef]:
    return [n for n in file.tree.body if isinstance(n, ast.ClassDef)]


class RegistryCompletenessRule:
    name = "registry-completeness"
    description = (
        "every Dynamics subclass, engine class, backend class, "
        "invariant class and declared fault point must be registered/"
        "armed, and every exported numba kernel name must have a "
        "requesting dispatch site"
    )
    severity = "error"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        yield from self._check_dynamics(context)
        yield from self._check_engines(context)
        yield from self._check_backends(context)
        yield from self._check_kernels(context)
        yield from self._check_invariants(context)
        yield from self._check_fault_points(context)

    # -- dynamics ------------------------------------------------------
    def _check_dynamics(self, context: LintContext) -> Iterator[Diagnostic]:
        registry = context.find("core/registry.py")
        if registry is None:
            return
        referenced = _names_in(registry.tree)
        for file in context.in_directory("core"):
            if file is registry:
                continue
            for cls in _module_classes(file):
                if not self._is_dynamics_subclass(cls):
                    continue
                if cls.name not in referenced:
                    yield Diagnostic(
                        path=file.relative,
                        line=cls.lineno,
                        rule=self.name,
                        message=(
                            f"Dynamics subclass {cls.name} is not "
                            "referenced by core/registry.py; register it "
                            "so make_dynamics can build it"
                        ),
                    )

    @staticmethod
    def _is_dynamics_subclass(cls: ast.ClassDef) -> bool:
        for base in cls.bases:
            try:
                if ast.unparse(base).split(".")[-1] == "Dynamics":
                    return True
            except Exception:  # pragma: no cover - defensive
                continue
        return False

    # -- engines -------------------------------------------------------
    def _check_engines(self, context: LintContext) -> Iterator[Diagnostic]:
        for file in context.files:
            if file.name == "registry.py":
                continue
            # Engines register a module-level runner (the spec -> results
            # entry point), not the class object, so the check is at
            # module granularity: defining an engine class obliges the
            # module to register itself.
            registers = bool(_calls_to(file.tree, "register_engine"))
            for cls in _module_classes(file):
                if not cls.name.endswith("Engine"):
                    continue
                if _has_protocol_base(cls):
                    continue
                if not registers:
                    yield Diagnostic(
                        path=file.relative,
                        line=cls.lineno,
                        rule=self.name,
                        message=(
                            f"module defines engine class {cls.name} but "
                            "never calls register_engine; the engine is "
                            "unreachable by name"
                        ),
                    )

    # -- backends ------------------------------------------------------
    def _check_backends(self, context: LintContext) -> Iterator[Diagnostic]:
        registered: set[str] = set()
        for file in context.files:
            for call in _calls_to(file.tree, "register_backend"):
                registered |= _names_in(call)
        for file in context.in_directory("backends"):
            if file.name == "registry.py":
                continue
            for cls in _module_classes(file):
                if not cls.name.endswith("Backend"):
                    continue
                if _has_protocol_base(cls):
                    continue
                if cls.name not in registered:
                    yield Diagnostic(
                        path=file.relative,
                        line=cls.lineno,
                        rule=self.name,
                        message=(
                            f"backend class {cls.name} is not passed to "
                            "a register_backend call anywhere in the tree"
                        ),
                    )

    # -- invariants ----------------------------------------------------
    def _check_invariants(
        self, context: LintContext
    ) -> Iterator[Diagnostic]:
        registered: set[str] = set()
        for file in context.files:
            for call in _calls_to(file.tree, "register_invariant"):
                registered |= _names_in(call)
        for file in context.in_directory("invariants"):
            if file.name == "registry.py":
                continue
            for cls in _module_classes(file):
                if (
                    not cls.name.endswith("Invariant")
                    or cls.name == "Invariant"
                ):
                    continue
                if _has_protocol_base(cls):
                    continue
                if cls.name not in registered:
                    yield Diagnostic(
                        path=file.relative,
                        line=cls.lineno,
                        rule=self.name,
                        message=(
                            f"invariant class {cls.name} is not passed "
                            "to a register_invariant call anywhere in "
                            "the tree; check_trace can never run it"
                        ),
                    )

    # -- kernels -------------------------------------------------------
    def _check_kernels(self, context: LintContext) -> Iterator[Diagnostic]:
        kernels_file = context.find("numba_kernels.py")
        if kernels_file is None:
            return
        assignment = None
        for node in kernels_file.tree.body:
            if isinstance(node, ast.Assign):
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if "KERNEL_NAMES" in targets:
                    assignment = node
                    break
        if assignment is None:
            return
        exported = {
            n.value
            for n in ast.walk(assignment.value)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
        requested: set[str] = set()
        for file in context.files:
            # Direct dispatch: backend.kernel("<name>").
            for call in _calls_to(file.tree, "kernel"):
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)
                ):
                    requested.add(call.args[0].value)
            # Quarantine-aware dispatch: backend_kernel("<name>")
            # resolves the active backend and the fault wrapper itself.
            for call in _calls_to(file.tree, "backend_kernel"):
                if (
                    isinstance(call.func, ast.Name)
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)
                ):
                    requested.add(call.args[0].value)
        for name in sorted(exported - requested):
            yield Diagnostic(
                path=kernels_file.relative,
                line=assignment.lineno,
                rule=self.name,
                message=(
                    f"kernel {name!r} is exported by KERNEL_NAMES but no "
                    f'dispatch site requests it via .kernel("{name}")'
                ),
            )


    # -- fault points --------------------------------------------------
    def _check_fault_points(
        self, context: LintContext
    ) -> Iterator[Diagnostic]:
        catalogue = context.find("faults/points.py")
        if catalogue is None:
            return
        declared: dict[str, int] = {}
        for call in _calls_to(catalogue.tree, "FaultPoint"):
            if (
                call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                declared[call.args[0].value] = call.lineno
        armed: dict[str, tuple[str, int]] = {}
        for file in context.files:
            if file is catalogue:
                continue
            for call in _calls_to(file.tree, "fault_point"):
                if (
                    call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)
                ):
                    armed.setdefault(
                        call.args[0].value, (file.relative, call.lineno)
                    )
        for name in sorted(set(declared) - set(armed)):
            yield Diagnostic(
                path=catalogue.relative,
                line=declared[name],
                rule=self.name,
                message=(
                    f"fault point {name!r} is declared but no armed "
                    f'fault_point("{name}") call site exists; chaos '
                    "plans naming it can never fire"
                ),
            )
        for name in sorted(set(armed) - set(declared)):
            path, line = armed[name]
            yield Diagnostic(
                path=path,
                line=line,
                rule=self.name,
                message=(
                    f"fault_point call names undeclared point "
                    f"{name!r}; declare it in faults/points.py so "
                    "plans validate against the catalogue"
                ),
            )


RULE = register_rule(RegistryCompletenessRule())
