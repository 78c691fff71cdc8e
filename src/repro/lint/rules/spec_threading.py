"""spec-threading: a new ``SimulationSpec`` axis must land everywhere.

The PR 2-4 convention (ROADMAP): every spec dimension is threaded
through three surfaces so no axis ships half-wired —

* ``SimulationSpec.describe()`` (human-readable run summaries and log
  lines must show the axis),
* the sweep canonicalisation in ``sweep/grid.py`` (cache keys must
  incorporate it or cached results silently alias across values),
* a CLI flag (``--axis-name``), so the axis is reachable from the
  command line.

A field that is inherently programmatic carries a documented exemption
below instead of a suppression comment, so the exemption list is
itself reviewable in one place.  Surfaces whose file is absent from
the lint input set are skipped (fixture trees exercise one surface at
a time).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintContext, SourceFile
from repro.lint.model import Diagnostic, register_rule

__all__ = ["SpecThreadingRule"]

#: Fields that are constructed programmatically and have no flat
#: string/flag form on any surface.  Key -> reviewable rationale.
_PROGRAMMATIC_ONLY = {
    "counts": "explicit numpy start vector; built in code, not parsed",
    "target": "arbitrary stopping predicate (callable)",
    "on_budget": "error-handling policy, not a swept axis",
}

#: Per-surface exemptions for fields that exist on the other surfaces.
_SURFACE_EXEMPT = {
    "describe": frozenset(),
    "grid": frozenset(),
    "cli": frozenset(
        {
            # Per-family parameter dict; exposed as --config KEY=VALUE
            # pairs rather than one flat flag per key.
            "initial_params",
        }
    ),
}


def _find_spec_class(
    context: LintContext,
) -> tuple[SourceFile, ast.ClassDef] | None:
    for file in context.files:
        for node in file.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "SimulationSpec":
                return file, node
    return None


def _spec_fields(cls: ast.ClassDef) -> dict[str, int]:
    """Dataclass field name -> definition line."""
    fields: dict[str, int] = {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        name = node.target.id
        if name.startswith("_"):
            continue
        try:
            annotation = ast.unparse(node.annotation)
        except Exception:  # pragma: no cover - defensive
            annotation = ""
        if annotation.startswith("ClassVar"):
            continue
        fields[name] = node.lineno
    return fields


def _self_attributes(function: ast.AST) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            found.add(node.attr)
    return found


def _strings_and_keywords(tree: ast.AST) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
    return found


class SpecThreadingRule:
    name = "spec-threading"
    description = (
        "every SimulationSpec field must appear in describe(), the sweep "
        "cache-key canonicalisation (grid.py), and a CLI flag"
    )
    severity = "error"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        found = _find_spec_class(context)
        if found is None:
            return
        spec_file, spec_class = found
        fields = {
            name: line
            for name, line in _spec_fields(spec_class).items()
            if name not in _PROGRAMMATIC_ONLY
        }
        if not fields:
            return
        yield from self._check_describe(spec_file, spec_class, fields)
        yield from self._check_grid(context, spec_file, fields)
        yield from self._check_cli(context, spec_file, fields)

    def _check_describe(
        self,
        spec_file: SourceFile,
        spec_class: ast.ClassDef,
        fields: dict[str, int],
    ) -> Iterator[Diagnostic]:
        describe = None
        for node in spec_class.body:
            if isinstance(node, ast.FunctionDef) and node.name == "describe":
                describe = node
                break
        if describe is None:
            yield Diagnostic(
                path=spec_file.relative,
                line=spec_class.lineno,
                rule=self.name,
                message="SimulationSpec has no describe() method",
            )
            return
        shown = _self_attributes(describe)
        for name, line in sorted(fields.items()):
            if name in _SURFACE_EXEMPT["describe"] or name in shown:
                continue
            yield Diagnostic(
                path=spec_file.relative,
                line=line,
                rule=self.name,
                message=(
                    f"spec field {name!r} does not appear in describe(); "
                    "run summaries would hide this axis"
                ),
            )

    def _check_grid(
        self,
        context: LintContext,
        spec_file: SourceFile,
        fields: dict[str, int],
    ) -> Iterator[Diagnostic]:
        grid = context.find("grid.py")
        if grid is None:
            return
        referenced = _strings_and_keywords(grid.tree)
        for name, line in sorted(fields.items()):
            if name in _SURFACE_EXEMPT["grid"] or name in referenced:
                continue
            yield Diagnostic(
                path=spec_file.relative,
                line=line,
                rule=self.name,
                message=(
                    f"spec field {name!r} is not threaded through the "
                    "sweep canonicalisation in grid.py; cache keys would "
                    "alias across its values"
                ),
            )

    def _check_cli(
        self,
        context: LintContext,
        spec_file: SourceFile,
        fields: dict[str, int],
    ) -> Iterator[Diagnostic]:
        cli = context.find("cli.py")
        if cli is None:
            return
        strings = {
            node.value
            for node in ast.walk(cli.tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for name, line in sorted(fields.items()):
            if name in _SURFACE_EXEMPT["cli"]:
                continue
            flag = "--" + name.replace("_", "-")
            if flag in strings:
                continue
            yield Diagnostic(
                path=spec_file.relative,
                line=line,
                rule=self.name,
                message=(
                    f"spec field {name!r} has no CLI flag {flag}; the "
                    "axis is unreachable from the command line"
                ),
            )


RULE = register_rule(SpecThreadingRule())
