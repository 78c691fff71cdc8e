"""no-row-loop: batch methods on dynamics classes must be vectorized.

The ``*_batch`` contract (ROADMAP's batch-first fabric) says a batch
step advances all R replicas with array operations — a Python
``for``/``while`` over the replica axis quietly turns a 30x engine
into a row loop.  This rule statically checks, for every
concrete ``Dynamics`` subclass in ``core/``:

* the two methods every dynamics states *exist* —
  ``population_step_batch`` and ``vertex_update`` — because a missing
  one falls back to the base class, which scanning the subclass alone
  can't see: both are abstract there, and the base class derives
  ``agent_step_batch`` and ``async_population_step_batch`` from
  ``vertex_update``; and
* no ``*_batch`` override and no ``vertex_update`` contains a Python
  loop (``vertex_update`` runs on whole sample planes, every row of
  every replica at once), with an explicit allowlist for
  scratch-memory chunk iterators
  (``for start, stop in iter_row_chunks(...)``), which iterate over
  O(budget) chunks, not O(R) rows.

The abstract base class in ``base.py`` subclasses ``abc.ABC``, not
``Dynamics``, so it is outside this rule's scope by construction.
This replaces the runtime row-loop guards previously duplicated across
three benchmark modules (``bench_batch_dynamics.py`` keeps one as a
belt-and-braces check).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintContext, SourceFile
from repro.lint.model import Diagnostic, register_rule

__all__ = ["NoRowLoopRule"]

#: Loop iterators that are allowed inside batch methods: they chunk the
#: replica axis to bound scratch memory, they don't serialise it.
_CHUNK_ITERATORS = frozenset({"iter_row_chunks"})

#: Overrides every concrete core dynamics must provide; each is also
#: checked for loops, like every ``*_batch`` method.
_REQUIRED_OVERRIDES = ("population_step_batch", "vertex_update")


def _is_dynamics_subclass(node: ast.ClassDef) -> bool:
    for base in node.bases:
        try:
            if ast.unparse(base).split(".")[-1] == "Dynamics":
                return True
        except Exception:  # pragma: no cover - defensive
            continue
    return False


def _is_chunk_iteration(iterator: ast.expr) -> bool:
    if not isinstance(iterator, ast.Call):
        return False
    func = iterator.func
    if isinstance(func, ast.Name):
        return func.id in _CHUNK_ITERATORS
    if isinstance(func, ast.Attribute):
        return func.attr in _CHUNK_ITERATORS
    return False


class NoRowLoopRule:
    name = "no-row-loop"
    description = (
        "concrete Dynamics subclasses in core/ must define "
        "population_step_batch and vertex_update and keep them (and "
        "every *_batch method) free of Python loops over the replica "
        "axis (chunk iterators like iter_row_chunks allowed)"
    )
    severity = "error"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        for file in context.in_directory("core"):
            for node in file.tree.body:
                if isinstance(node, ast.ClassDef) and _is_dynamics_subclass(
                    node
                ):
                    yield from self._check_class(file, node)

    def _check_class(
        self, file: SourceFile, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in _REQUIRED_OVERRIDES:
            if name not in methods:
                yield Diagnostic(
                    path=file.relative,
                    line=cls.lineno,
                    rule=self.name,
                    message=(
                        f"{cls.name} does not override {name}; without it "
                        "the batch engines get the base class version, "
                        "which is abstract"
                    ),
                )
        for name, method in methods.items():
            if name.endswith("_batch") or name in _REQUIRED_OVERRIDES:
                yield from self._check_method(file, cls, method)

    def _check_method(
        self,
        file: SourceFile,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(method):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_chunk_iteration(node.iter):
                    continue
                kind = "for"
            elif isinstance(node, ast.While):
                kind = "while"
            else:
                continue
            yield Diagnostic(
                path=file.relative,
                line=node.lineno,
                rule=self.name,
                message=(
                    f"Python {kind} loop in {cls.name}.{method.name}; "
                    "batch methods and vertex_update must vectorize over "
                    "the replica axis (use iter_row_chunks for "
                    "scratch-memory chunking)"
                ),
            )


RULE = register_rule(NoRowLoopRule())
