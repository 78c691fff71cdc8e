"""no-row-loop: batch methods on dynamics classes must be vectorized.

The ``*_batch`` contract (ROADMAP's batch-first fabric) says a batch
step advances all R replicas with array operations — a Python
``for``/``while`` over the replica axis quietly turns a 30x engine
into the sequential fallback.  This rule statically checks, for every
concrete ``Dynamics`` subclass in ``core/``:

* the vectorized overrides *exist* — ``population_step_batch`` and
  ``async_population_step_batch`` for every catalogue dynamics, plus
  ``agent_step_batch`` for the pull-based paper trio — because a
  deleted override falls back to the base class, which scanning the
  subclass alone can't see: ``population_step_batch`` is abstract,
  ``async_population_step_batch`` raises ``NotImplementedError`` on
  the first tick and ``agent_step_batch`` is a row loop; and
* no ``*_batch`` override contains a Python loop, with an explicit
  allowlist for scratch-memory chunk iterators
  (``for start, stop in iter_row_chunks(...)``), which iterate over
  O(budget) chunks, not O(R) rows.

The abstract base class in ``base.py`` keeps its documented
``agent_step_batch`` row loop: it subclasses ``abc.ABC``, not
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

#: Overrides every concrete core dynamics must provide.
_REQUIRED_OVERRIDES = ("population_step_batch", "async_population_step_batch")

#: The pull-based paper dynamics additionally need the vectorized
#: agent-level (graph) step; the others run agent-level sequentially.
_AGENT_BATCH_REQUIRED = frozenset({"ThreeMajority", "TwoChoices", "Voter"})


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
        "concrete Dynamics subclasses in core/ must provide their "
        "*_step_batch overrides and keep them free of Python loops over "
        "the replica axis (chunk iterators like iter_row_chunks allowed)"
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
        required = list(_REQUIRED_OVERRIDES)
        if cls.name in _AGENT_BATCH_REQUIRED:
            required.append("agent_step_batch")
        for name in required:
            if name not in methods:
                yield Diagnostic(
                    path=file.relative,
                    line=cls.lineno,
                    rule=self.name,
                    message=(
                        f"{cls.name} does not override {name}; without it "
                        "the batch engines get the base class version, "
                        "which is abstract, raises or loops over rows"
                    ),
                )
        for name, method in methods.items():
            if name.endswith("_batch"):
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
                    "batch methods must vectorize over the replica axis "
                    "(use iter_row_chunks for scratch-memory chunking)"
                ),
            )


RULE = register_rule(NoRowLoopRule())
