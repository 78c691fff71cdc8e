"""The benchmark tracer's wrap targets must exist in the package.

``perfbench/tracer.py`` times the repo's layers by wrapping named
functions and methods; a target renamed or deleted under ``src/`` would
crash every traced benchmark run.  A method target is wrapped only in
the classes of the named class's subtree that define it in their own
``__dict__``, so a method the named class merely inherits (say, after
moving it into a new base class) is never timed and its span quietly
reports zero calls.  These checks resolve every target the same way the
tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", TRACER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "span,module_name,attribute",
    TRACER.FUNCTION_TARGETS,
    ids=str,
)
def test_function_target_resolves(span, module_name, attribute):
    target = getattr(importlib.import_module(module_name), attribute, None)
    assert callable(target), (
        f"tracer span {span!r}: {module_name}.{attribute} is gone"
    )


@pytest.mark.parametrize(
    "span,module_name,class_name,method",
    TRACER.METHOD_TARGETS,
    ids=str,
)
def test_method_target_resolves(span, module_name, class_name, method):
    cls = getattr(importlib.import_module(module_name), class_name, None)
    assert isinstance(cls, type), (
        f"tracer span {span!r}: {module_name}.{class_name} is gone"
    )
    assert callable(getattr(cls, method, None)), (
        f"tracer span {span!r}: {class_name}.{method} is gone"
    )
    owners = [
        member
        for member in TRACER._class_tree(cls)
        if callable(vars(member).get(method))
    ]
    assert cls in owners, (
        f"tracer span {span!r}: {class_name} inherits {method} instead "
        f"of defining it, so the tracer never times calls on "
        f"{class_name} (own definitions in its subtree: "
        f"{[member.__name__ for member in owners]})"
    )
