"""Pluggable compute backends for the hot-path kernels.

The batch engines vectorised everything, but some measured hot loops
are memory- or Python-bound in ways NumPy cannot fix: the agent-batch
CSR sample+gather and the O(h²) plurality pass of sampled majority
steps.  This package routes those loops (plus the async tick samplers)
through named, swappable kernels:

>>> from repro.backends import available_backends, use_backend
>>> available_backends()
['numba', 'numpy']
>>> with use_backend("numpy"):
...     pass  # everything under here uses the reference paths

Selection surface, in increasing precedence:

1. auto-detection (fail-closed: a backend must import, probe available
   *and* pass its self-check to win; otherwise ``numpy``);
2. the ``REPRO_BACKEND`` environment variable;
3. ``SimulationSpec(backend=...)`` / ``Simulation.backend(...)`` /
   CLI ``--backend`` / the sweep ``backend`` axis;
4. an explicit ``with use_backend(...)`` block.

The ``numpy`` backend is the always-available reference (it accelerates
nothing — dispatch falls through to the inline vectorised code).  The
``numba`` backend is opt-in and lazily imported; requesting it without
numba installed raises
:class:`~repro.errors.BackendUnavailableError`.
"""

from __future__ import annotations

from repro.backends.numba_backend import NumbaBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    AUTO_BACKEND,
    BACKEND_ENV_VAR,
    ComputeBackend,
    active_backend,
    available_backends,
    backend_available,
    backend_kernel,
    default_backend,
    degraded_kernels,
    detect_backend,
    get_backend,
    quarantine_kernel,
    register_backend,
    resolve_backend,
    unregister_backend,
    use_backend,
)

__all__ = [
    "AUTO_BACKEND",
    "BACKEND_ENV_VAR",
    "ComputeBackend",
    "NumbaBackend",
    "NumpyBackend",
    "active_backend",
    "available_backends",
    "backend_available",
    "backend_kernel",
    "default_backend",
    "degraded_kernels",
    "detect_backend",
    "get_backend",
    "quarantine_kernel",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
    "use_backend",
]

# Built-in backends.  numpy registers at priority 0 (the reference /
# fallback tier); numba above it so a *verified* install wins
# auto-detection.  ``replace=True`` keeps module re-imports idempotent.
register_backend("numpy", NumpyBackend, priority=0, replace=True)
register_backend("numba", NumbaBackend, priority=10, replace=True)
