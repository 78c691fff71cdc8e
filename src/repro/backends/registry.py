"""String-keyed registry of compute backends.

Mirrors the engine registry (:mod:`repro.engine.registry`): backends are
registered under a short name with a zero-argument factory, looked up by
name, and enumerated for the CLI.  On top of that, this module owns the
three pieces of state the engine registry does not need:

``default_backend()``
    The process-wide default, resolved once and cached: the
    ``REPRO_BACKEND`` environment variable if set, otherwise fail-closed
    auto-detection (:func:`detect_backend`) — try candidates from the
    highest ``priority`` down, *verify* each one by running its
    ``self_check()``, and fall back to the always-available ``numpy``
    backend if every accelerated candidate fails to import, compile or
    produce correct output.

``active_backend()`` / ``use_backend()``
    A :mod:`contextvars`-based ambient backend.  Hot-path dispatch
    points (``majority_winners``, ``sample_holders``, the fused CSR
    sampler) consult :func:`active_backend` at call time, so a
    single ``with use_backend(...)`` around an engine run threads the
    choice through every kernel without touching call signatures.
    Context-variable scoping makes this safe per-thread *and* per-task:
    the service worker fleet can run jobs with different backends
    concurrently without interference.

Backend contract
----------------
A backend is any object satisfying :class:`ComputeBackend`:

``name`` / ``description``
    Identity and one-line human description for ``repro backends``.
``accelerates``
    Frozen set of kernel names the backend claims to provide — the
    capability flags.  The dispatch points only ask for kernels by
    these names, so the set doubles as machine-readable documentation.
``is_available()``
    Cheap availability probe (e.g. "does ``import numba`` work?").
    Must not raise.
``kernel(name)``
    Return the accelerated implementation for ``name`` or ``None`` to
    fall through to the NumPy reference path.  Returning ``None`` for
    everything is valid — that is exactly what the ``numpy`` backend
    does, which keeps the existing vectorised code as the single
    reference implementation.
``self_check()`` (optional)
    Raise if the backend cannot actually produce correct results
    (compilation failure, broken install).  Auto-detection runs this
    before selecting a backend; explicit selection trusts the user.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Protocol, runtime_checkable

from repro.errors import BackendUnavailableError, ConfigurationError
from repro.faults import fault_point, faults_armed

__all__ = [
    "AUTO_BACKEND",
    "BACKEND_ENV_VAR",
    "ComputeBackend",
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

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Sentinel spec value meaning "use the process default".
AUTO_BACKEND = "auto"


@runtime_checkable
class ComputeBackend(Protocol):
    """Structural interface every compute backend must satisfy."""

    name: str
    description: str
    accelerates: frozenset[str]

    def is_available(self) -> bool:  # pragma: no cover - protocol
        ...

    def kernel(self, name: str) -> Callable | None:  # pragma: no cover
        ...


_FACTORIES: dict[str, Callable[[], ComputeBackend]] = {}
_PRIORITIES: dict[str, int] = {}
_INSTANCES: dict[str, ComputeBackend] = {}

# Cache of resolved defaults keyed by the REPRO_BACKEND value in effect
# at resolution time ("" when unset), so tests that monkeypatch the
# environment see the change without global resets.
_DEFAULT_CACHE: dict[str, ComputeBackend] = {}

_ACTIVE: ContextVar[ComputeBackend | None] = ContextVar(
    "repro_active_backend", default=None
)


def register_backend(
    name: str,
    factory: Callable[[], ComputeBackend],
    *,
    priority: int = 0,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    ``priority`` orders auto-detection (higher is preferred; the
    ``numpy`` reference backend registers at the lowest priority so any
    working accelerated backend wins).  Duplicate names raise
    :class:`ConfigurationError` unless ``replace=True``, matching
    :func:`repro.engine.registry.register_engine`.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"backend name must be a non-empty string, got {name!r}"
        )
    if name == AUTO_BACKEND:
        raise ConfigurationError(
            f"backend name {AUTO_BACKEND!r} is reserved for auto-detection"
        )
    if name in _FACTORIES and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass replace=True "
            "to overwrite it"
        )
    _FACTORIES[name] = factory
    _PRIORITIES[name] = int(priority)
    _INSTANCES.pop(name, None)
    _DEFAULT_CACHE.clear()


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the registry (primarily for tests)."""
    if name not in _FACTORIES:
        raise ConfigurationError(f"unknown backend {name!r}")
    del _FACTORIES[name]
    _PRIORITIES.pop(name, None)
    _INSTANCES.pop(name, None)
    _DEFAULT_CACHE.clear()


def available_backends() -> list[str]:
    """Sorted names of every registered backend (available or not)."""
    return sorted(_FACTORIES)


def _instantiate(name: str) -> ComputeBackend:
    if name not in _FACTORIES:
        known = ", ".join(available_backends()) or "none registered"
        raise ConfigurationError(
            f"unknown backend {name!r}; known backends: {known}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def get_backend(name: str, *, require_available: bool = True) -> ComputeBackend:
    """Return the backend registered under ``name``.

    Unknown names raise :class:`ConfigurationError`; known-but-broken
    backends raise :class:`BackendUnavailableError` unless
    ``require_available=False`` (used by the CLI listing, which wants to
    describe unavailable backends rather than fail on them).
    """
    backend = _instantiate(name)
    if require_available and not backend.is_available():
        raise BackendUnavailableError(
            name, getattr(backend, "unavailable_reason", "") or ""
        )
    return backend


def backend_available(name: str) -> bool:
    """``True`` iff ``name`` is registered and its probe succeeds."""
    if name not in _FACTORIES:
        return False
    try:
        return _instantiate(name).is_available()
    except Exception:  # fail closed: a broken factory is "unavailable"
        return False


def detect_backend() -> ComputeBackend:
    """Pick the best *verified* backend, failing closed to ``numpy``.

    Candidates are tried from the highest registration priority down
    (ties broken by name for determinism).  A candidate is selected
    only if its factory runs, ``is_available()`` is true, and its
    ``self_check()`` (when defined) passes — anything else silently
    disqualifies it.  The ``numpy`` backend is always available, so
    detection always succeeds.
    """
    order = sorted(_FACTORIES, key=lambda n: (-_PRIORITIES.get(n, 0), n))
    fallback: ComputeBackend | None = None
    for name in order:
        try:
            backend = _instantiate(name)
            if not backend.is_available():
                continue
            check = getattr(backend, "self_check", None)
            if check is not None:
                check()
        except Exception:
            continue
        if _PRIORITIES.get(name, 0) <= 0:
            # Reference-tier backend: remember it, but keep scanning in
            # case a lower-priority-but-still-positive entry exists.
            if fallback is None:
                fallback = backend
            continue
        return backend
    if fallback is not None:
        return fallback
    raise ConfigurationError(
        "no usable compute backend registered (the built-in 'numpy' "
        "backend is missing — was it unregistered?)"
    )


def default_backend() -> ComputeBackend:
    """The process default: ``REPRO_BACKEND`` if set, else detection.

    An explicit environment override must work or fail loudly —
    pointing ``REPRO_BACKEND`` at a backend that cannot run raises
    :class:`BackendUnavailableError` rather than silently falling back,
    because a user who pinned the env var is relying on it.
    """
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    cached = _DEFAULT_CACHE.get(env)
    if cached is not None:
        return cached
    if env and env != AUTO_BACKEND:
        backend = get_backend(env)
    else:
        backend = detect_backend()
    _DEFAULT_CACHE[env] = backend
    return backend


def resolve_backend(
    backend: ComputeBackend | str | None,
) -> ComputeBackend:
    """Normalise a spec-level backend value to a backend instance.

    ``None`` and ``"auto"`` resolve to :func:`default_backend`; a name
    resolves through :func:`get_backend` (raising on unknown or
    unavailable); a :class:`ComputeBackend` instance passes through.
    """
    if backend is None:
        return default_backend()
    if isinstance(backend, str):
        if backend == AUTO_BACKEND:
            return default_backend()
        return get_backend(backend)
    if isinstance(backend, ComputeBackend):
        return backend
    raise ConfigurationError(
        "backend must be a backend name, 'auto', None or a "
        f"ComputeBackend instance, got {type(backend).__name__}"
    )


def active_backend() -> ComputeBackend:
    """The backend hot-path dispatch points should consult *now*."""
    backend = _ACTIVE.get()
    if backend is not None:
        return backend
    return default_backend()


@contextmanager
def use_backend(
    backend: ComputeBackend | str | None,
) -> Iterator[ComputeBackend]:
    """Set the ambient backend for the enclosed block.

    ``None`` means "inherit": the block runs under whatever backend is
    already active, which lets engines accept an optional ``backend``
    knob and wrap their hot loop unconditionally.
    """
    if backend is None:
        yield active_backend()
        return
    resolved = resolve_backend(backend)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


def _clear_default_cache() -> None:
    """Drop cached detection results (test helper)."""
    _DEFAULT_CACHE.clear()


# -- runtime kernel degradation ---------------------------------------------
#
# A backend's self_check() certifies it at selection time, but a JIT
# kernel can still die at *run* time (resource exhaustion, a numba
# cache gone stale under it, an input shape its compilation never saw
# — or an injected ``backend.kernel`` fault).  The dispatch sites all
# keep the NumPy reference path as their fall-through, so the graceful
# response is: quarantine that one kernel, warn once, and let the
# reference path carry the run to completion.

_QUARANTINE_LOCK = threading.Lock()

# (backend name, kernel name) -> one-line reason.  Process-global
# rather than per-backend-instance so the record survives registry
# cache resets and is cheap to snapshot onto results.
_QUARANTINED: dict[tuple[str, str], str] = {}


def quarantine_kernel(
    backend: ComputeBackend | str, name: str, reason: BaseException | str
) -> None:
    """Disable one backend kernel for the rest of the process.

    Subsequent :func:`backend_kernel` lookups for it return ``None``
    (the reference path).  Warns once per (backend, kernel) pair —
    a degraded run must be visible, but not at one warning per batch.
    """
    backend_name = backend if isinstance(backend, str) else backend.name
    message = (
        f"{type(reason).__name__}: {reason}"
        if isinstance(reason, BaseException)
        else str(reason)
    )
    with _QUARANTINE_LOCK:
        if (backend_name, name) in _QUARANTINED:
            return
        _QUARANTINED[(backend_name, name)] = message
    warnings.warn(
        f"backend {backend_name!r} kernel {name!r} failed at runtime "
        f"({message}); falling back to the numpy reference "
        "implementation for the rest of this process",
        RuntimeWarning,
        stacklevel=3,
    )


def degraded_kernels() -> dict[str, str]:
    """Quarantined kernels as ``{"backend/kernel": reason}`` (snapshot)."""
    with _QUARANTINE_LOCK:
        return {
            f"{backend}/{kernel}": reason
            for (backend, kernel), reason in sorted(_QUARANTINED.items())
        }


def _clear_quarantine() -> None:
    """Forget quarantined kernels (test helper)."""
    with _QUARANTINE_LOCK:
        _QUARANTINED.clear()


def backend_kernel(name: str) -> Callable | None:
    """The active backend's accelerated kernel for ``name``, if usable.

    The hot-path dispatch API: consults :func:`active_backend`, skips
    kernels quarantined by an earlier runtime failure, and — only when
    a fault plan is armed — wraps the kernel so the ``backend.kernel``
    fault point fires per invocation.  Disarmed, the returned kernel
    is the backend's own callable, untouched.
    """
    backend = active_backend()
    kernel = backend.kernel(name)
    if kernel is None:
        return None
    if _QUARANTINED and (backend.name, name) in _QUARANTINED:
        return None
    if not faults_armed():
        return kernel

    def _faulted_kernel(*args, **kwargs):
        fault_point("backend.kernel", kernel=name, backend=backend.name)
        return kernel(*args, **kwargs)

    return _faulted_kernel
