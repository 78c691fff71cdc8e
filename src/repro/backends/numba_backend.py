"""The optional numba JIT backend.

Numba is imported lazily, inside :meth:`NumbaBackend.is_available` /
the first kernel request — importing :mod:`repro.backends` (and hence
:mod:`repro`) never pulls numba in, so numpy-only environments pay
nothing.  When numba is missing the backend reports unavailable and
:func:`repro.backends.get_backend` raises
:class:`~repro.errors.BackendUnavailableError`; auto-detection skips it
silently (fail closed) and lands on the ``numpy`` reference backend.

The JIT-compiled loop bodies live in
:mod:`repro.backends.numba_kernels`; this module owns the thin Python
wrappers that adapt them to the dispatch-point signatures (allocating
outputs, drawing the per-call seed/uniforms from the caller's NumPy
``Generator``, coercing dtypes).  See the kernels module docstring for
the RNG/determinism contract.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.backends.numba_kernels import KERNEL_NAMES, build_kernels
from repro.seeding import as_generator

__all__ = ["NumbaBackend"]


def _draw_seed(rng: np.random.Generator) -> np.uint64:
    """One 63-bit seed for a kernel's internal splitmix64 stream."""
    return np.uint64(rng.integers(0, np.int64(2**63 - 1), dtype=np.int64))


class NumbaBackend:
    """JIT backend: compiled ``prange`` kernels for the hot loops."""

    name = "numba"
    description = (
        "numba JIT kernels (parallel prange) for the measured hot "
        "loops; optional, requires the 'numba' package"
    )
    accelerates: frozenset[str] = KERNEL_NAMES

    def __init__(self) -> None:
        self._kernels: dict[str, Callable] | None = None
        self._wrappers: dict[str, Callable] | None = None
        self._import_error: str | None = None

    # -- availability ------------------------------------------------

    @property
    def unavailable_reason(self) -> str:
        return self._import_error or ""

    def is_available(self) -> bool:
        if self._kernels is not None:
            return True
        if self._import_error is not None:
            return False
        try:
            import numba  # noqa: F401  (lazy, optional dependency)
        except Exception as exc:  # pragma: no cover - import-time env
            self._import_error = f"{type(exc).__name__}: {exc}"
            return False
        return True

    def _compiled(self) -> dict[str, Callable]:
        if self._kernels is None:
            import numba

            self._kernels = build_kernels(numba.njit, numba.prange)
        return self._kernels

    def self_check(self) -> None:
        """Compile one kernel and verify it against a known answer.

        Auto-detection calls this before selecting numba, so a broken
        install (import works, compilation or threading layer does
        not) disqualifies the backend instead of poisoning every run.
        """
        fn = self._wrapper("majority_winners")
        samples = np.array([[1, 1, 2], [3, 2, 2], [5, 5, 5]], dtype=np.int64)
        winners = fn(samples, as_generator(0))
        if winners.tolist() != [1, 2, 5]:
            raise RuntimeError(
                f"numba majority_winners self-check produced {winners!r}"
            )

    # -- kernel wrappers ---------------------------------------------

    def kernel(self, name: str) -> Callable | None:
        if name not in KERNEL_NAMES or not self.is_available():
            return None
        return self._wrapper(name)

    def _wrapper(self, name: str) -> Callable:
        if self._wrappers is None:
            k = self._compiled()

            def majority_winners(
                samples: np.ndarray, rng: np.random.Generator
            ) -> np.ndarray:
                samples = np.ascontiguousarray(samples)
                out = np.empty(samples.shape[0], dtype=samples.dtype)
                k["majority_winners"](
                    samples, rng.random(samples.shape[0]), out
                )
                return out

            def csr_sample_gather(
                indptr: np.ndarray,
                indices: np.ndarray,
                opinions: np.ndarray,
                num_samples: int,
                rng: np.random.Generator,
            ) -> np.ndarray:
                opinions = np.ascontiguousarray(opinions)
                out = np.empty(
                    (num_samples,) + opinions.shape, dtype=opinions.dtype
                )
                k["csr_sample_gather"](
                    indptr, indices, opinions, _draw_seed(rng), out
                )
                return out

            def sample_holders(
                counts: np.ndarray, num_samples: int, rng: np.random.Generator
            ) -> np.ndarray:
                counts = np.ascontiguousarray(counts, dtype=np.int64)
                totals = counts.sum(axis=1, keepdims=True)
                # Same Generator call as the reference path, so the
                # result is bitwise-identical given the same rng state.
                draws = rng.integers(
                    0, totals, size=(counts.shape[0], num_samples)
                )
                out = np.empty_like(draws)
                k["sample_holders"](counts, draws, out)
                return out

            self._wrappers = {
                "majority_winners": majority_winners,
                "csr_sample_gather": csr_sample_gather,
                "sample_holders": sample_holders,
            }
        return self._wrappers[name]
