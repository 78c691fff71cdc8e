"""JIT-compilable kernel sources for the ``numba`` backend.

This module intentionally does **not** import :mod:`numba`.  It exposes
:func:`build_kernels`, which takes the two decorators a JIT needs
(``njit`` and ``prange``) and returns the compiled kernel set.  The
``numba`` backend calls it with the real decorators; the test suite
calls it with identity decorators and ``range`` to exercise the exact
same loop bodies in pure Python against the NumPy reference — so the
kernel *logic* stays verified even in environments where numba is not
installed and the compiled path is skipped.

RNG design
----------
NumPy ``Generator`` objects cannot cross into nopython code, so kernels
that must draw inside the hot loop use a counter-style splitmix64 stream
seeded from the caller's ``Generator`` (one 63-bit draw per kernel
invocation).  Each row derives an independent stream from
``seed + row * GAMMA``, which makes ``prange`` over rows deterministic
for a given spec seed regardless of thread scheduling.  Bounded integer
draws use rejection below the largest multiple of the bound, so they
are *exactly* uniform.

Consequences for determinism: given the same spec seed, the numba and
numpy backends consume different raw streams, so trajectories agree in
distribution (KS-equivalence, verified in ``tests/test_backends.py``),
not bitwise.  The exception is ``sample_holders``: its bounded draws
come from the caller's ``Generator`` exactly as in the reference, so
its results are bitwise-identical.  Every asynchronous tick draws its
vertices through it; of the catalogued rules only h-Majority's draws
anything more (through ``majority_winners``).

Pure-Python callers note: NumPy emits ``RuntimeWarning`` on wrapping
``uint64`` scalar arithmetic; wrap calls in
``np.errstate(over="ignore")`` (the compiled path wraps natively and
never warns).
"""

from __future__ import annotations

import numpy as np

__all__ = ["KERNEL_NAMES", "build_kernels"]

#: The kernel names the numba backend advertises via ``accelerates``.
KERNEL_NAMES = frozenset(
    {
        "majority_winners",
        "csr_sample_gather",
        "sample_holders",
    }
)

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
#: Per-row stream separation constant (odd, full avalanche downstream).
_ROW_GAMMA = np.uint64(0xBF58476D1CE4E5B9)


def build_kernels(njit, prange):
    """Build the kernel set with the given JIT decorators.

    ``njit`` must be a decorator *factory* accepting keyword options
    (``njit(parallel=True)``, ``njit(inline="always")``) — numba's
    ``numba.njit`` qualifies, and so does an identity factory like
    ``lambda **kw: (lambda fn: fn)`` for pure-Python testing.
    ``prange`` is ``numba.prange`` or builtin ``range``.

    Returns a dict mapping the names in :data:`KERNEL_NAMES` (plus the
    private helpers, prefixed ``_``) to the decorated functions.
    """

    @njit(inline="always")
    def _splitmix(state):
        # splitmix64: one full-avalanche 64-bit output per call.
        state = state + _SPLITMIX_GAMMA
        z = state
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return state, z ^ (z >> np.uint64(31))

    @njit(inline="always")
    def _bounded(state, bound):
        # Exactly-uniform draw in [0, bound) via rejection below the
        # largest representable multiple of ``bound``.
        limit = (_U64_MAX // bound) * bound
        while True:
            state, z = _splitmix(state)
            if z < limit:
                return state, z % bound

    @njit(inline="always")
    def _row_state(seed, row):
        return seed + np.uint64(row) * _ROW_GAMMA

    @njit(inline="always")
    def _cdf_find(cdf, draw):
        # First index with cdf[idx] > draw  (== (cdf <= draw).sum()).
        lo = 0
        hi = cdf.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] <= draw:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @njit(parallel=True)
    def majority_winners_kernel(samples, u, out):
        # Per-row plurality with uniform tie-break among *positions*
        # (equivalent to uniform among tied labels: tied labels occupy
        # equal numbers of positions).  u holds one uniform per row,
        # drawn by the caller from its Generator.  Counts live in local
        # int64 scalars, so the int8-scratch overflow hazard of the
        # NumPy reference cannot arise here at any h.
        m, h = samples.shape
        for i in prange(m):
            best = 0
            ties = 0
            for a in range(h):
                sa = samples[i, a]
                c = 0
                for b in range(h):
                    if samples[i, b] == sa:
                        c += 1
                if c > best:
                    best = c
                    ties = 1
                elif c == best:
                    ties += 1
            pick = int(u[i] * ties)
            if pick >= ties:  # u == 1.0-ulp edge
                pick = ties - 1
            seen = 0
            for a in range(h):
                sa = samples[i, a]
                c = 0
                for b in range(h):
                    if samples[i, b] == sa:
                        c += 1
                if c == best:
                    if seen == pick:
                        out[i] = sa
                        break
                    seen += 1

    @njit(parallel=True)
    def csr_sample_gather_kernel(indptr, indices, opinions, seed, out):
        # Fused uniform-neighbour sample + opinion gather over a CSR
        # adjacency: writes opinions[r, random neighbour of v] straight
        # into out[j, r, v] without materialising the (s, rows, n)
        # index tensor the reference path builds.
        s = out.shape[0]
        rows = out.shape[1]
        n = out.shape[2]
        for r in prange(rows):
            state = _row_state(seed, r)
            for v in range(n):
                base = indptr[v]
                deg = indptr[v + 1] - base
                if deg <= 0:
                    for j in range(s):
                        out[j, r, v] = opinions[r, v]
                    continue
                deg_u = np.uint64(deg)
                for j in range(s):
                    state, off = _bounded(state, deg_u)
                    out[j, r, v] = opinions[r, indices[base + np.int64(off)]]

    @njit(parallel=True)
    def sample_holders_kernel(counts, draws, out):
        # Integer-exact inverse CDF over per-row counts.  ``draws``
        # comes from the caller's Generator with per-row bounds, so the
        # result is bitwise-identical to the NumPy reference.
        rows, k = counts.shape
        s = draws.shape[1]
        for r in prange(rows):
            cdf = np.empty(k, np.int64)
            total = np.int64(0)
            for j in range(k):
                total += counts[r, j]
                cdf[j] = total
            for i in range(s):
                out[r, i] = _cdf_find(cdf, draws[r, i])

    return {
        "_splitmix": _splitmix,
        "_bounded": _bounded,
        "_row_state": _row_state,
        "_cdf_find": _cdf_find,
        "majority_winners": majority_winners_kernel,
        "csr_sample_gather": csr_sample_gather_kernel,
        "sample_holders": sample_holders_kernel,
    }
