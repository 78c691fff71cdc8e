"""Initial opinion configurations.

Every generator returns an int64 count vector summing to ``n``.  The
paper's theorems condition on properties of the initial configuration —
``gamma_0`` (Theorems 2.1, 2.2), the leader's margin (Theorem 2.6), or
exact balance (Theorem 2.7) — so the generators here give precise control
over those quantities.
"""

from __future__ import annotations

import numpy as np

from repro.seeding import RandomState, as_generator
from repro.state import validate_counts
from repro.errors import ConfigurationError

__all__ = [
    "balanced",
    "biased",
    "custom",
    "dirichlet_random",
    "geometric_gamma",
    "two_block",
    "zipf",
]


def _check_nk(n: int, k: int) -> None:
    if k < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    if n < k:
        raise ConfigurationError(
            f"need n >= k so every opinion can have a supporter "
            f"(validity condition); got n={n}, k={k}"
        )


def balanced(n: int, k: int) -> np.ndarray:
    """The (near-)balanced configuration: ``|c_i - n/k| <= 1``.

    This is the worst case for consensus (Theorem 2.7's lower-bound
    configuration has exactly ``alpha_i = 1/k``); when ``k`` does not
    divide ``n`` the first ``n mod k`` opinions get the extra vertex.
    """
    _check_nk(n, k)
    base, extra = divmod(n, k)
    counts = np.full(k, base, dtype=np.int64)
    counts[:extra] += 1
    return counts


def biased(n: int, k: int, margin: float) -> np.ndarray:
    """Balanced except opinion 0 leads every other by ``~margin * n``.

    The margin is expressed as a fraction of ``n``: the configuration is
    the balanced one with ``round(margin * n)`` vertices moved onto
    opinion 0, drawn as evenly as possible from the others.  This is the
    natural input for Theorem 2.6 (plurality consensus), whose condition
    reads ``alpha_0(1) - alpha_0(j) >= C sqrt(log n / n)``.

    Validity (every opinion keeps at least one supporter) caps what each
    donor can give; when the even split exceeds some donor's slack the
    shortfall is redistributed over donors that still have mass, so the
    requested margin is delivered exactly whenever it is achievable.  A
    margin no donor set can fund (``move > n - counts[0] - (k - 1)``)
    raises :class:`~repro.errors.ConfigurationError` instead of silently
    delivering a smaller lead.
    """
    _check_nk(n, k)
    if not 0.0 <= margin <= 1.0:
        raise ConfigurationError(
            f"margin must be a fraction of n in [0, 1], got {margin}"
        )
    counts = balanced(n, k)
    move = int(round(margin * n))
    if k == 1 or move == 0:
        return counts
    donors = np.arange(1, k)
    slack = counts[donors] - 1  # keep validity: every donor stays alive
    available = int(slack.sum())
    if move > available:
        raise ConfigurationError(
            f"margin={margin} asks to move {move} vertices onto opinion "
            f"0 but the {k - 1} donors only have {available} to give "
            "while keeping every opinion alive (validity); the largest "
            f"achievable margin at n={n}, k={k} is {available / n:.4g}"
        )
    # Even split plus remainder, capped per donor by its slack; any
    # shortfall is redistributed over donors that still have mass (each
    # pass moves at least one vertex, so this terminates).
    per_donor, rem = divmod(move, k - 1)
    take = np.full(k - 1, per_donor, dtype=np.int64)
    take[:rem] += 1
    take = np.minimum(take, slack)
    shortfall = move - int(take.sum())
    while shortfall > 0:
        open_donors = np.flatnonzero(take < slack)
        per_donor, rem = divmod(shortfall, open_donors.size)
        extra = np.full(open_donors.size, per_donor, dtype=np.int64)
        extra[:rem] += 1
        extra = np.minimum(
            extra, slack[open_donors] - take[open_donors]
        )
        take[open_donors] += extra
        shortfall -= int(extra.sum())
    counts[donors] -= take
    counts[0] += move
    return counts


def two_block(n: int, k: int, leader_fraction: float) -> np.ndarray:
    """Opinion 0 holds ``leader_fraction`` of the mass, rest balanced.

    Gives direct control over ``gamma_0 ~ leader_fraction^2`` for the
    Theorem 2.1 experiments.
    """
    _check_nk(n, k)
    if not 0.0 < leader_fraction < 1.0:
        raise ConfigurationError(
            f"leader_fraction must be in (0, 1), got {leader_fraction}"
        )
    lead = int(round(leader_fraction * n))
    lead = min(max(lead, 1), n - (k - 1))
    rest = balanced(n - lead, k - 1) if k > 1 else np.zeros(0, np.int64)
    return np.concatenate([[lead], rest]).astype(np.int64)


def zipf(
    n: int, k: int, exponent: float = 1.0
) -> np.ndarray:
    """Deterministic Zipf-profile configuration: ``c_i ∝ (i+1)^-exponent``.

    A realistic heavy-tailed opinion landscape (e.g. candidate popularity
    in plurality voting).  Rounding preserves the total and keeps every
    opinion alive.
    """
    _check_nk(n, k)
    if exponent < 0:
        raise ConfigurationError(
            f"exponent must be non-negative, got {exponent}"
        )
    weights = (np.arange(1, k + 1, dtype=np.float64)) ** (-exponent)
    raw = weights / weights.sum() * (n - k)
    counts = np.floor(raw).astype(np.int64) + 1  # +1 keeps validity
    deficit = n - int(counts.sum())
    order = np.argsort(raw - np.floor(raw))[::-1]
    counts[order[:deficit]] += 1
    return counts


def dirichlet_random(
    n: int, k: int, concentration: float = 1.0, seed: RandomState = None
) -> np.ndarray:
    """Random configuration with Dirichlet(concentration) proportions.

    ``concentration -> infinity`` approaches balanced; small values give
    highly skewed starts.  Sampling is multinomial on top of the drawn
    proportions, then patched to keep every opinion alive (validity).
    """
    _check_nk(n, k)
    if concentration <= 0:
        raise ConfigurationError(
            f"concentration must be positive, got {concentration}"
        )
    rng = as_generator(seed)
    proportions = rng.dirichlet(np.full(k, concentration))
    counts = rng.multinomial(n - k, proportions).astype(np.int64) + 1
    return counts


def geometric_gamma(n: int, k: int, gamma_target: float) -> np.ndarray:
    """A configuration whose ``gamma_0`` approximates ``gamma_target``.

    Theorems 2.1 and 2.2 are parameterised by ``gamma_0``; this generator
    inverts the relation by putting one leader at
    ``alpha ~ sqrt(gamma_target - (1 - alpha)^2 / (k - 1))`` ... solved
    numerically: a two-block profile ``(a, (1-a)/(k-1), ...)`` has
    ``gamma(a) = a^2 + (1 - a)^2 / (k - 1)``, which is increasing in
    ``a`` above ``1/k``, so a bisection on ``a`` hits any target in
    ``[1/k, 1)``.
    """
    _check_nk(n, k)
    if k == 1:
        return np.asarray([n], dtype=np.int64)
    lo_gamma = 1.0 / k
    if not lo_gamma <= gamma_target < 1.0:
        raise ConfigurationError(
            f"gamma_target must lie in [1/k, 1) = [{lo_gamma:.3g}, 1), "
            f"got {gamma_target}"
        )

    def gamma_of(a: float) -> float:
        return a * a + (1.0 - a) ** 2 / (k - 1)

    lo, hi = 1.0 / k, 1.0 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gamma_of(mid) < gamma_target:
            lo = mid
        else:
            hi = mid
    counts = two_block(n, k, max(lo, 1.0 / k + 1e-12))
    return counts


def custom(counts) -> np.ndarray:
    """Validate and return a caller-supplied count vector."""
    return validate_counts(counts).copy()
