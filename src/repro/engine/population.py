"""Exact population-level (count-vector) engine.

On the complete graph with self-loops the vertices are exchangeable and,
conditioned on the previous round, update independently — so the count
vector is a sufficient statistic and the dynamics' ``population_step``
samples the next configuration *exactly* (see paper eqs. (5), (6)).  This
engine therefore simulates the same Markov chain as the agent-level engine
on :class:`~repro.graphs.complete.CompleteGraph`, at the cost of the
dynamics' batch step on one row (``population_step`` is derived from
``population_step_batch``).

Use :class:`~repro.engine.agent.AgentEngine` for any other graph.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import Adversary, apply_corruption
from repro.core.base import Dynamics
from repro.engine.registry import register_engine
from repro.engine.runner import RunResult, replicate, run_spec_replica
from repro.seeding import RandomState, as_generator
from repro.state import (
    consensus_opinion,
    gamma_from_counts,
    num_alive,
    validate_counts,
)

__all__ = ["PopulationEngine"]


class PopulationEngine:
    """Step a dynamics on the complete graph with self-loops, exactly.

    Parameters
    ----------
    dynamics:
        Any :class:`~repro.core.base.Dynamics`.
    counts:
        Initial configuration as a per-opinion count vector.
    seed:
        Anything accepted by :func:`repro.seeding.as_generator`.
    adversary:
        Optional F-bounded :class:`~repro.adversary.base.Adversary`
        applied after every dynamics round ([GL18] model); the
        corruption contract is enforced each round.

    Attributes
    ----------
    counts:
        Current configuration (int64 array, owned by the engine).
    round_index:
        Number of synchronous rounds executed so far.
    """

    def __init__(
        self,
        dynamics: Dynamics,
        counts: np.ndarray,
        seed: RandomState = None,
        adversary: Adversary | None = None,
    ) -> None:
        self.dynamics = dynamics
        self.adversary = adversary
        self.counts = validate_counts(counts).copy()
        self.num_vertices = int(self.counts.sum())
        self.num_opinions = int(self.counts.size)
        self.rng = as_generator(seed)
        self.round_index = 0

    def step(self) -> np.ndarray:
        """Execute one synchronous round; returns the new count vector.

        With an adversary, a round is: one dynamics round, then one
        checked corruption of at most ``F`` vertices.
        """
        counts = self.dynamics.population_step(self.counts, self.rng)
        if self.adversary is not None:
            counts = apply_corruption(counts, self.adversary, self.rng)
        self.counts = counts
        self.round_index += 1
        return self.counts

    def run(self, rounds: int) -> np.ndarray:
        """Execute exactly ``rounds`` rounds (no early stopping)."""
        for _ in range(rounds):
            self.step()
        return self.counts

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    @property
    def alpha(self) -> np.ndarray:
        """Current fractional populations."""
        return self.counts / self.num_vertices

    @property
    def gamma(self) -> float:
        """Current squared l2-norm ``gamma_t`` (Definition 3.2(iii))."""
        return gamma_from_counts(self.counts)

    @property
    def alive(self) -> int:
        """Number of surviving opinions."""
        return num_alive(self.counts)

    def is_consensus(self) -> bool:
        """True at consensus under the dynamics' label convention."""
        return self.dynamics.is_consensus_counts(self.counts)

    def winner(self) -> int | None:
        """Winning opinion at consensus, else ``None``.

        Consensus is the dynamics' convention, so e.g. the undecided
        label of an all-undecided USD state is never reported.
        """
        if not self.is_consensus():
            return None
        return consensus_opinion(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        adv = (
            f", adversary={self.adversary!r}"
            if self.adversary is not None
            else ""
        )
        return (
            f"PopulationEngine({self.dynamics.name}, n={self.num_vertices}, "
            f"k={self.num_opinions}, round={self.round_index}{adv})"
        )


def _run_spec(spec) -> list[RunResult]:
    """Registry adapter: R sequential population runs over spawned streams.

    Replica ``i`` always receives child stream ``i`` of the spec seed,
    so results are order-independent and bitwise-reproducible.
    """
    dynamics = spec.resolved_dynamics()
    counts = spec.initial_counts()
    budget = spec.round_budget()
    adversary = spec.resolved_adversary()

    def factory(rng: np.random.Generator) -> RunResult:
        engine = PopulationEngine(
            dynamics, counts, seed=rng, adversary=adversary
        )
        return run_spec_replica(engine, spec, budget)

    return replicate(factory, num_runs=spec.replicas, seed=spec.seed)


register_engine(
    "population",
    _run_spec,
    description=(
        "exact count-vector chain on the complete graph with self-loops"
    ),
    supports_target=True,
    supports_observers=True,
    supports_adversary=True,
)
