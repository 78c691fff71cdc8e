"""Per-round recorders of the paper's trajectory quantities.

:class:`TrajectoryRecorder` covers the quantities the paper tracks
(gamma_t, bias, surviving opinions) along one replica.  Feed it one
count vector per round through :meth:`TrajectoryRecorder.observe` —
typically from a batch engine's ``record_hook``, once for the start
(``round_index = 0``) and then after every round::

    recorder = TrajectoryRecorder()
    engine = BatchPopulationEngine(
        dynamics, counts, num_replicas=1, seed=rng,
        record_hook=lambda i, counts, _: recorder.observe(i, counts[0]),
    )
    recorder.observe(0, engine.counts[0])
    engine.run_until_consensus(max_rounds)
"""

from __future__ import annotations

import numpy as np

from repro.state import gamma_from_counts, num_alive

__all__ = ["TrajectoryRecorder"]


class TrajectoryRecorder:
    """Record the paper's basic quantities along a run.

    Parameters
    ----------
    record_gamma:
        Record ``gamma_t = sum_i alpha_t(i)^2`` (Definition 3.2(iii)).
    record_alive:
        Record the number of surviving opinions per round.
    record_max_alpha:
        Record ``max_i alpha_t(i)``.
    bias_pair:
        Optional ``(i, j)``; records ``delta_t(i, j)`` (Def. 3.2(ii)).
    counts_stride:
        When positive, snapshot the full count vector every
        ``counts_stride`` rounds (round 0 included).

    After a run, :meth:`as_arrays` returns a dict of numpy arrays keyed by
    ``"round"``, ``"gamma"``, ``"alive"``, ``"max_alpha"``, ``"bias"``.
    Snapshots are in :attr:`snapshots` as ``(round, counts)`` pairs.
    """

    def __init__(
        self,
        record_gamma: bool = True,
        record_alive: bool = True,
        record_max_alpha: bool = False,
        bias_pair: tuple[int, int] | None = None,
        counts_stride: int = 0,
    ) -> None:
        self.record_gamma = record_gamma
        self.record_alive = record_alive
        self.record_max_alpha = record_max_alpha
        self.bias_pair = bias_pair
        self.counts_stride = int(counts_stride)
        self.rounds: list[int] = []
        self.gamma: list[float] = []
        self.alive: list[int] = []
        self.max_alpha: list[float] = []
        self.bias: list[float] = []
        self.snapshots: list[tuple[int, np.ndarray]] = []

    def observe(self, round_index: int, counts: np.ndarray) -> None:
        self.rounds.append(round_index)
        n = counts.sum()
        if self.record_gamma:
            self.gamma.append(gamma_from_counts(counts))
        if self.record_alive:
            self.alive.append(num_alive(counts))
        if self.record_max_alpha:
            self.max_alpha.append(float(counts.max() / n))
        if self.bias_pair is not None:
            i, j = self.bias_pair
            self.bias.append(float((counts[i] - counts[j]) / n))
        if self.counts_stride and round_index % self.counts_stride == 0:
            self.snapshots.append((round_index, counts.copy()))

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Recorded series as a dict of aligned numpy arrays."""
        out: dict[str, np.ndarray] = {
            "round": np.asarray(self.rounds, dtype=np.int64)
        }
        if self.record_gamma:
            out["gamma"] = np.asarray(self.gamma, dtype=np.float64)
        if self.record_alive:
            out["alive"] = np.asarray(self.alive, dtype=np.int64)
        if self.record_max_alpha:
            out["max_alpha"] = np.asarray(self.max_alpha, dtype=np.float64)
        if self.bias_pair is not None:
            out["bias"] = np.asarray(self.bias, dtype=np.float64)
        return out
