"""Consensus dynamics: the paper's objects of study plus baselines.

* :class:`ThreeMajority`, :class:`TwoChoices` — the two dynamics whose
  consensus time the paper pins down (Theorem 1.1);
* :class:`HMajority`, :class:`UndecidedStateDynamics` — the Section 2.5
  extensions;
* :class:`Voter`, :class:`MedianRule` — baselines from the related work.
"""

from repro.core.base import (
    BATCH_ELEMENT_BUDGET,
    Dynamics,
    batch_binomial,
    batch_multinomial_counts,
    gather_neighbor_opinions_batch,
    iter_row_chunks,
    sample_and_gather_neighbor_opinions_batch,
    sample_holders_batch,
    sample_opinions_from_counts_batch,
)
from repro.core.h_majority import HMajority
from repro.core.median import MedianRule
from repro.core.registry import available_dynamics, make_dynamics
from repro.core.three_majority import ThreeMajority, three_majority_law
from repro.core.two_choices import TwoChoices, two_choices_law
from repro.core.undecided import UndecidedStateDynamics, with_undecided_slot
from repro.core.voter import Voter

__all__ = [
    "BATCH_ELEMENT_BUDGET",
    "Dynamics",
    "HMajority",
    "MedianRule",
    "ThreeMajority",
    "TwoChoices",
    "UndecidedStateDynamics",
    "Voter",
    "available_dynamics",
    "batch_binomial",
    "batch_multinomial_counts",
    "gather_neighbor_opinions_batch",
    "iter_row_chunks",
    "make_dynamics",
    "sample_and_gather_neighbor_opinions_batch",
    "sample_holders_batch",
    "sample_opinions_from_counts_batch",
    "three_majority_law",
    "two_choices_law",
    "with_undecided_slot",
]
