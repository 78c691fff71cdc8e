"""F-bounded adversarial corruption ([GL18] model, paper Section 2.5)."""

from repro.adversary.base import (
    Adversary,
    apply_corruption,
    enforce_corruption_contract,
    enforce_corruption_contract_batch,
)
from repro.adversary.registry import available_adversaries, make_adversary
from repro.adversary.strategies import (
    RandomCorruption,
    ReviveWeakest,
    SupportRunnerUp,
)
from repro.adversary.tolerance import (
    LeaderThresholdTarget,
    near_consensus_target,
    near_consensus_threshold,
)

__all__ = [
    "Adversary",
    "LeaderThresholdTarget",
    "RandomCorruption",
    "ReviveWeakest",
    "SupportRunnerUp",
    "apply_corruption",
    "available_adversaries",
    "enforce_corruption_contract",
    "enforce_corruption_contract_batch",
    "make_adversary",
    "near_consensus_target",
    "near_consensus_threshold",
]
