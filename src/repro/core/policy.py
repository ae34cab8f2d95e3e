"""Placement policy: which variables go to DRAM, which to the NVM store.

The paper argues applications should place write-once-read-many or
infrequently accessed variables on NVM and keep hot, frequently mutated
ones in DRAM (§III-B).  :class:`PlacementPolicy` encodes that heuristic
plus the hard constraint that the DRAM budget cannot be exceeded, so
workloads can ask "where should this array live?" instead of hand-coding
the decision per configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PlacementDecision(enum.Enum):
    """Where a variable should be allocated."""

    DRAM = "dram"
    NVM = "nvm"


@dataclass
class VariableProfile:
    """Access characteristics of a variable, as hinted by the application."""

    name: str
    nbytes: int
    # Estimated accesses per byte over the variable's lifetime.
    reads_per_byte: float = 1.0
    writes_per_byte: float = 1.0
    sequential: bool = True

    @property
    def write_once_read_many(self) -> bool:
        """True for the WORM profile the paper recommends spilling to NVM."""
        return self.writes_per_byte <= 1.0 and self.reads_per_byte >= 2.0


class PlacementPolicy:
    """Greedy placement under a DRAM budget.

    Variables are ranked by "heat" (access intensity, with writes weighted
    more because NVM writes are slower and wear the device); the hottest
    variables claim DRAM until the budget runs out, the rest spill to the
    NVM store.  Write-once-read-many sequential variables are preferred
    spill candidates: exactly what NVMalloc's chunk cache handles well.
    """

    WRITE_WEIGHT = 3.0  #: how much hotter a write makes a byte than a read

    def __init__(self, dram_budget: int) -> None:
        if dram_budget < 0:
            raise ValueError(f"negative DRAM budget {dram_budget}")
        self.dram_budget = dram_budget

    def heat(self, profile: VariableProfile) -> float:
        """Access intensity; higher means more DRAM-worthy."""
        score = profile.reads_per_byte + self.WRITE_WEIGHT * profile.writes_per_byte
        if profile.write_once_read_many and profile.sequential:
            # NVMalloc's sweet spot: cheap to serve from the chunk cache.
            score *= 0.5
        return score

    def place(
        self, profiles: list[VariableProfile]
    ) -> dict[str, PlacementDecision]:
        """Assign every variable a placement under the DRAM budget."""
        decisions: dict[str, PlacementDecision] = {}
        remaining = self.dram_budget
        ranked = sorted(profiles, key=self.heat, reverse=True)
        for profile in ranked:
            if profile.nbytes <= remaining:
                decisions[profile.name] = PlacementDecision.DRAM
                remaining -= profile.nbytes
            else:
                decisions[profile.name] = PlacementDecision.NVM
        return decisions
