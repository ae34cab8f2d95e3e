"""Tests for the DRAM/NVM placement policy."""

import pytest

from repro.core.policy import (
    PlacementDecision,
    PlacementPolicy,
    VariableProfile,
)
from repro.util.units import MiB


def profile(name, nbytes, reads=1.0, writes=1.0, sequential=True):
    return VariableProfile(
        name=name, nbytes=nbytes, reads_per_byte=reads,
        writes_per_byte=writes, sequential=sequential,
    )


class TestPolicy:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            PlacementPolicy(-1)

    def test_everything_fits(self):
        policy = PlacementPolicy(10 * MiB)
        decisions = policy.place([profile("a", 1 * MiB), profile("b", 2 * MiB)])
        assert all(d is PlacementDecision.DRAM for d in decisions.values())

    def test_spill_cold_variables(self):
        policy = PlacementPolicy(2 * MiB)
        hot = profile("hot", 2 * MiB, reads=100, writes=100)
        cold = profile("cold", 2 * MiB, reads=1, writes=0.1)
        decisions = policy.place([cold, hot])
        assert decisions["hot"] is PlacementDecision.DRAM
        assert decisions["cold"] is PlacementDecision.NVM

    def test_write_once_read_many_prefers_nvm(self):
        """The paper's guidance: WORM variables are ideal spill candidates."""
        policy = PlacementPolicy(2 * MiB)
        worm = profile("worm", 2 * MiB, reads=10, writes=1.0)
        mutable = profile("mutable", 2 * MiB, reads=10, writes=1.0001)
        # Identical traffic, but the WORM variable's heat is discounted.
        assert policy.heat(worm) < policy.heat(mutable)
        decisions = policy.place([worm, mutable])
        assert decisions["mutable"] is PlacementDecision.DRAM
        assert decisions["worm"] is PlacementDecision.NVM

    def test_writes_weighted_heavier(self):
        policy = PlacementPolicy(1 * MiB)
        reader = profile("reader", 1 * MiB, reads=4, writes=0, sequential=False)
        writer = profile("writer", 1 * MiB, reads=0, writes=2, sequential=False)
        assert policy.heat(writer) > policy.heat(reader)

    def test_zero_budget_spills_all(self):
        policy = PlacementPolicy(0)
        decisions = policy.place([profile("a", 1)])
        assert decisions["a"] is PlacementDecision.NVM

    def test_fits_in_dram(self):
        policy = PlacementPolicy(3 * MiB)
        fits = policy.place([profile("a", 1 * MiB), profile("b", 2 * MiB)])
        assert set(fits.values()) == {PlacementDecision.DRAM}
        assert policy.place([profile("a", 4 * MiB)])["a"] is PlacementDecision.NVM

    def test_greedy_packing(self):
        policy = PlacementPolicy(3 * MiB)
        a = profile("a", 2 * MiB, reads=10, sequential=False)
        b = profile("b", 2 * MiB, reads=9, sequential=False)
        c = profile("c", 1 * MiB, reads=8, sequential=False)
        decisions = policy.place([a, b, c])
        assert decisions["a"] is PlacementDecision.DRAM  # hottest first
        assert decisions["b"] is PlacementDecision.NVM  # no room
        assert decisions["c"] is PlacementDecision.DRAM  # fits remainder
