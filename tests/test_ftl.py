"""Tests for the flash translation layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.ftl import FlashTranslationLayer
from repro.errors import CapacityError, EnduranceExceededError
from repro.util.units import MiB


def make_ftl(**kwargs):
    defaults = dict(
        capacity=1 * MiB, pages_per_block=16, overprovision=0.1
    )
    defaults.update(kwargs)
    return FlashTranslationLayer(**defaults)


class TestGeometry:
    def test_logical_smaller_than_physical(self):
        ftl = make_ftl()
        assert ftl.logical_pages < ftl.physical_pages
        assert ftl.logical_pages >= 0.85 * ftl.physical_pages

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_ftl(capacity=0)

    def test_bad_overprovision_rejected(self):
        with pytest.raises(ValueError):
            make_ftl(overprovision=0.9)


class TestMapping:
    def test_unwritten_page_unmapped(self):
        ftl = make_ftl()
        assert not ftl.read_page(0)

    def test_write_maps(self):
        ftl = make_ftl()
        ftl.write_pages([0, 1, 2])
        assert ftl.read_page(0)
        assert ftl.mapped_pages() == 3

    def test_out_of_range_rejected(self):
        ftl = make_ftl()
        with pytest.raises(CapacityError):
            ftl.write_pages([ftl.logical_pages])
        with pytest.raises(CapacityError):
            ftl.read_page(-1)

    def test_rewrite_is_out_of_place(self):
        ftl = make_ftl()
        ftl.write_pages([5])
        first = ftl._l2p[5]
        ftl.write_pages([5])
        assert ftl._l2p[5] != first
        assert ftl.mapped_pages() == 1

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write_pages([0, 1])
        ftl.trim_pages([0])
        assert not ftl.read_page(0)
        assert ftl.read_page(1)

    def test_l2p_stays_bijective(self):
        ftl = make_ftl()
        for round_ in range(5):
            ftl.write_pages(list(range(0, ftl.logical_pages, 3)))
            ppns = list(ftl._l2p.values())
            assert len(ppns) == len(set(ppns)), "two LPNs share a PPN"


class TestGarbageCollection:
    def test_sustained_overwrite_triggers_gc(self):
        ftl = make_ftl()
        hot = list(range(32))
        for _ in range(50):
            ftl.write_pages(hot)
        assert ftl.stats.blocks_erased > 0
        assert ftl.stats.write_amplification >= 1.0
        # Hot overwrites invalidate whole blocks: amplification stays low.
        assert ftl.stats.write_amplification < 2.0

    def test_write_amplification_grows_with_fill(self):
        """A nearly full device with random overwrites relocates more."""
        ftl = make_ftl(capacity=1 * MiB, overprovision=0.1)
        # Fill most of the logical space.
        live = int(ftl.logical_pages * 0.95)
        ftl.write_pages(list(range(live)))
        import random

        rng = random.Random(5)
        for _ in range(40):
            ftl.write_pages([rng.randrange(live) for _ in range(16)])
        assert ftl.stats.write_amplification > 1.05

    def test_overprovision_sustains_full_logical_rewrites(self):
        """With overprovisioning, rewriting the whole logical space
        repeatedly always finds GC victims."""
        ftl = make_ftl(overprovision=0.2)
        everything = list(range(ftl.logical_pages))
        for _ in range(5):
            ftl.write_pages(everything)
        assert ftl.mapped_pages() == ftl.logical_pages

    def test_zero_overprovision_fills_up(self):
        """Without overprovisioning a fully live device cannot GC."""
        ftl = make_ftl(overprovision=0.0)
        with pytest.raises(CapacityError):
            for _ in range(3):
                ftl.write_pages(list(range(ftl.logical_pages)))


class TestWearLeveling:
    def test_spread_is_bounded(self):
        ftl = make_ftl(wear_leveling=True)
        hot = list(range(16))
        for _ in range(200):
            ftl.write_pages(hot)
        low, high = ftl.erase_count_spread()
        assert high - low <= max(3, high // 2)

    def test_endurance_enforced(self):
        ftl = make_ftl(
            capacity=256 * 1024, pages_per_block=8, endurance_cycles=5
        )
        hot = list(range(8))
        with pytest.raises(EnduranceExceededError):
            for _ in range(10_000):
                ftl.write_pages(hot)

    def test_stats_consistency(self):
        ftl = make_ftl()
        for _ in range(30):
            ftl.write_pages(list(range(48)))
        stats = ftl.stats
        assert stats.flash_pages_written == (
            stats.host_pages_written + stats.pages_relocated
        )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30),
        min_size=1,
        max_size=40,
    )
)
def test_property_mapping_tracks_reference(write_batches):
    """After any write/trim sequence, the mapped set and bijectivity hold."""
    ftl = make_ftl(capacity=2 * MiB)
    mapped: set[int] = set()
    for batch in write_batches:
        lpns = [p % ftl.logical_pages for p in batch]
        if len(mapped) > 80:
            victims = sorted(mapped)[:40]
            ftl.trim_pages(victims)
            mapped.difference_update(victims)
        ftl.write_pages(lpns)
        mapped.update(lpns)
        assert ftl.mapped_pages() == len(mapped)
        ppns = list(ftl._l2p.values())
        assert len(ppns) == len(set(ppns))
        for lpn in mapped:
            assert ftl.read_page(lpn)
