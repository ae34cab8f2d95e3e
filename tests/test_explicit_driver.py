"""Tests for the explicit-control-vs-swap experiment driver."""

import pytest

from repro.experiments import SMALL, explicit_vs_swap


@pytest.fixture(scope="module")
def report():
    # One run shared by the assertions below (the driver is deterministic).
    return explicit_vs_swap(SMALL)


class TestExplicitVsSwap:
    def test_verified_and_complete(self, report):
        assert report.verified
        assert len(report.rows) == 4

    def test_sharing_row_is_decisive(self, report):
        rows = {row[0]: row for row in report.rows}
        shared = rows["8 processes reading one 16 MiB dataset"]
        assert shared[3] > 4.0

    def test_capacity_row_structure(self, report):
        rows = {row[0]: row for row in report.rows}
        big = rows["Dataset 2x the local NVM partition"]
        assert "CapacityError" in str(big[1])
        assert float(big[2]) > 0.0

    def test_claims_present(self, report):
        assert report.paper_claims and report.measured_claims
        assert "explicit control" in report.paper_claims[0]


def test_programming_error_in_swap_is_not_reported_as_the_result(monkeypatch):
    """Only the oversized array's CapacityError is the paper's §I row;
    anything else raised while building it is a bug and must surface."""
    import repro.experiments.explicit as explicit

    real = explicit.SwappedArray

    def misused(swap, shape, dtype):
        if shape[0] * dtype.itemsize > swap.swap_bytes:  # the oversized one
            raise TypeError("SwappedArray misused")
        return real(swap, shape, dtype)

    monkeypatch.setattr(explicit, "SwappedArray", misused)
    with pytest.raises(TypeError, match="SwappedArray misused"):
        explicit_vs_swap(SMALL)
