"""The checkpoint-lifecycle experiment: verified outcomes, digest stability.

Marked ``lifecycle`` (excluded from the default tier-1 run, like
``faults``): the ten legs each run a checkpoint loop with GC, crash
injection, and cold restarts, so this file costs noticeably more wall
time than the unit tests.  CI runs it in a dedicated job alongside a
two-process PYTHONHASHSEED digest comparison.
"""

import pytest

from repro.experiments import TINY, ckpt_lifecycle, parallel
from tests.conftest import load_tool

pytestmark = pytest.mark.lifecycle

jitter_kernel = load_tool("jitter_kernel").jitter_kernel

#: Column indices of a report row.
STATUS, RETRIES, DIGEST = 3, 11, 13


def test_lifecycle_report_verified_and_digest_stable():
    first = ckpt_lifecycle(TINY)
    assert first.verified

    legs = {(row[0], row[1], row[2]): row for row in first.rows}
    # Baseline chains: every mode commits, restores, and GC reclaims.
    for mode in ("full", "incremental", "async"):
        for r in (1, 2):
            row = legs[(mode, r, "none")]
            assert row[3] == "ok"

    # Incremental and async chains write strictly less than full copies.
    written = {(row[0], row[1]): row[6] for row in first.rows if row[2] == "none"}
    for r in (1, 2):
        assert written[("incremental", r)] < written[("full", r)]
        assert written[("async", r)] < written[("full", r)]

    # The r=1 mid-restore crash fails with the typed error, not a hang.
    (restore_crash,) = [
        row for row in first.rows if row[3] == "RestoreError"
    ]
    assert restore_crash[1] == 1

    # The crash at a checkpoint reaches the client: the epoch retried
    # past the dead benefactor instead of only the heartbeat seeing it.
    for mode in ("incremental", "async"):
        assert legs[(mode, 2, "crash at ckpt1")][RETRIES] >= 1

    # Two runs of one build digest identically.
    second = ckpt_lifecycle(TINY)
    assert second.digest() == first.digest()


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_crash_legs_hold_under_jitter(seed):
    """Every delay stretched by up to 20 %: each crash still lands in the
    phase its row names, since the rank crashes the victim as it enters
    that phase.  (At a crash time measured off the baseline's phase
    windows these seeds crashed after the restore, which read ``ok``.)"""
    with jitter_kernel(seed, 0.2):
        report, _ = parallel.execute_experiment("ckpt_lifecycle", TINY)
    assert report.verified
    legs = {(row[0], row[1], row[2]): row for row in report.rows}
    assert legs[("incremental", 1, "crash at restore")][STATUS] == "RestoreError"
    for mode in ("incremental", "async"):
        crash = legs[(mode, 2, "crash at ckpt1")]
        assert crash[STATUS] == "ok"
        assert crash[DIGEST] == legs[(mode, 2, "none")][DIGEST]
