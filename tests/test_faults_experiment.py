"""The fault-injection experiment: verified outcomes, digest determinism.

Marked ``faults`` (excluded from the default tier-1 run): each leg
simulates full STREAM/checkpoint workloads, so this file costs
noticeably more wall time than the unit tests.  CI runs it in a
dedicated job alongside a two-process digest comparison.
"""

import pytest

from repro.experiments import TINY, faults

pytestmark = pytest.mark.faults


def test_faults_report_verified_and_digest_stable():
    first = faults(TINY)
    assert first.verified

    statuses = {(row[0], row[1]): row[3] for row in first.rows}
    # r=2 rides through the crash on both workloads.
    assert statuses[("STREAM", 2)] == "ok"
    assert statuses[("checkpoint", 2)] == "ok"
    # r=1 fails cleanly (a typed error, not a hang or silent corruption).
    assert statuses[("STREAM", 1)] == "ChunkUnavailableError"
    assert statuses[("checkpoint", 1)] in (
        "ChunkUnavailableError",
        "CheckpointError",
    )
    # Recovery actually happened at r=2: chunks were re-replicated.
    rereplicated = {(row[0], row[1]): row[7] for row in first.rows}
    assert rereplicated[("STREAM", 2)] > 0
    assert rereplicated[("checkpoint", 2)] > 0

    # Identical seed + identical FaultPlan => identical digest.  The
    # digest covers rows, claims, and the byte-flow counters the
    # orchestrator folds in, so this is the same invariant the result
    # cache and the serial/parallel identity check rely on.
    second = faults(TINY)
    assert second.digest() == first.digest()
