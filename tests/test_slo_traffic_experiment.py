"""The slo_traffic experiment: verified outcomes, digest determinism.

Marked ``slo`` (excluded from the default tier-1 run, like ``faults``):
each of the nine legs runs a full client swarm against a fresh testbed,
so this file costs noticeably more wall time than the unit tests.  CI
runs it in a dedicated job alongside a two-process PYTHONHASHSEED digest
comparison.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import TINY, check_identity, slo_traffic
from repro.experiments.slo_traffic import LOAD_FACTORS

pytestmark = pytest.mark.slo

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report():
    return slo_traffic(TINY)


def leg(report, label):
    for row in report.rows:
        if row[0] == label:
            return row
    raise AssertionError(f"missing row {label!r}")


def test_report_verified(report):
    # ``verified`` folds in the monotone-curve, knee, and every
    # SLO-under-failure gate; render() shows which leg broke on failure.
    assert report.verified, report.render()


def test_load_latency_curve_monotone_with_knee(report):
    sweep = [row for row in report.rows if row[0] == "poisson sweep"]
    assert len(sweep) == len(LOAD_FACTORS)
    p99s = [float(row[6]) for row in sweep]
    assert p99s == sorted(p99s)
    # The knee (and the measured capacity) made it into the claims.
    (curve_claim,) = [c for c in report.measured_claims if "knee at" in c]
    assert "req/s capacity" in curve_claim


def test_crash_legs_report_not_crash(report):
    # r=2 rides through the mid-run benefactor crash: zero failed
    # requests, nothing lost; r=1 on the same schedule *reports* its
    # violations as failed requests in the table.
    assert leg(report, "r=2 crash")[9] == 0
    assert leg(report, "r=1 crash")[9] > 0


def test_slow_replica_inflates_p99_without_errors(report):
    base = leg(report, "r=2 baseline")
    slow = leg(report, "r=2 slow replica")
    assert slow[9] == 0
    assert float(slow[6]) > float(base[6])


def test_digest_stable_across_repeats(report):
    assert slo_traffic(TINY).digest() == report.digest()


def test_digest_identical_serial_vs_parallel():
    identical, pairs = check_identity(["slo_traffic"], TINY, jobs=2)
    assert identical, pairs


HASHSEED_SCRIPT = (
    "from repro.experiments import TINY, slo_traffic; "
    "print(slo_traffic(TINY).digest())"
)


def test_digest_identical_across_hash_seeds(report):
    digests = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            check=True,
        )
        digests.add(result.stdout.strip())
    assert digests == {report.digest()}
