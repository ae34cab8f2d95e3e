"""The cache-tiering ablation: improvement claims, digest determinism.

Marked ``cache`` (excluded from the default tier-1 run, like ``faults``):
the grid runs 20 full workload legs, so this file costs noticeably more
wall time than the unit tests.  CI runs it in a dedicated job alongside
a cross-hash-seed digest comparison and the default-config identity
gate.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import TINY, cache_tiering, check_identity
from repro.experiments.parallel import execute_experiment
from repro.experiments.report import MIN_PREFETCH_SAMPLES
from repro.experiments.runner import track_testbeds

pytestmark = pytest.mark.cache

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report():
    return cache_tiering(TINY)


def leg(report, workload, config):
    for row in report.rows:
        if row[0] == workload and row[1] == config:
            return row
    raise AssertionError(f"missing row {workload}/{config}")


def cache_line(report, label):
    for line in report.cache_lines:
        if line.startswith(f"{label}: chunk cache"):
            return line
    raise AssertionError(f"missing cache line for {label}")


def test_report_verified(report):
    # ``verified`` folds in data verification of every leg AND the
    # acceptance gates (randwrite improves, streaming within budget).
    assert report.verified


def test_full_hierarchy_beats_lru_on_randwrite(report):
    base = leg(report, "randwrite", "lru")
    full = leg(report, "randwrite", "arc+l2+pf")
    assert float(full[4]) > float(base[4])  # demand hit rate up
    assert float(full[8]) < float(base[8])  # demand-fill latency down
    assert full[2] < base[2]  # virtual time down

    # The improvement is the tier absorbing DRAM misses, not an
    # accounting artifact: demand lookups are identical across legs
    # (the "(hits/lookups)" fraction in each leg's cache line).
    lookups = re.compile(r"chunk cache [\d.]+% hits \(\d+/(\d+)\)")
    base_total = lookups.search(cache_line(report, "randwrite/lru")).group(1)
    full_line = cache_line(report, "randwrite/arc+l2+pf")
    assert lookups.search(full_line).group(1) == base_total
    assert "local tier" in full_line  # L2 hits actually happened


def test_streaming_legs_within_regression_budget(report):
    for workload in ("STREAM", "MM", "checkpoint"):
        base = leg(report, workload, "lru")
        for config in ("arc", "lru+l2", "arc+l2+pf"):
            row = leg(report, workload, config)
            assert row[2] <= base[2] * 1.02, (workload, config)


def test_adaptive_prefetch_shuts_off_on_randwrite(report):
    # Random access never confirms a run, so the detector stays quiet:
    # at most a handful of prefetches (the verify pass has a short
    # sequential tail), where a fixed window would fire on every read.
    line = cache_line(report, "randwrite/arc+l2+pf")
    match = re.search(
        r"prefetch accuracy [\d.]+% \(\d+/(\d+)\)"
        r"|prefetches \d+/(\d+)",
        line,
    )
    issued = int(match.group(1) or match.group(2)) if match else 0
    assert issued <= 5, line
    # With fewer than MIN_PREFETCH_SAMPLES issued, the report must not
    # print a percentage: one dead readahead is not a 0% accuracy rate.
    if 0 < issued < MIN_PREFETCH_SAMPLES:
        assert "prefetch accuracy" not in line, line
        assert leg(report, "randwrite", "arc+l2+pf")[6] == "-"


def test_opt_in_features_fold_no_counter_of_their_own():
    """The digest folds every ``fuse.*`` counter a leg touched.  What the
    policy, the local tier and the detector do is reported per cache in
    ``CacheStats`` (the report's rows): the folded names are exactly the
    ones the legs without any of the three (``lru``, ``lru+ra``) touch."""
    module = sys.modules[cache_tiering.__module__]
    folded, _ = execute_experiment("cache_tiering", TINY)
    plain = [
        overrides
        for label, overrides in module.cache_configs(TINY)
        if label in ("lru", "lru+ra")
    ]
    with track_testbeds() as tracker:
        for _, run_leg in module.WORKLOADS:
            for overrides in plain:
                run_leg(TINY, dict(overrides))
    names = set()
    for testbed in tracker.testbeds:
        names.update(testbed.cluster.metrics.snapshot("fuse."))
    assert len(tracker.testbeds) == 8
    assert {n for n in folded.counters if n.startswith("fuse.")} == names
    assert "fuse.cache.prefetches" in names


def test_digest_stable_across_repeats(report):
    assert cache_tiering(TINY).digest() == report.digest()


def test_digest_identical_serial_vs_parallel():
    identical, pairs = check_identity(["cache_tiering"], TINY, jobs=2)
    assert identical, pairs


HASHSEED_SCRIPT = (
    "from repro.experiments import TINY, cache_tiering; "
    "print(cache_tiering(TINY).digest())"
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
