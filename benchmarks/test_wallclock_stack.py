"""Wall-clock benchmark of the batched fast path through the memory stack.

Excluded from tier-1 (``-m "not wallclock"`` in the default addopts);
run explicitly with::

    PYTHONPATH=src pytest benchmarks/test_wallclock_stack.py -m wallclock

or via ``make bench-wallclock``, which also compares against the
checked-in seed baseline.  The virtual outputs are the correctness
anchor: the stack may only get faster in wall-clock terms while its
simulated times and byte-flow counters stay bit-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "tools"))

import bench_wallclock  # noqa: E402

pytestmark = pytest.mark.wallclock

SEED_BASELINE = _ROOT / "benchmarks" / "BENCH_wallclock_seed.json"


def _tiny(name):
    """``TINY`` for workload ``name``.

    The hybrid sort gets a smaller DRAM share: TINY's 32768 elements over
    the 128 ranks of L-SSD(8:16:16) are 256 a rank, under TINY's
    1024-element share, so the sort would never leave DRAM and record no
    byte flow at all.  With 128, half of every rank's run spills to NVM.
    """
    scale = bench_wallclock.TINY
    if name == "quicksort_table6_hybrid":
        scale = scale.with_(sort_dram_per_rank=128)
    return scale


@pytest.mark.parametrize("name", sorted(bench_wallclock.WORKLOADS))
def test_workload_runs_and_verifies(name):
    """Each benchmark workload completes, verifies, and reports flows."""
    outcome = bench_wallclock.WORKLOADS[name](_tiny(name))
    assert outcome["verified"], f"{name} failed its own verification"
    assert outcome["wall_seconds"] > 0
    assert outcome["virtual_seconds"] > 0
    counters = outcome["counters"]
    assert counters, "no byte-flow counters recorded"
    assert any(k.startswith("pagecache.") for k in counters)
    assert any(k.startswith("fuse.") for k in counters)


@pytest.mark.parametrize("name", sorted(bench_wallclock.WORKLOADS))
def test_virtual_results_deterministic(name):
    """Back-to-back runs agree bit-for-bit on every virtual quantity."""
    first = bench_wallclock.WORKLOADS[name](_tiny(name))
    second = bench_wallclock.WORKLOADS[name](_tiny(name))
    assert first["virtual_seconds"] == second["virtual_seconds"]
    assert first["counters"] == second["counters"]


def test_runner_emits_report(tmp_path):
    """The CLI runner writes a well-formed JSON report."""
    out = tmp_path / "bench.json"
    rc = bench_wallclock.main(
        ["--scale", "tiny", "--workloads", "stream_triad_nvm",
         "--output", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert "stream_triad_nvm" in report["workloads"]


def test_seed_baseline_checked_in():
    """The recorded seed baseline the Makefile target compares against."""
    baseline = json.loads(SEED_BASELINE.read_text())
    assert set(baseline["workloads"]) == set(bench_wallclock.WORKLOADS)
    for name, outcome in baseline["workloads"].items():
        assert outcome["wall_seconds"] > 0, name
        assert outcome["counters"], name
