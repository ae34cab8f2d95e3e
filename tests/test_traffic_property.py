"""Property tests for the traffic subsystem's schedule construction.

The contract under test (``repro/traffic/arrivals.py``): schedules are
pure functions of their seed — bit-identical across interpreter
invocations with different ``PYTHONHASHSEED`` values — and the
per-client streams merge into one globally time-ordered sequence with
deterministic tie-breaking.
These are the invariants that let ``slo_traffic`` digest-pin its
results like every other experiment.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NVMallocError
from repro.traffic import (
    ClientSwarm,
    DeterministicProcess,
    MMPPProcess,
    ParetoSizes,
    PoissonProcess,
    RequestRecord,
    SwarmConfig,
    ZipfKeys,
    build_schedule,
    summarize,
    window_summary,
)
from repro.traffic.arrivals import OP_CKPT, OP_READ, OP_WRITE

REPO_ROOT = Path(__file__).resolve().parent.parent

PROCESSES = [PoissonProcess(), DeterministicProcess(), MMPPProcess()]


# ----------------------------------------------------------------------
# Determinism across interpreters, hash seeds, and fan-out knobs
# ----------------------------------------------------------------------
HASHSEED_SCRIPT = (
    "from repro.traffic import build_schedule, MMPPProcess; "
    "print(build_schedule(99, 13, 7).digest()); "
    "print(build_schedule(99, 13, 7, process=MMPPProcess(), "
    "checkpoint_fraction=0.1).digest())"
)


def test_schedule_bit_identical_across_hash_seeds():
    expected = "\n".join(
        [
            build_schedule(99, 13, 7).digest(),
            build_schedule(
                99, 13, 7, process=MMPPProcess(), checkpoint_fraction=0.1
            ).digest(),
        ]
    )
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            check=True,
        )
        assert result.stdout.strip() == expected, f"PYTHONHASHSEED={seed}"


@pytest.mark.parametrize("process", PROCESSES, ids=lambda p: type(p).__name__)
def test_same_seed_same_schedule_different_seed_differs(process):
    a = build_schedule(7, 6, 5, process=process)
    b = build_schedule(7, 6, 5, process=process)
    c = build_schedule(8, 6, 5, process=process)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# ----------------------------------------------------------------------
# Global time order of the merged stream
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_clients=st.integers(min_value=1, max_value=20),
    per_client=st.integers(min_value=1, max_value=12),
    which=st.integers(min_value=0, max_value=len(PROCESSES) - 1),
)
def test_merged_stream_globally_time_ordered(
    seed, num_clients, per_client, which
):
    schedule = build_schedule(
        seed, num_clients, per_client, process=PROCESSES[which]
    )
    assert len(schedule) == num_clients * per_client
    times = schedule.times
    assert np.all(np.diff(times) >= 0.0), "arrivals out of order"
    assert np.all(times > 0.0)
    # Ties break by (client, sequence): within one timestamp the client
    # ids are non-decreasing, so the merge order never depends on the
    # sort's internals.
    for i in np.flatnonzero(np.diff(times) == 0.0):
        assert schedule.clients[i] <= schedule.clients[i + 1]
    # Every client contributed exactly its share.
    counts = np.bincount(schedule.clients, minlength=num_clients)
    assert np.all(counts == per_client)
    # Per-client arrivals stay strictly increasing after the merge.
    for client in range(num_clients):
        own = times[schedule.clients == client]
        assert np.all(np.diff(own) > 0.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=0.25, max_value=1000.0),
)
def test_at_rate_scales_only_the_clock(seed, rate):
    unit = build_schedule(seed, 5, 6)
    scaled = unit.at_rate(rate)
    assert np.array_equal(scaled.clients, unit.clients)
    assert np.array_equal(scaled.keys, unit.keys)
    assert np.array_equal(scaled.sizes, unit.sizes)
    assert np.array_equal(scaled.ops, unit.ops)
    assert np.allclose(scaled.times * rate, unit.times)
    # Order (and hence the request sequence) is preserved exactly.
    assert np.all(np.diff(scaled.times) >= 0.0)


# ----------------------------------------------------------------------
# Sampler ranges and mix fractions
# ----------------------------------------------------------------------
def test_pareto_sizes_bounded_and_heavy_tailed():
    rng = np.random.default_rng(3)
    sampler = ParetoSizes(lo=256, hi=64 * 1024)
    sizes = sampler.sample(rng, 20_000)
    assert sizes.dtype == np.int64
    assert int(sizes.min()) >= sampler.lo
    assert int(sizes.max()) <= sampler.hi
    # Heavy tail: the mean sits well above the median.
    assert float(sizes.mean()) > float(np.median(sizes)) * 1.5


def test_zipf_keys_bounded_and_skewed():
    rng = np.random.default_rng(4)
    sampler = ZipfKeys(num_keys=64)
    draws = sampler.sample(rng, 20_000)
    assert int(draws.min()) >= 0
    assert int(draws.max()) < sampler.num_keys
    counts = np.bincount(draws, minlength=sampler.num_keys)
    assert counts[0] == counts.max()  # the hottest key is key 0
    assert counts[0] > 4 * counts[sampler.num_keys // 2]


def test_mmpp_preserves_nominal_mean_rate():
    rng = np.random.default_rng(5)
    gaps = MMPPProcess().interarrivals(rng, 200_000)
    assert abs(float(gaps.mean()) - 1.0) < 0.05


def test_operation_mix_matches_fractions():
    schedule = build_schedule(
        11, 100, 50, read_fraction=0.6, checkpoint_fraction=0.1
    )
    fractions = np.bincount(schedule.ops, minlength=3) / len(schedule)
    assert abs(fractions[OP_READ] - 0.6) < 0.03
    assert abs(fractions[OP_CKPT] - 0.1) < 0.03
    assert abs(fractions[OP_WRITE] - 0.3) < 0.03


@pytest.mark.parametrize(
    "bad",
    [
        lambda: build_schedule(1, 0, 4),
        lambda: build_schedule(1, 4, 0),
        lambda: build_schedule(1, 4, 4, read_fraction=1.2),
        lambda: build_schedule(
            1, 4, 4, read_fraction=0.8, checkpoint_fraction=0.3
        ),
        lambda: build_schedule(1, 4, 4).at_rate(0.0),
        lambda: build_schedule(1, 4, 4, checkpoint_fraction=-0.1),
        lambda: ZipfKeys(num_keys=0).sample(np.random.default_rng(0), 4),
        lambda: ParetoSizes(lo=1024, hi=256).sample(
            np.random.default_rng(0), 4
        ),
    ],
)
def test_invalid_parameters_raise_typed_errors(bad):
    with pytest.raises(NVMallocError):
        bad()


# ----------------------------------------------------------------------
# SLO folds
# ----------------------------------------------------------------------
def _record(arrival, latency, *, ok=True):
    return RequestRecord(
        client=0, op=OP_READ, arrival=arrival,
        completion=arrival + latency, ok=ok,
        error=None if ok else "StoreError",
    )


def test_summarize_percentiles_and_attainment():
    records = [_record(i * 0.1, 0.001 * (i + 1)) for i in range(100)]
    summary = summarize(records, slo_target=0.050)
    assert summary.count == 100 and summary.ok == 100
    assert summary.p50 == pytest.approx(0.051)
    assert summary.p99 == pytest.approx(0.100)
    assert summary.max_latency == pytest.approx(0.100)
    assert summary.within_slo == 50
    assert summary.attainment == pytest.approx(0.5)
    # Errors count against attainment but not against throughput's ok.
    records[0] = _record(0.0, 0.001, ok=False)
    failed = summarize(records, slo_target=0.050)
    assert failed.errors == 1
    assert failed.within_slo == 49


def test_window_summary_restricts_to_arrival_window():
    records = [_record(float(i), 0.01) for i in range(10)]
    window = window_summary(records, 3.0, 7.0, slo_target=1.0)
    assert window.count == 4  # arrivals 3, 4, 5, 6
    assert window.duration == pytest.approx(4.0)


def test_empty_fold_is_all_zeros_not_a_crash():
    summary = summarize([], slo_target=0.1)
    assert summary.count == 0
    assert summary.attainment == 0.0
    assert summary.goodput == 0.0


# ----------------------------------------------------------------------
# Report cells: low-sample guards (mirrors MIN_PREFETCH_SAMPLES)
# ----------------------------------------------------------------------
def test_rate_and_attainment_cells_guard_low_samples():
    from repro.experiments.report import (
        MIN_RATE_SAMPLES,
        attainment_cell,
        rate_cell,
    )

    # Too few samples (or an empty window): raw counts, never a rate
    # extrapolated from near-zero virtual seconds.
    assert rate_cell(3, 0.5) == "n=3"
    assert rate_cell(100, 0.0) == "n=100"
    assert rate_cell(100, 0.5, samples=MIN_RATE_SAMPLES - 1) == "n=100"
    assert rate_cell(100, 0.5) == "200.0"

    assert attainment_cell(0, 0) == "-"
    assert attainment_cell(2, MIN_RATE_SAMPLES - 1) == f"2/{MIN_RATE_SAMPLES - 1}"
    assert attainment_cell(9, 10) == "90.0"


# ----------------------------------------------------------------------
# Open loop: a typed failure is a record, a crash is raised
# ----------------------------------------------------------------------
def _tiny_swarm():
    from repro.experiments import TINY
    from repro.experiments.runner import Testbed

    job = Testbed(TINY).job(1, 2, 4, remote_ssd=True)
    return ClientSwarm(job, SwarmConfig(region_bytes=TINY.slo_region_bytes))


def _fail_third_read(monkeypatch, error):
    """Make the third ``NVMVariable.read`` of the run raise ``error``."""
    from repro.core.nvmalloc import NVMVariable

    read, calls = NVMVariable.read, []

    def patched(self, offset, length):
        calls.append(offset)
        if len(calls) == 3:
            raise error
        return read(self, offset, length)

    monkeypatch.setattr(NVMVariable, "read", patched)


def test_open_loop_records_a_typed_failure(monkeypatch):
    schedule = build_schedule(5, 10, 5, read_fraction=1.0)
    _fail_third_read(monkeypatch, NVMallocError("chunk lost at every replica"))
    result = _tiny_swarm().open_loop(schedule)
    assert result.issued == len(result.records) == 50
    (failed,) = [r for r in result.records if not r.ok]
    assert failed.error == "NVMallocError"


def test_open_loop_raises_a_crashed_request(monkeypatch):
    """A request process that dies of anything but a typed model error is
    an interpreter error, not a failed request: it used to decrement the
    countdown like a completion, and ``open_loop`` returned 49 records."""
    schedule = build_schedule(5, 10, 5, read_fraction=1.0)
    _fail_third_read(monkeypatch, TypeError("injected bug"))
    with pytest.raises(TypeError, match="injected bug"):
        _tiny_swarm().open_loop(schedule)
