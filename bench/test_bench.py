"""Checks on the benchmark itself.  Not part of tier-1:

    python -m pytest bench -q
"""

from __future__ import annotations

import cProfile
import copy
import dataclasses
import json
import pstats
import re
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import harness  # noqa: E402
import layers  # noqa: E402
import pins  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from repro.core.variable import NVMVariable  # noqa: E402
from repro.errors import StoreError  # noqa: E402


def small(name: str, **params) -> workloads.Workload:
    """A workload with some literals overridden, for a quick repeat."""
    workload = workloads.BY_NAME[name]
    config = copy.deepcopy(workload.config)
    config["params"].update(params)
    return dataclasses.replace(workload, config=config)


def one_repeat(workload, profiler=None):
    load = workload.generate(run.DEFAULT_SEED, workload.params)
    _, probe, outcome = harness.repeat(workload, load, profiler)
    return probe, outcome


# ----------------------------------------------------------------------
# The layer map and the metric lists
# ----------------------------------------------------------------------
def test_every_module_maps_to_a_layer():
    files = sorted(layers.PACKAGE_DIR.rglob("*.py"))
    assert files
    for path in files:
        relative = path.relative_to(layers.PACKAGE_DIR).as_posix()
        assert layers.layer_of_module(relative) in layers.LAYERS, (
            f"{relative} maps to no layer: add a rule to layers.MODULE_RULES"
        )


def test_an_unmapped_module_is_reported():
    assert layers.layer_of_module("newpackage/thing.py") is None


def test_metric_names_and_counts():
    names = [m.name for m in END_TO_END + PER_LAYER]
    names += [w.name for w in workloads.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in END_TO_END + PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit), metric
    assert len(END_TO_END) == 11 and len(PER_LAYER) <= 128
    assert len(workloads.WORKLOADS) == 6
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in workloads.WORKLOADS)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    setup = END_TO_END[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_manifest_is_what_is_committed():
    committed = json.loads((layers.REPO_ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


def test_pins_cover_the_literals():
    for workload in workloads.WORKLOADS:
        assert workload.config_digest() == pins.CONFIG[workload.name]


# ----------------------------------------------------------------------
# Roll-ups
# ----------------------------------------------------------------------
def test_profile_rollup_is_total():
    profiler = cProfile.Profile()
    _, outcome = one_repeat(small("rand_write_miss", ops=300), profiler)
    stats = pstats.Stats(profiler).stats
    seconds, calls = layers.profile_rollup(stats)
    assert sum(calls.values()) == sum(row[1] for row in stats.values())
    assert sum(seconds.values()) == pytest.approx(sum(row[2] for row in stats.values()))
    values = harness.profile_metrics(profiler, outcome.ops)
    shares = [values[f"host_self_share.{layer}"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert values["host_self_share.fusefs.cache"] > 0.05
    assert values["host_self_share.traffic"] == 0


def test_repeats_agree_bit_for_bit():
    workload = small("rand_read_miss", ops=300)
    first = harness.exact_metrics(workload, *one_repeat(workload))
    second = harness.exact_metrics(workload, *one_repeat(workload))
    assert first == second
    assert all(first[m.name] != 0 for m in END_TO_END if m.name in first)


# ----------------------------------------------------------------------
# The output check bites
# ----------------------------------------------------------------------
@pytest.fixture
def wrong_byte(monkeypatch):
    """The program returns one wrong byte on every 64th read."""
    real = NVMVariable.read
    count = 0

    def read(self, offset, length):
        nonlocal count
        count += 1
        data = yield from real(self, offset, length)
        if count % 64 == 0:
            data[0] ^= 0xFF
        return data

    monkeypatch.setattr(NVMVariable, "read", read)


@pytest.fixture
def typed_error(monkeypatch):
    """Every 64th write of at most a page raises a typed store error
    (the fill's chunk-sized writes are let through)."""
    real = NVMVariable.write
    count = 0

    def write(self, offset, data):
        nonlocal count
        count += len(data) <= workloads.PAGE
        if len(data) <= workloads.PAGE and count % 64 == 0:
            raise StoreError("injected")
        return real(self, offset, data)

    monkeypatch.setattr(NVMVariable, "write", write)


def test_a_wrong_byte_counts_as_a_failed_op(wrong_byte):
    workload = small("hot_fit", ops=2000)
    probe, outcome = one_repeat(workload)
    assert outcome.failed > 0
    values = harness.exact_metrics(workload, probe, outcome)
    assert values["bench.fail_share"] > 0 and values["slo_attain"] < 1


def test_a_typed_error_counts_as_a_failed_op(typed_error):
    _, outcome = one_repeat(small("rand_write_miss", ops=300))
    assert outcome.failed > 0


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    assert run.main(["--workload", "hot_fit", "--seconds", "0"]) == 0
    result = last_line(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_exits_non_zero_on_a_wrong_byte(monkeypatch, capsys, wrong_byte):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    assert run.main(["--workload", "hot_fit", "--seconds", "0"]) != 0
    result = last_line(capsys)
    assert result["correct"] is False and result["failed"] > 0


def test_run_exits_non_zero_when_the_load_changed(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setitem(pins.LOAD, "hot_fit", "0" * 64)
    assert run.main(["--workload", "hot_fit", "--seconds", "0"]) != 0
    assert "load changed" in capsys.readouterr().out


def test_no_result_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(layers.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        layers.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )  # fmt: skip
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hot_fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
