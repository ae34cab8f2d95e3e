"""Tests for the experiment CLI (`python -m repro.experiments`)."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PINS = ROOT / "benchmarks" / "EXPERIMENT_digests_tiny.json"

#: Files that tell a contributor (or CI) which tool to run.
TOOL_REFERRERS = (
    "Makefile",
    ".github/workflows/ci.yml",
    "README.md",
    "CONTRIBUTING.md",
    "docs/INTERNALS.md",
    "pyproject.toml",
    ".claude/skills/verify/SKILL.md",
)


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "table7", "checkpoint", "cost", "explicit"):
            assert name in out

    # The retired experiment's name is spelled in two halves so the
    # repo-wide grep for it stays empty.
    @pytest.mark.parametrize("name", ["fig99", "scale" "out"])
    def test_unknown_experiment_rejected(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name])
        assert exit_info.value.code not in (0, None)
        assert f"unknown experiment(s): {name}" in capsys.readouterr().err

    def test_registry_digest_pins_and_help_name_the_same_experiments(
        self, capsys
    ):
        pinned = set(json.loads(DIGEST_PINS.read_text())["digests"])
        assert set(EXPERIMENTS) == pinned
        assert len(EXPERIMENTS) == 18
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = " ".join(capsys.readouterr().out.split())
        listed = usage.split("default: all of ")[1].split(")")[0]
        assert listed.split(", ") == list(EXPERIMENTS)

    @pytest.mark.parametrize("referrer", TOOL_REFERRERS)
    def test_named_tools_and_pins_exist(self, referrer):
        text = (ROOT / referrer).read_text()
        named = set(
            re.findall(r"\b(?:tools/\w+\.py|benchmarks/\w+\.json)\b", text)
        )
        assert [path for path in sorted(named) if not (ROOT / path).exists()] == []

    def test_every_deselected_marker_is_declared(self, pytestconfig):
        declared = {line.split(":")[0] for line in pytestconfig.getini("markers")}
        addopts = " ".join(pytestconfig.getini("addopts"))
        deselected = set(re.findall(r"not (\w+)", addopts))
        assert deselected and deselected <= declared

    def test_run_one_tiny(self, capsys):
        assert main(["checkpoint", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Checkpointing" in out
        assert "paper vs measured" in out

    def test_table1_runs_without_scale(self, capsys):
        assert main(["table1", "--scale", "tiny", "--no-cache"]) == 0
        assert "Intel X25-E" in capsys.readouterr().out

    def test_registry_matches_drivers(self):
        # Every registered experiment is callable and described.
        for name, (driver, description) in EXPERIMENTS.items():
            assert callable(driver)
            assert description

    def test_per_experiment_wall_and_summary(self, capsys):
        assert main(["table1", "checkpoint", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[table1:" in out and "s wall" in out
        assert "[checkpoint:" in out
        assert "2 experiments in" in out
        assert "PASS: all experiments verified" in out

    def test_jobs_flag_parallel_run(self, capsys):
        assert main(
            ["table1", "checkpoint", "--scale", "tiny", "--jobs", "2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "(--jobs 2)" in out
        assert "PASS: all experiments verified" in out

    def test_cache_hit_on_rerun(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["checkpoint", "--scale", "tiny", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "--scale", "tiny", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert "1 cached" in out
        assert "Checkpointing" in out  # hit still renders the full report

    def test_json_telemetry_output(self, tmp_path):
        out_path = tmp_path / "telemetry.json"
        assert main(
            ["checkpoint", "--scale", "tiny", "--no-cache", "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["scale"] == "tiny"
        assert payload["failed"] == []
        (entry,) = payload["results"]
        assert entry["name"] == "checkpoint"
        assert entry["digest"] and entry["verified"]
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_bytes"] > 0
        assert entry["cache_hit"] is False

    def test_verify_identity_passes(self, capsys):
        assert main(
            ["table1", "checkpoint", "--scale", "tiny", "--verify-identity"]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
