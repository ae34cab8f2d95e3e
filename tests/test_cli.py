"""Tests for the experiment CLI (`python -m repro.experiments`)."""

import json
import re
import subprocess
import sys
import tomllib
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

    def test_docs_ci_and_markers_name_the_registry(self):
        """What is still written by hand about the experiments agrees with
        the one list: EXPERIMENTS.md's summary table has a row for every
        entry and for nothing else, CI's determinism matrix pairs exactly
        the markers the entries carry with their experiments, and those
        markers (and ``obs``, the tracing gate's) are the declared ones."""
        summary = (ROOT / "EXPERIMENTS.md").read_text()
        summary = summary.split("## Summary")[1].split("\n## ")[0]
        assert set(re.findall(r"^\| [^|]+ \| `(\w+)` \|", summary, re.M)) == set(
            EXPERIMENTS
        )
        marked = {
            (entry.marker, name) for name, entry in EXPERIMENTS.items() if entry.marker
        }
        ci = (ROOT / ".github/workflows/ci.yml").read_text()
        assert set(
            re.findall(r"\{marker: (\w+), experiment: (\w+)\}", ci)
        ) == marked
        pytest_options = tomllib.loads((ROOT / "pyproject.toml").read_text())[
            "tool"
        ]["pytest"]["ini_options"]
        declared = {line.split(":")[0] for line in pytest_options["markers"]}
        assert declared == {marker for marker, _ in marked} | {"obs"}
        # The package exports each driver under its own name.
        import repro.experiments as package

        for entry in EXPERIMENTS.values():
            assert getattr(package, entry.driver.__name__) is entry.driver
            assert entry.driver.__name__ in package.__all__

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
        assert main(["checkpoint", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Checkpointing" in out
        assert "paper vs measured" in out

    def test_table1_runs_without_scale(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        assert "Intel X25-E" in capsys.readouterr().out

    def test_registry_matches_drivers(self):
        # Every registered experiment is callable and described.
        for name, entry in EXPERIMENTS.items():
            assert callable(entry.driver)
            assert entry.description

    def test_per_experiment_wall_and_summary(self, capsys):
        assert main(["table1", "checkpoint", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "[table1:" in out and "s wall" in out
        assert "[checkpoint:" in out
        assert "2 experiments in" in out
        assert "PASS: all experiments verified" in out

    def test_jobs_flag_parallel_run(self, capsys):
        assert main(
            ["table1", "checkpoint", "--scale", "tiny", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "(--jobs 2)" in out
        assert "PASS: all experiments verified" in out

    def test_json_telemetry_output(self, tmp_path):
        out_path = tmp_path / "telemetry.json"
        assert main(
            ["checkpoint", "--scale", "tiny", "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["scale"] == "tiny"
        assert payload["failed"] == []
        (entry,) = payload["results"]
        assert entry["name"] == "checkpoint"
        assert entry["digest"] and entry["verified"]
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_bytes"] > 0

    def test_verify_identity_passes(self, capsys):
        assert main(
            ["table1", "checkpoint", "--scale", "tiny", "--verify-identity"]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out


# ----------------------------------------------------------------------
# tools/bench_pairs.py: the ledger row, and a side that printed nothing
# ----------------------------------------------------------------------
FAKE_RUN = """\
import json, sys
print("fake  seed=7  repeats=1")
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
names.append("bench.machine_slowdown")
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {{n: {{"value": {value}, "unit": "x"}} for n in names}}}}))
"""


# The same, except that under ``--trace 1`` it prints a per-layer record:
# names the host clocks or counts (never equal across sides), the event
# count (may fall), and the model's own (must not move).
FAKE_TRACED_RUN = FAKE_RUN.format(value=1.0).replace("{", "{{").replace("}", "}}").replace(
    "names = ", """\
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    layers = {{"host_self_share.core": {host}, "host_calls.core": {host},
              "host_calls.sim": {events},
              "bench.startup_s": {host}, "sim.host_us_per_event": {host},
              "bench.machine_slowdown": {host},
              "sim.events": {events}, "sim.events_per_op": {events},
              "virt_self_s.core": {virt}, "virt_crit_share.core": 0.25}}
    print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": {{
        n: {{"value": v, "unit": "x"}} for n, v in layers.items()}}}}))
    sys.exit()
names = """)  # fmt: skip


class TestBenchPairs:
    @pytest.fixture
    def tool(self, tmp_path, monkeypatch):
        from tests.conftest import load_tool

        module = load_tool("bench_pairs")
        monkeypatch.setattr(module, "HISTORY", tmp_path / "history.jsonl")
        return module

    @staticmethod
    def tree(tmp_path, name, run_py):
        tree = tmp_path / name
        (tree / "bench").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        (tree / "bench" / "run.py").write_text(run_py)
        return tree

    def test_a_campaign_appends_one_row(self, tool, tmp_path, monkeypatch, capsys):
        parent = self.tree(tmp_path, "parent", FAKE_RUN.format(value=2.0))
        change = self.tree(tmp_path, "change", FAKE_RUN.format(value=1.0))
        argv = ["bench_pairs.py", str(parent), str(change), "--workload", "fake", "--pairs", "2"]
        for _ in range(2):  # append-only: the second campaign adds a second row
            monkeypatch.setattr("sys.argv", argv)
            # Every "virtual" metric differs too (1.0 vs 2.0): exit status 1.
            assert tool.main() == 1
        assert "bench.machine_slowdown (machine speed): parent 2 change 1" in (
            capsys.readouterr().out.splitlines()
        )
        first, second = map(json.loads, tool.HISTORY.read_text().splitlines())
        assert {k: v for k, v in first.items() if k != "utc"} == {
            k: v for k, v in second.items() if k != "utc"
        }
        assert (first["workload"], first["seed"], first["seconds"], first["pairs"]) == (
            "fake", 7, 12.0, 2,
        )  # fmt: skip
        assert (first["parent"], first["change"]) == (str(parent), str(change))
        assert first["host_s"] == {
            "parent_median": 2.0, "change_median": 1.0, "parent_q1": 2.0,
            "parent_q3": 2.0, "won": 2, "lost": 0, "verdict": "better",
        }  # fmt: skip
        assert set(first) >= {"setup_s", "peak_rss_mib", "host", "cpus", "attempted"}
        assert first["host_calls_per_op"] == {"parent": [2.0], "change": [1.0]}
        assert first["count_varied"] == []
        # How fast the machine ran each side: rows of two sessions compare.
        assert first["bench.machine_slowdown"] == {"parent": 2.0, "change": 1.0}
        assert first["failed"] == {"parent": 0, "change": 0}
        assert "virt_makespan_s" in first["virtual"]  # the differing names
        assert "bench.machine_slowdown" not in first["virtual"]  # host-clocked

    def test_the_row_says_which_source_each_side_ran(self, tool, tmp_path, monkeypatch):
        """An exported tree is recorded by a hash of its ``src/`` as well:
        its path means nothing once the scratch directory is emptied."""
        parent = self.tree(tmp_path, "parent", FAKE_RUN.format(value=1.0))
        change = self.tree(tmp_path, "change", FAKE_RUN.format(value=1.0))
        for tree in (parent, change):
            (tree / "src" / "pkg" / "__pycache__").mkdir(parents=True)
            (tree / "src" / "pkg" / "mod.py").write_text("x = 1\n")
        # Not source: the interpreter writes these while the pairs run.
        (change / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
        assert tool.src_hash(parent) == tool.src_hash(change)
        argv = ["bench_pairs.py", str(parent), str(change), "--workload", "fake", "--pairs", "1"]
        monkeypatch.setattr("sys.argv", argv)
        assert tool.main() == 0
        (change / "src" / "pkg" / "mod.py").write_text("x = 2\n")  # one byte
        assert tool.main() == 0
        same, differ = (json.loads(row)["src"] for row in tool.HISTORY.read_text().splitlines())
        assert same["parent"] == same["change"] == differ["parent"] != differ["change"]
        assert re.fullmatch(r"[0-9a-f]{12}", differ["change"])
        (change / "src" / "pkg" / "mod.py").rename(change / "src" / "pkg" / "nod.py")
        assert tool.src_hash(change) != differ["change"]  # paths count too

    def test_both_trees_are_byte_compiled_before_any_run(self, tool, tmp_path, monkeypatch):
        """A side whose first run writes its ``__pycache__`` pays for it in
        ``setup_s``: both trees are compiled before the traced runs."""
        run_py = FAKE_RUN.format(value=1.0).replace(
            "import json, sys",
            "import json, sys\nfrom pathlib import Path\n"
            "assert list(Path('src/pkg/__pycache__').glob('mod.*.pyc'))",
        )
        trees = [self.tree(tmp_path, name, run_py) for name in ("parent", "change")]
        for tree in trees:
            (tree / "src" / "pkg").mkdir(parents=True)
            (tree / "src" / "pkg" / "mod.py").write_text("x = 1\n")
        argv = ["bench_pairs.py", *map(str, trees), "--workload", "fake", "--pairs", "1"]
        monkeypatch.setattr("sys.argv", argv)
        assert tool.main() == 0
        for tree in trees:
            assert list((tree / "bench" / "__pycache__").glob("run.*.pyc"))

    def test_a_traced_run_per_side_gates_what_must_not_move(
        self, tool, tmp_path, monkeypatch, capsys
    ):
        """Before the pairs, one ``--trace 1`` run per side: per-layer
        virtual metrics must be bit-equal; host-clocked names and the
        event count are reported, not compared.  Each layer's host call
        count is printed per side and kept in the row, and a layer whose
        count rose is named there — without failing the run."""
        parent = self.tree(tmp_path, "parent", FAKE_TRACED_RUN.format(host=1, events=9, virt=0.5))
        change = self.tree(tmp_path, "change", "")
        argv = ["bench_pairs.py", str(parent), str(change), "--workload", "fake", "--pairs", "1"]
        monkeypatch.setattr("sys.argv", argv)
        for host, events, virt, status, said in (
            (1, 9, 0.5, 0, ["traced per-layer metrics: bit-equal",
                            "host_calls.sim (a count, may fall): parent 9 change 9",
                            "host_calls.<layer>: none rose"]),
            (3, 4, 0.5, 0, ["sim.events (a count, may fall): parent 9 change 4",
                            "host_calls.core (a count, may fall): parent 1 change 3",
                            "host_calls.sim (a count, may fall): parent 9 change 4",
                            "host_calls.<layer>: ROSE ['core']"]),
            (3, 4, 0.75, 1, ["traced per-layer metrics: DIFFER ['virt_self_s.core']"]),
        ):  # fmt: skip
            (change / "bench" / "run.py").write_text(
                FAKE_TRACED_RUN.format(host=host, events=events, virt=virt)
            )
            assert tool.main() == status
            out = capsys.readouterr().out
            assert all(line in out.splitlines() for line in said), out
        rows = [json.loads(row) for row in tool.HISTORY.read_text().splitlines()]
        assert [row["traced"] for row in rows] == ["bit-equal", "bit-equal", ["virt_self_s.core"]]
        assert all(row["virtual"] == "bit-equal" for row in rows)
        assert [row["calls_rose"] for row in rows] == [[], ["core"], ["core"]]
        assert rows[1]["host_calls"] == {
            "parent": {"core": 1, "sim": 9}, "change": {"core": 3, "sim": 4},
        }  # fmt: skip
        # Read off the traced runs, the only records that carry it.
        assert rows[1]["bench.machine_slowdown"] == {"parent": 1, "change": 3}

    def test_a_side_that_read_two_counts_is_marked(self, tool, tmp_path, monkeypatch, capsys):
        """A side whose runs read more than one ``host_calls_per_op`` is
        named in the row's ``count_varied`` and on its own line."""
        parent = self.tree(tmp_path, "parent", FAKE_RUN.format(value=1.0))
        # The traced run is the first, so the second pair's run is the third.
        change = self.tree(tmp_path, "change", FAKE_RUN.format(value=1.0) + (
            "from pathlib import Path\n"
            "runs = Path('runs')\n"
            "runs.write_text(runs.read_text() + '.' if runs.exists() else '.')\n"
            "if runs.read_text() == '...':\n"
            "    print(json.dumps({'correct': True, 'attempted': 10, 'failed': 0, 'metrics':"
            " {n: {'value': 1.5 if n == 'host_calls_per_op' else 1.0} for n in names}}))\n"
        ))
        argv = ["bench_pairs.py", str(parent), str(change), "--workload", "fake", "--pairs", "2"]
        monkeypatch.setattr("sys.argv", argv)
        assert tool.main() == 0
        (row,) = map(json.loads, tool.HISTORY.read_text().splitlines())
        assert row["host_calls_per_op"] == {"parent": [1.0], "change": [1.0, 1.5]}
        assert row["count_varied"] == ["change"]
        assert "host_calls_per_op: VARIED on change; not an exact count" in (
            capsys.readouterr().out.splitlines()
        )

    def test_history_prints_the_ledger_and_runs_nothing(self, tool, monkeypatch, capsys):
        """``--history`` reads the ledger alone: rows per workload and seed
        in ledger order, ``host_s`` over the machine's slowdown where the
        row recorded one, nothing run and nothing appended."""
        host_s = {"parent_median": 0.5, "change_median": 0.4}
        rows = [
            {"utc": "2026-10-02T10:37:01+00:00", "workload": "w", "seed": 11,
             "host_calls_per_op": {"parent": [20.0], "change": [16.5]}, "host_s": host_s},
            {"utc": "2026-10-16T01:52:49+00:00", "workload": "w", "seed": 11,
             "src": {"parent": "aaa", "change": "bbb"},
             "host_calls_per_op": {"parent": [16.5], "change": [12.25]}, "host_s": host_s,
             "bench.machine_slowdown": {"parent": 0.5, "change": 0.8}},
        ]  # fmt: skip
        ledger = "".join(json.dumps(row) + "\n" for row in rows)
        tool.HISTORY.write_text(ledger)
        for workload, printed in (
            ([], [
                "w seed 11: 2 rows, each parent>change",
                "  2026-10-02  src ?>?  host_calls_per_op 20>16.5  host_s 0.5000>0.4000",
                "  2026-10-16  src aaa>bbb  host_calls_per_op 16.5>12.25  host_s "
                "0.5000>0.4000  host_s/slowdown 1.0000>0.5000",
            ]),
            (["--workload", "other"], []),
        ):  # fmt: skip
            monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--history", *workload])
            assert tool.main() == 0
            assert capsys.readouterr().out.splitlines() == printed
        assert tool.HISTORY.read_text() == ledger

    def test_a_side_that_prints_no_json_is_named(self, tool, tmp_path, monkeypatch):
        parent = self.tree(tmp_path, "parent", FAKE_RUN.format(value=2.0))
        change = self.tree(tmp_path, "change", "import sys\nsys.exit(3)\n")
        monkeypatch.setattr(
            "sys.argv",
            ["bench_pairs.py", str(parent), str(change), "--workload", "fake", "--pairs", "1"],
        )
        with pytest.raises(SystemExit) as exit_info:
            tool.main()
        assert f"{change} exited 3 and printed no JSON record" in str(exit_info.value)
        assert not tool.HISTORY.exists()


def test_reference_kernel_runs_an_experiment_to_its_pin(tmp_path):
    """``tools/reference_kernel.py`` is the experiment CLI with the three
    kernel shortcuts patched out: same arguments, same digest."""
    out = tmp_path / "ref.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reference_kernel.py"),
         "checkpoint", "--scale", "tiny", "--json", str(out)],
        cwd=tmp_path, capture_output=True, text=True,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["digest"] == json.loads(DIGEST_PINS.read_text())["digests"]["checkpoint"]


def test_check_digests_update_merges_a_one_experiment_run(tmp_path, capsys):
    """Re-pinning from a run of one experiment replaces that pin and keeps
    the other seventeen (``--update`` used to rewrite the file from the
    telemetry alone)."""
    from tests.conftest import load_tool

    tool = load_tool("check_digests")
    before = json.loads(DIGEST_PINS.read_text())
    pins = tmp_path / "pins.json"
    pins.write_text(DIGEST_PINS.read_text())
    telemetry = tmp_path / "one.json"
    telemetry.write_text(json.dumps({
        "scale": before["scale"], "failed": [],
        "results": [{"name": "checkpoint", "digest": "f" * 64}],
    }))  # fmt: skip
    assert tool.main([str(telemetry), str(pins), "--update"]) == 0
    after = json.loads(pins.read_text())
    assert len(after["digests"]) == 18
    assert after["digests"] == before["digests"] | {"checkpoint": "f" * 64}
    old = before["digests"]["checkpoint"]
    assert f"checkpoint: {old} -> {'f' * 64}" in capsys.readouterr().out
