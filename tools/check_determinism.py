#!/usr/bin/env python3
"""Check that one experiment digests reproducibly and matches its pin.

Usage::

    python tools/check_determinism.py slo_traffic

Runs the named driver at TINY in two fresh interpreters with
``PYTHONHASHSEED=1`` and ``2`` — everything in a run is seeded and timed
off the virtual clock, so any hidden wall-clock or set-iteration
dependence shows as two different digests.  Exits non-zero unless both
runs verify their claims, digest identically, and equal the pin in
``benchmarks/EXPERIMENT_digests_tiny.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "benchmarks" / "EXPERIMENT_digests_tiny.json"

CHILD = """
import sys
from repro.experiments.configs import TINY
from repro.experiments.parallel import execute_experiment
report, _ = execute_experiment(sys.argv[1], TINY)
assert report.verified, report.render()
print(report.digest())
"""


def main(argv: list[str] | None = None) -> int:
    pins: dict[str, str] = json.loads(PINS.read_text())["digests"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("experiment", choices=sorted(pins))
    name = parser.parse_args(argv).experiment

    digests = []
    for hashseed in ("1", "2"):
        child = subprocess.run(
            [sys.executable, "-c", CHILD, name], capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(ROOT / "src")),
        )
        if child.returncode:
            print(f"FAIL: {name} (PYTHONHASHSEED={hashseed})\n{child.stderr}",
                  file=sys.stderr)
            return 1
        digests.append(child.stdout.strip())
    if digests != [pins[name]] * 2:
        print(f"FAIL: {name} digests {digests} != pinned {pins[name]}",
              file=sys.stderr)
        return 1
    print(f"OK: {name} {pins[name]} (two hash seeds, equals the pin)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
