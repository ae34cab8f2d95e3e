#!/usr/bin/env python3
"""Compare a matrix telemetry JSON against the committed digest set.

Usage::

    python -m repro.experiments --scale tiny --jobs 4 --json telemetry.json
    python tools/check_digests.py telemetry.json \
        benchmarks/EXPERIMENT_digests_tiny.json

The committed file pins every experiment's report digest at one scale:
a hash of the report's rows, claims and verdict and of the byte-flow
counters its testbeds touched.  CI runs this after a matrix pass; drift
means some experiment now reports a different number, or counts a
different set of things.  Exits non-zero on drift, missing experiments,
or a scale mismatch.

After an intentional behaviour change, ``--update`` merges the
telemetry into the committed file: every experiment the telemetry names
is re-pinned (or added) and printed as ``name: old -> new``, every other
pin stays.  So a digest that must move is re-pinned alone, from a run of
that one experiment::

    python -m repro.experiments cache_tiering --scale tiny --json one.json
    python tools/check_digests.py one.json \
        benchmarks/EXPERIMENT_digests_tiny.json --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def telemetry_digests(telemetry: dict) -> dict[str, str]:
    """``{experiment: digest}`` from a ``--json`` telemetry payload."""
    return {
        outcome["name"]: outcome["digest"]
        for outcome in telemetry["results"]
        if outcome.get("digest")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("telemetry", help="JSON from `repro.experiments --json`")
    parser.add_argument("committed", help="the pinned digest file to compare")
    parser.add_argument(
        "--update", action="store_true",
        help="merge the telemetry's digests into the committed file instead",
    )
    args = parser.parse_args(argv)

    telemetry = json.loads(Path(args.telemetry).read_text())
    current = telemetry_digests(telemetry)
    if telemetry.get("failed"):
        print(f"FAIL: experiments failed: {telemetry['failed']}", file=sys.stderr)
        return 1

    committed = json.loads(Path(args.committed).read_text())
    if committed["scale"] != telemetry["scale"]:
        print(
            f"FAIL: scale mismatch: committed {committed['scale']!r} vs "
            f"run {telemetry['scale']!r}",
            file=sys.stderr,
        )
        return 1

    pinned: dict[str, str] = committed["digests"]
    if args.update:
        for name, digest in sorted(current.items()):
            if pinned.get(name) != digest:
                print(f"{name}: {pinned.get(name)} -> {digest}")
        committed["digests"] = pinned | current
        Path(args.committed).write_text(
            json.dumps(committed, indent=2, sort_keys=True) + "\n"
        )
        print(f"{len(committed['digests'])} digests in {args.committed}")
        return 0

    failures = 0
    for name, digest in sorted(pinned.items()):
        got = current.get(name)
        if got is None:
            print(f"MISSING: {name} not in the telemetry run", file=sys.stderr)
            failures += 1
        elif got != digest:
            print(f"DRIFT in {name}: {digest} -> {got}", file=sys.stderr)
            failures += 1
    for name in sorted(set(current) - set(pinned)):
        print(
            f"NEW: {name} has no pinned digest — regenerate with --update",
            file=sys.stderr,
        )
        failures += 1

    if failures:
        print(f"FAIL: {failures} digest mismatches", file=sys.stderr)
        return 1
    print(f"OK: all {len(pinned)} experiment digests identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
