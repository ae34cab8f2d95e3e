#!/usr/bin/env python3
"""Run ``repro.experiments`` on the reference kernel: no event removed.

    python tools/reference_kernel.py --scale tiny --jobs 4 --json ref.json
    python tools/check_digests.py ref.json benchmarks/EXPERIMENT_digests_tiny.json

The kernel removes two kinds of event no process can observe
(INTERNALS, "Events nobody can observe"): ``Resource.acquire_now`` grants
inline and ``Engine.advance`` sleeps in place.  Each is a shortcut beside
a fallback that *is* the definition, so patching both to decline — every
grant and sleep rides the queues — must change nothing but
``Engine.events_processed``.  (The third kind, a completion marker nobody
waits for, is no event at all: the model builds a marker's ``Event`` only
for a waiter, so there is no shortcut to patch.)  Running the digest
matrix that way turns "no digest folds ``events_processed``" from an
argument into a gate: a shortcut, present or future, that is observable
in any experiment fails that experiment's pin here while passing it
under the shipped kernel.

The patch is applied from outside, before any testbed exists, and the
orchestrator's forked workers inherit it; ``src/`` has no switch.  The
arguments are ``repro.experiments``' own.

:func:`reference_kernel` is also what the differential tests run their
reference side under (``tests/test_bulk_runs_fuzz.py``,
``tests/test_sim_kernel_property.py``).
"""

import sys
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def reference_kernel():
    """Nothing granted inline or slept in place."""
    from repro.sim import Engine, Resource

    saved = Resource.acquire_now, Engine.advance
    Resource.acquire_now = lambda self: None
    Engine.advance = lambda self, delay: False
    try:
        yield
    finally:
        Resource.acquire_now, Engine.advance = saved


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.__main__ import main

    with reference_kernel():
        sys.exit(main(sys.argv[1:]))
