#!/usr/bin/env python3
"""Run ``repro.experiments`` on the reference kernel: no event removed.

    python tools/reference_kernel.py --scale tiny --jobs 4 --json ref.json
    python tools/check_digests.py ref.json benchmarks/EXPERIMENT_digests_tiny.json

The kernel removes three kinds of event no process can observe
(INTERNALS, "Events nobody can observe"): ``Resource.acquire_now`` grants
inline, ``Event.conclude`` finishes an unawaited marker in place and
``Engine.advance`` sleeps in place.  Each is a shortcut beside a fallback
that *is* the definition, so patching all three to decline — every grant,
completion and sleep rides the queues — must change nothing but
``Engine.events_processed``.  Running the digest matrix that way turns
"no digest folds ``events_processed``" from an argument into a gate: a
shortcut, present or future, that is observable in any experiment fails
that experiment's pin here while passing it under the shipped kernel.

The patch is applied from outside, before any testbed exists, and the
orchestrator's forked workers inherit it; ``src/`` has no switch.  The
arguments are ``repro.experiments``' own; ``--no-cache`` is added when
missing, because the result cache is keyed by the source alone and would
replay the shipped kernel's reports.

:func:`reference_kernel` is also what the differential tests run their
reference side under (``tests/test_bulk_runs_fuzz.py``,
``tests/test_sim_kernel_property.py``).
"""

import sys
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def reference_kernel():
    """Nothing granted inline, concluded in place or slept in place."""
    from repro.sim import Engine, Event, Resource

    saved = Resource.acquire_now, Event.conclude, Engine.advance
    Resource.acquire_now = lambda self: None
    Event.conclude = lambda self, value=None: self.succeed(value)
    Engine.advance = lambda self, delay: False
    try:
        yield
    finally:
        Resource.acquire_now, Event.conclude, Engine.advance = saved


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.__main__ import main

    argv = sys.argv[1:]
    if "--no-cache" not in argv:
        argv.append("--no-cache")
    with reference_kernel():
        sys.exit(main(argv))
