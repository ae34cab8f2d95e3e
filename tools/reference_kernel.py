#!/usr/bin/env python3
"""Run ``repro.experiments`` on the reference kernel: no event removed.

    python tools/reference_kernel.py --scale tiny --jobs 4 --json ref.json
    python tools/check_digests.py ref.json benchmarks/EXPERIMENT_digests_tiny.json

The kernel removes two kinds of event no process can observe
(INTERNALS, "Events nobody can observe") through four shortcuts:
``Resource.acquire_now`` grants inline, ``Engine.advance`` sleeps in
place, ``Engine.hold`` does both and releases the slot in one call, and
``Engine._granted``, at a parked hold's grant, continues the holder at
the hold's end in place.  Each is a shortcut beside a fallback that *is*
the definition, so patching them to decline — every grant parks, every
hold's end is an event, every sleep rides the queues — must change
nothing but ``Engine.events_processed``.  ``acquire_now`` and
``advance`` are patched to decline; ``hold`` is replaced by its
definition, :func:`_hold`, which shares no code with the shipped one: a
plain ``resource.request()`` whose grant reads the degrade window and
schedules the end as the woken holder's ``engine.timeout`` would have
(so ``_granted`` never runs).  (A third kind of event, a completion
marker nobody waits for, is no event at all: the model builds a
marker's ``Event`` only for a waiter, so there is no shortcut to
patch.)  Running the digest
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


def _hold(engine, resource, delay):
    """``Engine.hold`` by its definition: request the slot, sleep
    ``delay`` from the grant, and let the holder release.

    The end handed back is the ``resource.request()`` itself, so
    ``Resource.release`` and ``Resource.cancel`` treat it as any
    request.  Its grant wakes nobody: the holder's wake-up is taken off
    the grant's waiters and kept for the end, which the grant schedules
    by ``Engine.schedule`` (the sequence number ``engine.timeout`` would
    take), its ``delay`` charged under the degrade window open then.
    """
    from repro.errors import SimulationError

    if delay < 0:
        raise SimulationError(f"negative timeout delay: {delay}")
    req = resource.request()
    req.delay = delay

    def granted(req):
        # The dispatch loop walks this list: cut it to this callback.
        holders = waiters[1:]
        del waiters[1:]
        req.callbacks = (
            None if not holders else holders[0] if len(holders) == 1 else holders
        )
        if req.resource is None:
            return  # withdrawn (``Resource.cancel``) since its grant
        if resource._degrade_until > engine.now:
            req.delay = delay * resource._degrade_factor
        engine.schedule(req, req.delay)

    waiters = [granted]
    req.callbacks = waiters
    return req


@contextmanager
def reference_kernel():
    """Nothing granted inline or slept in place."""
    from repro.sim import Engine, Resource

    saved = Resource.acquire_now, Engine.advance, Engine.hold
    Resource.acquire_now = lambda self: None
    Engine.advance = lambda self, delay: False
    Engine.hold = _hold
    try:
        yield
    finally:
        Resource.acquire_now, Engine.advance, Engine.hold = saved


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.__main__ import main

    with reference_kernel():
        sys.exit(main(sys.argv[1:]))
