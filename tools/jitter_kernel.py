#!/usr/bin/env python3
"""Run ``repro.experiments`` on a jittered reference kernel.

    python tools/jitter_kernel.py --eps 0.2 --seed 3 ckpt_lifecycle --scale tiny

``--seed`` and ``--eps`` come first; the rest are ``repro.experiments``'
own arguments.  On top of :func:`reference_kernel.reference_kernel`,
where every sleep and every hold's end is an ``Engine.timeout`` or an
``Engine.schedule``, each positive delay given to either is scaled by
``1 + eps * u``, ``u`` uniform in [0, 1).  Every such schedule is one a
slower, noisier machine could take, so a verdict about bytes must hold
on it; a verdict about the paper's shape ("within 2 %") may not.
Open-loop arrival plans (``Engine.schedule_batch``) keep their times.

``u`` comes from one ``random.Random`` re-seeded from ``(seed, name)``
as each experiment starts (the wrapped
``repro.experiments.parallel.execute_experiment``), so a ``--jobs`` run
and a serial run see the same schedules.  As in ``reference_kernel.py``
the patch is applied from outside, before any testbed exists, the
orchestrator's forked workers inherit it, and ``src/`` has no switch.

:func:`jitter_kernel` is also what ``tests/test_lifecycle_experiment.py``
runs its jitter cases under.
"""

import argparse
import importlib.util
import random
import sys
from contextlib import contextmanager
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reference_kernel", Path(__file__).with_name("reference_kernel.py")
)
_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reference)
reference_kernel = _reference.reference_kernel


@contextmanager
def jitter_kernel(seed, eps):
    """The reference kernel, every positive delay scaled by ``1 + eps*u``."""
    from repro.experiments import parallel
    from repro.sim import Engine

    rng = random.Random()
    timeout, schedule = Engine.timeout, Engine.schedule
    execute = parallel.execute_experiment

    def jittered_timeout(self, delay, value=None):
        if delay > 0:
            delay *= 1.0 + eps * rng.random()
        return timeout(self, delay, value)

    def jittered_schedule(self, event, delay=0.0):
        if delay > 0:
            delay *= 1.0 + eps * rng.random()
        schedule(self, event, delay)

    def reseeded(name, scale):
        rng.seed(f"{seed}:{name}")
        return execute(name, scale)

    with reference_kernel():
        Engine.timeout, Engine.schedule = jittered_timeout, jittered_schedule
        parallel.execute_experiment = reseeded
        try:
            yield
        finally:
            Engine.timeout, Engine.schedule = timeout, schedule
            parallel.execute_experiment = execute


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.__main__ import main

    parser = argparse.ArgumentParser(
        description="repro.experiments on a jittered reference kernel; "
        "other arguments pass through",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--eps", type=float, required=True)
    args, rest = parser.parse_known_args()
    with jitter_kernel(args.seed, args.eps):
        sys.exit(main(rest))
