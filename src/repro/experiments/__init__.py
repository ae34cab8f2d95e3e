"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver builds a fresh simulated testbed at a chosen
:class:`~repro.experiments.configs.ExperimentScale`, runs the paper's
workload grid, and returns an :class:`~repro.experiments.report.ExperimentReport`
whose rows mirror the paper's table/figure (``report.render()`` prints it).

The drivers are re-exported here under their function names (``fig2``,
``table7``, ``cost_analysis``, ...) straight from the one registry,
:data:`~repro.experiments.parallel.EXPERIMENTS`: adding an entry there is
what exports its driver.
"""

from repro.experiments.configs import SMALL, TINY, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.experiments.parallel import (
    EXPERIMENTS,
    Orchestrator,
    RunOutcome,
    check_identity,
)

_DRIVERS = {entry.driver.__name__: entry.driver for entry in EXPERIMENTS.values()}
globals().update(_DRIVERS)

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "ExperimentScale",
    "Orchestrator",
    "RunOutcome",
    "SMALL",
    "TINY",
    "Testbed",
    "check_identity",
    *sorted(_DRIVERS),
]
