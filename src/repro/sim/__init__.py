"""Discrete-event simulation kernel.

A small simpy-style engine: simulation processes are Python generators that
yield :class:`Event` objects (timeouts, resource requests, other processes,
channel receives) and are resumed when those events trigger.  Virtual time
advances only through scheduled events, so a whole 128-core cluster run
completes in milliseconds of wall-clock time while producing the same
queueing/contention behaviour a real testbed would.
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.resources import Request, Resource
from repro.sim.channel import Channel

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Engine",
    "Event",
    "Process",
    "Request",
    "Resource",
    "Timeout",
]
