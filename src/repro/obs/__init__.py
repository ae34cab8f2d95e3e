"""Virtual-time distributed tracing for the simulated memory stack.

Enable with the ``REPRO_TRACE=1`` environment variable or the
``--trace`` flag of ``python -m repro.experiments``; every
:class:`~repro.experiments.runner.Testbed` built while tracing is on
attaches a :class:`~repro.obs.tracer.Tracer` to its engine.  Spans read
the virtual clock and never schedule events, so traced runs stay
bit-identical (virtual times, counters, report digests) to untraced
ones — see ``docs/INTERNALS.md``, "Tracing".
"""

from __future__ import annotations

import os
import typing

from repro.obs.critical import CriticalPath, critical_path
from repro.obs.export import (
    chrome_trace,
    latency_lines,
    latency_summary,
    write_chrome_trace,
)
from repro.obs.tracer import Span, Tracer

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

_enabled = os.environ.get("REPRO_TRACE", "") not in ("", "0")

#: Tracers harvested from completed runs, as ``(label, tracer)`` pairs,
#: for end-of-run export (see :func:`collect` / :func:`collected`).
_collected: list[tuple[str, Tracer]] = []


def enabled() -> bool:
    """Whether new testbeds should attach a tracer."""
    return _enabled


def enable(on: bool = True) -> None:
    """Turn tracing on (or off) for subsequently built testbeds."""
    global _enabled
    _enabled = on
    # Propagate to forked workers, which re-import this module's state
    # lazily from the environment.
    os.environ["REPRO_TRACE"] = "1" if on else "0"


def new_tracer_if_enabled(engine: "Engine") -> Tracer | None:
    """A fresh tracer bound to ``engine`` when tracing is on, else None."""
    return Tracer(engine) if _enabled else None


def collect(label: str, tracer: Tracer) -> None:
    """Stash a finished run's tracer for later export."""
    _collected.append((label, tracer))


def collected() -> list[tuple[str, Tracer]]:
    """All tracers collected so far, in collection order."""
    return list(_collected)


def clear_collected() -> None:
    """Drop all collected tracers (tests, repeated CLI runs)."""
    _collected.clear()


def report_lines(label: str, tracer: Tracer) -> list[str]:
    """A compact "where the time went" summary for one run's tracer.

    Critical-path table of the longest root span plus per-op latency
    percentiles — the lines experiments attach to their reports.
    """
    if not tracer.spans:
        return []
    lines = [
        f"{label}: {len(tracer.spans)} spans, "
        f"{tracer._next_trace} traces"
        + (f", {tracer.dropped} dropped" if tracer.dropped else "")
    ]
    try:
        analysis = critical_path(tracer.spans)
    except ValueError:
        analysis = None
    if analysis is not None:
        lines.extend(analysis.table_lines())
    lines.extend(latency_lines(tracer.spans))
    return lines


__all__ = [
    "CriticalPath",
    "Span",
    "Tracer",
    "chrome_trace",
    "clear_collected",
    "collect",
    "collected",
    "critical_path",
    "enable",
    "enabled",
    "latency_lines",
    "latency_summary",
    "new_tracer_if_enabled",
    "report_lines",
    "write_chrome_trace",
]
