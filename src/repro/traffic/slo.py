"""Per-request virtual-latency accounting and SLO verdicts.

A :class:`RequestRecord` is written by the client swarm for every
request it issues: the *scheduled* arrival time (the open-loop clock,
not the moment service began), the completion time, and the outcome.
Latency is ``completion - arrival``, so every second a request spent
queueing behind earlier work is part of its latency — the quantity a
latency SLO is written against, and exactly what closed-loop harnesses
cannot see.

:func:`summarize` folds a record list into the tail percentiles
(p50/p95/p99/p99.9, nearest-rank on the sorted sample) plus
goodput-vs-SLO: attainment is the fraction of *all issued* requests that
completed successfully within the target (errors count against it),
goodput the rate of such requests over the observation window.
:func:`window_summary` restricts the fold to arrivals inside a virtual
time window — "p99 during the crash" attribution for fault legs.

For *where* the tail time goes, runs executed with tracing on reuse the
obs machinery unchanged: the per-(layer, op) percentile tables and the
critical-path analyzer already attribute virtual time across the
mmap → page-cache → chunk-cache → store stack (see
:func:`repro.obs.report_lines`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traffic.arrivals import OP_CKPT, OP_READ, OP_WRITE

#: Human-readable operation names, indexed by schedule op code.
OP_NAMES = {OP_READ: "read", OP_WRITE: "write", OP_CKPT: "ckpt-restore"}


@dataclass(frozen=True)
class RequestRecord:
    """One issued request's life: schedule, outcome, virtual latency."""

    client: int
    op: int
    arrival: float  # scheduled (open-loop) arrival, virtual seconds
    completion: float  # virtual time the request finished (ok or not)
    ok: bool
    error: str | None = None  # exception class name of a clean failure

    @property
    def latency(self) -> float:
        """Virtual seconds from scheduled arrival to completion,
        queueing delay included."""
        return self.completion - self.arrival


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


@dataclass(frozen=True)
class SloSummary:
    """The latency/goodput fold of one leg (or one window of a leg)."""

    count: int  # requests issued
    ok: int  # requests that completed successfully
    errors: int  # clean failures (typed store errors)
    duration: float  # observation window, virtual seconds
    p50: float
    p95: float
    p99: float
    p999: float
    max_latency: float
    slo_target: float  # the latency target, virtual seconds
    within_slo: int  # successful AND within target

    @property
    def attainment(self) -> float:
        """Fraction of issued requests served successfully within the SLO."""
        return self.within_slo / self.count if self.count else 0.0

    @property
    def goodput(self) -> float:
        """SLO-compliant completions per virtual second."""
        return self.within_slo / self.duration if self.duration > 0 else 0.0


def summarize(
    records: list[RequestRecord], *, slo_target: float, duration: float | None = None
) -> SloSummary:
    """Fold records into tail percentiles and SLO attainment.

    ``duration`` defaults to the span from first arrival to last
    completion; legs that know their true observation window (e.g. the
    full run including drain) should pass it explicitly so goodput is
    not inflated by an idle tail.
    """
    if not records:
        return SloSummary(
            count=0, ok=0, errors=0, duration=duration or 0.0,
            p50=0.0, p95=0.0, p99=0.0, p999=0.0, max_latency=0.0,
            slo_target=slo_target, within_slo=0,
        )
    latencies = sorted(r.latency for r in records)
    ok = sum(1 for r in records if r.ok)
    within = sum(1 for r in records if r.ok and r.latency <= slo_target)
    if duration is None:
        start = min(r.arrival for r in records)
        stop = max(r.completion for r in records)
        duration = stop - start
    return SloSummary(
        count=len(records),
        ok=ok,
        errors=len(records) - ok,
        duration=duration,
        p50=percentile(latencies, 0.50),
        p95=percentile(latencies, 0.95),
        p99=percentile(latencies, 0.99),
        p999=percentile(latencies, 0.999),
        max_latency=latencies[-1],
        slo_target=slo_target,
        within_slo=within,
    )


def window_summary(
    records: list[RequestRecord],
    start: float,
    stop: float,
    *,
    slo_target: float,
) -> SloSummary:
    """:func:`summarize` restricted to requests *arriving* in
    ``[start, stop)`` — tail latency during a fault window, with the
    window itself as the observation duration."""
    inside = [r for r in records if start <= r.arrival < stop]
    return summarize(inside, slo_target=slo_target, duration=stop - start)


__all__ = [
    "OP_NAMES",
    "RequestRecord",
    "SloSummary",
    "percentile",
    "summarize",
    "window_summary",
]
