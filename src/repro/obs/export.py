"""Exporters for recorded span trees.

- :func:`chrome_trace` — Chrome ``trace_event`` JSON array (open in
  ``chrome://tracing`` or https://ui.perfetto.dev); virtual seconds map
  to trace microseconds, each exported tracer becomes one "process" and
  each layer one "thread".
- :func:`latency_summary` — per-(layer, op) virtual-latency percentiles.
- :func:`percentile` — the nearest-rank percentile every latency fold uses.
"""

from __future__ import annotations

import json

from repro.obs.tracer import Span, Tracer


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


def latency_summary(
    spans: list[Span],
) -> dict[tuple[str, str], dict[str, float]]:
    """Per-(layer, name) count/p50/p95/p99/max of span durations."""
    buckets: dict[tuple[str, str], list[float]] = {}
    for span in spans:
        buckets.setdefault((span.layer, span.name), []).append(span.duration)
    summary: dict[tuple[str, str], dict[str, float]] = {}
    for key in sorted(buckets):
        durations = sorted(buckets[key])
        summary[key] = {
            "count": float(len(durations)),
            "p50": percentile(durations, 0.50),
            "p95": percentile(durations, 0.95),
            "p99": percentile(durations, 0.99),
            "max": durations[-1],
            "total": sum(durations),
        }
    return summary


def latency_lines(spans: list[Span]) -> list[str]:
    """The ten ops of most total latency, as aligned lines (microseconds)."""
    summary = latency_summary(spans)
    rows = sorted(
        summary.items(), key=lambda kv: (-kv[1]["total"], kv[0])
    )[:10]
    lines = [
        f"  {'layer.op':<28s} {'count':>8s} {'p50us':>10s} "
        f"{'p95us':>10s} {'p99us':>10s}"
    ]
    for (layer, name), stats in rows:
        lines.append(
            f"  {layer + '.' + name:<28s} {int(stats['count']):>8d} "
            f"{stats['p50'] * 1e6:>10.2f} {stats['p95'] * 1e6:>10.2f} "
            f"{stats['p99'] * 1e6:>10.2f}"
        )
    return lines


def chrome_trace(
    tracers: list[tuple[str, Tracer]]
) -> list[dict[str, object]]:
    """Chrome ``trace_event`` complete-events for the given tracers.

    ``tracers`` is ``[(label, tracer), ...]``; each pair gets its own
    pid (named ``label`` via metadata events) and one tid per layer.
    Timestamps are virtual seconds scaled to microseconds.
    """
    events: list[dict[str, object]] = []
    for pid, (label, tracer) in enumerate(tracers, start=1):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": label},
            }
        )
        layers = sorted({span.layer for span in tracer.spans})
        tids = {layer: tid for tid, layer in enumerate(layers, start=1)}
        for layer, tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": layer},
                }
            )
        for span in tracer.spans:
            args: dict[str, object] = {
                "trace": span.trace_id,
                "span": span.span_id,
            }
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            if span.args:
                args.update(span.args)
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tids[span.layer],
                    "name": f"{span.layer}.{span.name}",
                    "cat": span.layer,
                    "ts": span.start * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "args": args,
                }
            )
    return events


def write_chrome_trace(path: str, tracers: list[tuple[str, Tracer]]) -> int:
    """Write :func:`chrome_trace` JSON to ``path``; returns event count."""
    events = chrome_trace(tracers)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(events, handle, separators=(",", ":"), default=str)
        handle.write("\n")
    return len(events)
