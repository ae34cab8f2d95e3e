"""Critical-path analysis over a recorded span tree.

Answers "where did the virtual time go" for one completed root span
(an ``app`` STREAM run, a checkpoint loop, ...): walks the tree backward
from the root's end, always descending into the latest-finishing child,
and attributes every instant of the root's interval to exactly one
layer — the deepest span that was covering it on that chain.  The
resulting per-layer totals *partition* the root interval, so they sum to
the run's virtual makespan by construction.

With concurrent children (ranks forked from one root span), the
latest-finisher rule selects the dependency chain that actually bounded
completion: whatever work was still running when the parent finished,
recursively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import Span


@dataclass
class CriticalPath:
    """Per-layer attribution of one root span's interval."""

    root: Span
    #: layer -> virtual seconds of the root interval attributed to it.
    layer_seconds: dict[str, float] = field(default_factory=dict)
    #: The longest dependency chain, root first.
    chain: list[Span] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """The root span's duration (what the layer shares sum to)."""
        return self.root.duration

    def shares(self) -> list[tuple[str, float, float]]:
        """``(layer, seconds, fraction)`` rows, largest share first."""
        total = self.makespan
        rows = sorted(
            self.layer_seconds.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            (layer, seconds, seconds / total if total else 0.0)
            for layer, seconds in rows
        ]

    def table_lines(self) -> list[str]:
        """A plain-text "where the time went" table (the twelve largest
        layers, the rest summed)."""
        lines = [
            f"critical path of {self.root.layer}.{self.root.name} "
            f"(trace {self.root.trace_id}): makespan {self.makespan:.6f}s "
            f"across {len(self.chain)} chained spans"
        ]
        rows = self.shares()
        for layer, seconds, share in rows[:12]:
            lines.append(f"  {layer:<16s} {seconds:12.6f}s  {100 * share:5.1f}%")
        hidden = rows[12:]
        if hidden:
            rest = sum(seconds for _, seconds, _ in hidden)
            lines.append(
                f"  ({len(hidden)} more layers) {rest:12.6f}s  "
                f"{100 * rest / self.makespan if self.makespan else 0.0:5.1f}%"
            )
        lines.append(
            f"  {'total':<16s} {sum(self.layer_seconds.values()):12.6f}s  100.0%"
        )
        return lines


def _children_index(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children


def critical_path(spans: list[Span], root: Span | None = None) -> CriticalPath:
    """Analyze the critical path under ``root``.

    ``root`` defaults to the longest parentless span.  Raises
    ``ValueError`` when there is nothing to analyze.
    """
    if root is None:
        candidates = [s for s in spans if s.parent_id is None]
        if not candidates:
            raise ValueError("no root span to analyze")
        root = max(candidates, key=lambda s: (s.duration, -s.span_id))
    children = _children_index(spans)
    result = CriticalPath(root=root)
    layer_seconds = result.layer_seconds

    def attribute(span: Span, lo: float, hi: float) -> None:
        """Attribute ``[lo, hi]`` of ``span``'s interval to layers.

        Walk the span's children latest-end first: the gap between a
        child's end and the running cursor belongs to the span itself,
        the child's own window recurses, and overlapping earlier
        siblings are skipped (they were not the binding dependency).
        """
        cursor = hi
        for child in sorted(
            children.get(span.span_id, ()),
            key=lambda c: (c.end, c.span_id),
            reverse=True,
        ):
            if child.end > cursor:
                continue
            if child.end <= lo:
                break
            if cursor > child.end:
                layer_seconds[span.layer] = (
                    layer_seconds.get(span.layer, 0.0) + (cursor - child.end)
                )
            attribute(child, max(lo, child.start), child.end)
            cursor = max(lo, child.start)
            if cursor <= lo:
                break
        if cursor > lo:
            layer_seconds[span.layer] = (
                layer_seconds.get(span.layer, 0.0) + (cursor - lo)
            )

    attribute(root, root.start, root.end)

    # The chain itself: descend through latest-finishing children.
    chain = [root]
    node, cursor = root, root.end
    while True:
        kids = [
            c
            for c in children.get(node.span_id, ())
            if c.end <= cursor and c.end > node.start
        ]
        if not kids:
            break
        node = max(kids, key=lambda c: (c.end, c.span_id))
        cursor = node.end
        chain.append(node)
    result.chain = chain
    return result
