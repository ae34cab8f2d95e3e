"""Structured experiment results with paper-style rendering."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.util.tables import render_table

#: Bump when the digest payload layout changes (invalidates result caches).
REPORT_SCHEMA = 1

#: Below this many issued prefetches, "accuracy" is a coin flip, not a
#: rate: a single dead readahead prints as a hard 0% (and one lucky hit
#: as 100%) from a 1-sample population, polluting comparisons between
#: configurations.  Reports suppress the accuracy figure until at least
#: this many prefetches were issued; issued/hit counts are still shown.
MIN_PREFETCH_SAMPLES = 8

#: Same guard for rate-style cells (requests/s, SLO attainment): a TINY
#: leg that issued a handful of requests would otherwise print a rate
#: extrapolated from near-zero virtual seconds or an attainment that is
#: 0%/100% by coin flip.  Below this many samples the cells render the
#: raw counts instead of a rate.
MIN_RATE_SAMPLES = 8


def rate_cell(count: float, seconds: float, *, samples: int | None = None) -> str:
    """A requests/s table cell with zero-sample and low-sample guards.

    ``samples`` defaults to ``count``; when it is below
    :data:`MIN_RATE_SAMPLES` (or the window is empty) the cell shows the
    raw count so tiny legs never print extrapolated-rate noise.
    """
    n = int(count if samples is None else samples)
    if n < MIN_RATE_SAMPLES or seconds <= 0:
        return f"n={int(count)}"
    return f"{count / seconds:.1f}"


def attainment_cell(within: int, issued: int) -> str:
    """An SLO-attainment (%) table cell with the same low-sample guard."""
    if issued <= 0:
        return "-"
    if issued < MIN_RATE_SAMPLES:
        return f"{within}/{issued}"
    return f"{100.0 * within / issued:.1f}"


@dataclass
class ExperimentReport:
    """One table/figure reproduction: rows plus provenance notes."""

    experiment: str  # e.g. "Figure 3"
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    paper_claims: list[str] = field(default_factory=list)
    measured_claims: list[str] = field(default_factory=list)
    cache_lines: list[str] = field(default_factory=list)
    verified: bool = True
    #: Aggregate byte-flow counters of every testbed the driver built,
    #: filled in by the orchestrator (`repro.experiments.parallel`).
    counters: dict[str, float] = field(default_factory=dict)
    #: "Where the time went": critical-path + latency tables harvested
    #: from tracers when the run executed with --trace.  Excluded from
    #: :meth:`digest` so tracing can never change a result's identity.
    trace_lines: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one table row."""
        self.rows.append(list(cells))

    def claim(self, paper: str, measured: str) -> None:
        """Record one paper-vs-measured comparison line."""
        self.paper_claims.append(paper)
        self.measured_claims.append(measured)

    def add_cache_stats(self, label: str, chunk=None, page=None) -> None:
        """Record one run's cache behaviour (hit rates, byte flows).

        ``chunk`` is a :class:`repro.fusefs.cache.CacheStats`, ``page`` a
        :class:`repro.mem.pagecache.PageCacheStats`; either may be None.
        """
        if chunk is not None and (chunk.hits or chunk.misses or chunk.l2_hits):
            # Demand-traffic accounting: identical text to the seed when
            # the tiered-hierarchy stats are zero (default configuration).
            demand_hits = chunk.hits + chunk.l2_hits
            line = (
                f"{label}: chunk cache {100 * chunk.hit_rate:.1f}% hits "
                f"({demand_hits}/{demand_hits + chunk.misses}), "
                f"fetched {chunk.fetched_bytes / 2**20:.1f} MiB"
            )
            if chunk.prefetched_bytes:
                line += (
                    f" ({chunk.prefetched_bytes / 2**20:.1f} MiB read-ahead)"
                )
            if chunk.l2_hits or chunk.l2_spill_bytes:
                line += (
                    f", local tier {100 * chunk.l2_hit_rate:.1f}% of DRAM "
                    f"misses ({chunk.l2_hits} hits, "
                    f"{chunk.l2_promote_bytes / 2**20:.1f} MiB promoted)"
                )
            if chunk.prefetches >= MIN_PREFETCH_SAMPLES:
                line += (
                    f", prefetch accuracy {100 * chunk.prefetch_accuracy:.1f}%"
                    f" ({chunk.prefetch_hits}/{chunk.prefetches})"
                )
            elif chunk.prefetches:
                line += (
                    f", prefetches {chunk.prefetch_hits}/{chunk.prefetches} "
                    f"(too few for an accuracy figure)"
                )
            line += f", wrote back {chunk.writeback_bytes / 2**20:.1f} MiB"
            self.cache_lines.append(line)
        if page is not None and (page.hits or page.misses):
            self.cache_lines.append(
                f"{label}: page cache {100 * page.hit_rate:.1f}% hits "
                f"({page.hits}/{page.hits + page.misses}), faulted "
                f"{page.faulted_bytes / 2**20:.1f} MiB, wrote back "
                f"{page.writeback_bytes / 2**20:.1f} MiB"
            )

    def to_payload(self) -> dict[str, object]:
        """A JSON-safe dict that round-trips through :meth:`from_payload`.

        The payload is the canonical form: :meth:`digest` hashes it, and the
        result cache persists it, so a cached report re-renders and re-digests
        bit-identically to the run that produced it.
        """
        return {
            "schema": REPORT_SCHEMA,
            "experiment": self.experiment,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "paper_claims": list(self.paper_claims),
            "measured_claims": list(self.measured_claims),
            "cache_lines": list(self.cache_lines),
            "verified": self.verified,
            "counters": dict(self.counters),
            "trace_lines": list(self.trace_lines),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_payload` output."""
        if payload.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"unsupported report schema {payload.get('schema')!r}"
            )
        return cls(
            experiment=payload["experiment"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            paper_claims=list(payload["paper_claims"]),
            measured_claims=list(payload["measured_claims"]),
            cache_lines=list(payload["cache_lines"]),
            verified=bool(payload["verified"]),
            counters=dict(payload["counters"]),
            trace_lines=list(payload.get("trace_lines", [])),
        )

    def digest(self) -> str:
        """Stable sha256 over rendered rows, claims, and byte-flow counters.

        Two runs of the same experiment are *the same result* iff their
        digests match; the result cache, the parallel-vs-serial identity
        check, and the pins ``tools/check_digests.py`` reads all compare
        this value.  JSON canonicalization (sorted keys, no whitespace)
        makes the hash independent of dict ordering, and Python's
        float-repr round-trip guarantee keeps it exact across a
        serialize/deserialize cycle.
        """
        payload = self.to_payload()
        # Trace output is presentation, not result: a traced and an
        # untraced run of the same experiment must share one digest.
        payload.pop("trace_lines", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def render(self) -> str:
        """The report as an aligned monospace table plus claim lines."""
        lines = [
            render_table(
                self.headers, self.rows,
                title=f"{self.experiment}: {self.title} [{'OK' if self.verified else 'UNVERIFIED'}]",
            )
        ]
        if self.cache_lines:
            lines.append("")
            lines.append("cache behaviour:")
            for cache_line in self.cache_lines:
                lines.append(f"  {cache_line}")
        if self.paper_claims:
            lines.append("")
            lines.append("paper vs measured:")
            for paper, measured in zip(self.paper_claims, self.measured_claims):
                lines.append(f"  paper:    {paper}")
                lines.append(f"  measured: {measured}")
        if self.trace_lines:
            lines.append("")
            lines.append("where the time went:")
            for trace_line in self.trace_lines:
                lines.append(f"  {trace_line}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
