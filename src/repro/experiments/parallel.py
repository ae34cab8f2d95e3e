"""Parallel experiment orchestrator.

Every experiment driver builds *fresh* testbeds and shares no state with
any other run (see ``runner.py``), so the full table/figure matrix is
embarrassingly parallel: this module fans it across worker processes with
a :class:`~concurrent.futures.ProcessPoolExecutor`, and every run computes
its report.

Safety is checked, not assumed: :func:`check_identity` runs the same
experiments serially and in parallel and asserts the rendered reports and
byte-flow counter digests are bit-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro import obs
from repro.experiments.cache_tiering import cache_tiering
from repro.experiments.configs import ExperimentScale
from repro.experiments.cost import cost_analysis
from repro.experiments.explicit import explicit_vs_swap
from repro.experiments.faults import faults
from repro.experiments.figures import fig2, fig3, fig4, fig5, fig6
from repro.experiments.lifecycle import ckpt_lifecycle
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed, track_testbeds
from repro.experiments.slo_traffic import slo_traffic
from repro.experiments.tables import (
    checkpoint_experiment,
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
)

class Experiment(NamedTuple):
    """One registry entry: what is said once about an experiment."""

    driver: Callable[..., ExperimentReport]
    description: str
    #: False: the driver takes no scale (Table I is a catalog identity).
    scaled: bool = True
    #: The pytest marker of its slow suite and CI determinism job, if any.
    marker: str | None = None


#: The one list of experiments: the CLI, the orchestrator, the package's
#: re-exports and the census roots read it; the digest pins must match it.
EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(table1, "Device characteristics", scaled=False),
    "fig2": Experiment(fig2, "STREAM TRIAD bandwidth by placement"),
    "table3": Experiment(table3, "STREAM with vs without NVMalloc"),
    "fig3": Experiment(fig3, "MM runtime breakdown across configurations"),
    "fig4": Experiment(fig4, "Shared vs individual mmap files"),
    "fig5": Experiment(fig5, "Row- vs column-major access"),
    "table4": Experiment(table4, "Bytes exchanged app/FUSE/SSD"),
    "table5": Experiment(table5, "Tile-size sweep"),
    "fig6": Experiment(fig6, "MM beyond DRAM capacity"),
    "table6": Experiment(table6, "Parallel sort"),
    "table7": Experiment(table7, "Dirty-page write optimization"),
    "checkpoint": Experiment(checkpoint_experiment, "Chunk-linked checkpointing"),
    "cost": Experiment(cost_analysis, "Provisioning-cost analysis"),
    "explicit": Experiment(explicit_vs_swap, "Explicit placement vs transparent swap"),
    "faults": Experiment(
        faults, "Crash schedules under replication r in {1,2}", marker="faults"
    ),
    "cache_tiering": Experiment(
        cache_tiering,
        "Client cache hierarchy ablation: lru-vs-arc, tier on/off, prefetch",
        marker="cache",
    ),
    "ckpt_lifecycle": Experiment(
        ckpt_lifecycle,
        "Checkpoint chains, async drain, crash-restart recovery",
        marker="lifecycle",
    ),
    "slo_traffic": Experiment(
        slo_traffic,
        "Open-loop load-latency curve, knee, and SLO under failure",
        marker="slo",
    ),
}

#: Counter prefixes that pin the virtual byte flows of the memory stack.
COUNTER_PREFIXES = ("pagecache.", "fuse.", "store.client.")


@dataclass
class RunOutcome:
    """One experiment's result plus per-run telemetry."""

    name: str
    report: ExperimentReport | None
    digest: str | None
    verified: bool
    wall_seconds: float
    peak_rss_bytes: int
    worker: str
    testbeds: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.verified


@dataclass
class MatrixResult:
    """An orchestrator pass over a list of experiments."""

    outcomes: list[RunOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def digests(self) -> dict[str, str | None]:
        return {o.name: o.digest for o in self.outcomes}

    @property
    def failed(self) -> list[str]:
        return [o.name for o in self.outcomes if not o.ok]


def _peak_rss_bytes() -> int:
    """This process's high-water RSS (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def execute_experiment(
    name: str, scale: ExperimentScale
) -> tuple[ExperimentReport, int]:
    """Run one driver, folding its testbeds' byte-flow counters into the
    report; returns the report and how many testbeds were built."""
    entry = EXPERIMENTS[name]
    with track_testbeds() as tracker:
        report = entry.driver(scale) if entry.scaled else entry.driver()
    counters: dict[str, float] = {}
    for testbed in tracker.testbeds:
        for prefix in COUNTER_PREFIXES:
            for key, value in testbed.cluster.metrics.snapshot(prefix).items():
                counters[key] = counters.get(key, 0.0) + value
    report.counters = counters
    if obs.enabled():
        for i, testbed in enumerate(tracker.testbeds):
            tracer = testbed.engine.tracer
            if tracer is None or not tracer.spans:
                continue
            label = f"{name}/testbed{i}"
            obs.collect(label, tracer)
            if report.trace_lines:
                report.trace_lines.append("")
            report.trace_lines.extend(obs.report_lines(label, tracer))
    return report, len(tracker.testbeds)


def _run_payload(name: str, scale: ExperimentScale) -> dict[str, object]:
    """Worker body: run one experiment, return a picklable outcome dict
    (the report itself pickles: its digest, rendering and trace lines
    come back unchanged).

    Exceptions are folded into the payload (with traceback) rather than
    raised, so one failing experiment never kills the pool or hides the
    results of its siblings.
    """
    start = time.perf_counter()
    payload: dict[str, object] = {"name": name, "testbeds": 0}
    try:
        report, testbeds = execute_experiment(name, scale)
        payload.update(
            report=report, digest=report.digest(), testbeds=testbeds
        )
    except Exception:
        # Broad on purpose: the boundary that keeps the matrix running.
        # Whatever a driver raises is this experiment's failed outcome.
        payload["error"] = traceback.format_exc()
    payload.update(
        wall_seconds=time.perf_counter() - start,
        peak_rss_bytes=_peak_rss_bytes(),
        worker=f"pid-{os.getpid()}",
    )
    return payload


def mp_context():
    """Prefer fork: workers inherit the parent's interpreter state (and
    hash seed), keeping parallel runs bit-identical to serial ones."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class Orchestrator:
    """Fans experiments across worker processes."""

    def __init__(
        self,
        jobs: int = 1,
        on_result: Callable[[RunOutcome], None] | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.on_result = on_result

    def run(self, names: list[str], scale: ExperimentScale) -> MatrixResult:
        """Run ``names`` at ``scale``; outcomes come back in input order."""
        start = time.perf_counter()
        outcomes: dict[str, RunOutcome] = {}
        if self.jobs == 1 or len(names) <= 1:
            for name in names:
                self._finish(outcomes, _run_payload(name, scale))
        else:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(names)), mp_context=mp_context()
            ) as pool:
                futures = {
                    pool.submit(_run_payload, name, scale): name for name in names
                }
                for future in as_completed(futures):
                    name = futures[future]
                    try:
                        payload = future.result()
                    except BrokenExecutor as exc:
                        # The worker died outright (killed, out of memory);
                        # ``_run_payload`` folds whatever a driver raises.
                        payload = {
                            "name": name,
                            "error": f"worker crashed: {exc!r}",
                            "wall_seconds": 0.0,
                            "peak_rss_bytes": 0,
                            "worker": "unknown",
                            "testbeds": 0,
                        }
                    self._finish(outcomes, payload)

        return MatrixResult(
            outcomes=[outcomes[name] for name in names],
            wall_seconds=time.perf_counter() - start,
        )

    def _finish(
        self, outcomes: dict[str, RunOutcome], payload: dict[str, object]
    ) -> None:
        name = payload["name"]
        report = payload.get("report")
        outcome = RunOutcome(
            name=name,
            report=report,
            digest=payload.get("digest"),
            verified=report is not None and report.verified,
            wall_seconds=payload["wall_seconds"],
            peak_rss_bytes=payload["peak_rss_bytes"],
            worker=payload["worker"] if report is None or self.jobs > 1 else "serial",
            testbeds=payload["testbeds"],
            error=payload.get("error"),
        )
        outcomes[name] = outcome
        if self.on_result:
            self.on_result(outcome)


def check_identity(
    names: list[str], scale: ExperimentScale, jobs: int
) -> tuple[bool, dict[str, tuple[str | None, str | None]]]:
    """Prove fan-out safety: serial and parallel digests must coincide.

    Runs ``names`` twice — once in-process, once across ``jobs``
    workers — and compares per-experiment digests (which
    cover rendered rows, claims, and byte-flow counters).  Returns
    ``(identical, {name: (serial_digest, parallel_digest)})``.
    """
    serial = Orchestrator(jobs=1).run(names, scale)
    parallel = Orchestrator(jobs=jobs).run(names, scale)
    pairs = {
        name: (serial.digests.get(name), parallel.digests.get(name))
        for name in names
    }
    identical = all(
        s is not None and s == p for s, p in pairs.values()
    )
    return identical, pairs


__all__ = [
    "COUNTER_PREFIXES",
    "EXPERIMENTS",
    "Experiment",
    "MatrixResult",
    "Orchestrator",
    "RunOutcome",
    "Testbed",
    "check_identity",
    "execute_experiment",
]
