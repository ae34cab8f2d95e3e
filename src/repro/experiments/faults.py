"""Fault-injection experiment: crash schedules under replication.

Runs STREAM and the checkpoint workload with a seeded
:class:`~repro.faults.FaultPlan` (one benefactor crash plus a transient
slowdown, timed mid-workload) at replication degrees r ∈ {1, 2}, against
no-fault baselines at the same degree and topology:

- **r=2** must ride through the crash: the workload completes with
  correct application bytes, zero chunks lost, and background
  re-replication restores full redundancy before the run is declared
  done.  The report shows the availability of the data path (fraction of
  chunk operations that needed no retry), the recovery traffic the
  repair cost, and the elapsed-time overhead vs. the no-fault baseline.
- **r=1** (the paper's unreplicated layout) must fail *cleanly* on the
  same schedule: the client surfaces
  :class:`~repro.errors.ChunkUnavailableError` (or ``ssdcheckpoint``
  raises :class:`~repro.errors.CheckpointError` with the lost chunk set)
  — no hang, no partial corruption.

Every fault time is derived from the run's *virtual* clock and a fixed
seed, so the whole report digests bit-identically across repeats and
across the serial/parallel orchestrators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CheckpointError, ChunkUnavailableError
from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed, benefactor_names, start_services
from repro.faults import FaultPlan
from repro.parallel.job import Job
from repro.util.units import MiB
from repro.workloads.checkpoint_wl import (
    CheckpointWorkloadConfig,
    run_checkpoint_workload,
)
from repro.workloads.stream import StreamConfig, run_stream

#: Seed for the crash/slowdown schedules (see docs/INTERNALS.md, "Fault
#: model": all fault randomness is derived from this, never wall clock).
FAULT_SEED = 1234


@dataclass
class _LegResult:
    """One workload run (baseline or faulted) and its store-side health."""

    status: str  # "ok" or the exception class name of a clean failure
    elapsed: float  # virtual seconds of the workload's measured window
    total_virtual: float  # virtual seconds from testbed start to done
    verified: bool  # application bytes correct (content checks passed)
    retries: int
    data_ops: int
    rereplicated: float
    recovery_bytes: float
    degraded: float
    lost: float
    under_replicated: int

    @property
    def availability(self) -> float:
        """Fraction of chunk data operations that needed no retry."""
        if not self.data_ops:
            return 1.0
        return max(0.0, 1.0 - self.retries / self.data_ops)


def _finish_leg(
    testbed: Testbed, job: Job, status: str, elapsed: float, verified: bool
) -> _LegResult:
    """Quiesce repair traffic and snapshot the store-side health."""
    manager = job.manager
    assert manager is not None
    engine = testbed.engine
    if status == "ok":
        quiesce = engine.process(manager.rereplication_quiesce())
        engine.run(quiesce)
    metrics = testbed.cluster.metrics
    return _LegResult(
        status=status,
        elapsed=elapsed,
        total_virtual=engine.now,
        verified=verified,
        retries=metrics.count("store.client.retries"),
        data_ops=(
            metrics.count("store.client.bytes_read")
            + metrics.count("store.client.bytes_written")
        ),
        rereplicated=metrics.value("store.manager.chunks_rereplicated"),
        recovery_bytes=metrics.value("store.manager.rereplication_bytes"),
        degraded=metrics.value("store.manager.chunks_degraded"),
        lost=metrics.value("store.manager.chunks_lost"),
        under_replicated=len(manager.under_replicated()),
    )


def _stream_leg(
    scale: ExperimentScale, replication: int, plan: FaultPlan | None
) -> _LegResult:
    """STREAM TRIAD with all arrays on the NVM store (worst case for the
    store: every element streams through it once per iteration)."""
    testbed = Testbed(scale)
    # Remote benefactors (R-SSD): the store partition is disjoint from
    # the compute nodes, so a benefactor crash never takes a rank's CPU
    # with it — the cleanest reading of "the app survives node loss".
    # r=1 runs a single rank: with no replicas a crash kills the rank,
    # and a surviving sibling would deadlock in the STREAM barriers.
    ranks = 2 if replication > 1 else 1
    job = testbed.job(
        1, ranks, 4, remote_ssd=True, replication=replication
    )
    start_services(job)
    if plan is not None:
        assert job.manager is not None
        testbed.engine.process(plan.inject(job.manager))
    config = StreamConfig(
        elements=scale.stream_elements,
        iterations=scale.stream_iterations,
        placement={"A": "nvm", "B": "nvm", "C": "nvm"},
        block_bytes=scale.stream_block,
    )
    try:
        result = run_stream(job, config)
    except ChunkUnavailableError:
        return _finish_leg(
            testbed, job, "ChunkUnavailableError", testbed.engine.now, False
        )
    return _finish_leg(testbed, job, "ok", result.elapsed, result.verified)


def _checkpoint_leg(
    scale: ExperimentScale, replication: int, plan: FaultPlan | None
) -> _LegResult:
    """The §III-E checkpoint loop: COW-heavy writes plus bit-exact
    restore verification of every historical checkpoint."""
    testbed = Testbed(scale)
    job = testbed.job(1, 1, 4, remote_ssd=True, replication=replication)
    start_services(job)
    if plan is not None:
        assert job.manager is not None
        testbed.engine.process(plan.inject(job.manager))
    config = CheckpointWorkloadConfig(
        variable_bytes=scale.checkpoint_variable,
        dram_state_bytes=scale.checkpoint_dram_state,
        timesteps=4,
    )
    try:
        result = run_checkpoint_workload(job, config)
    except (CheckpointError, ChunkUnavailableError) as error:
        return _finish_leg(
            testbed, job, type(error).__name__, testbed.engine.now, False
        )
    return _finish_leg(
        testbed, job, "ok", result.elapsed, result.restores_verified
    )


def _plan_for(
    baseline: _LegResult, names: list[str], replication: int
) -> FaultPlan:
    """A seeded schedule scaled to the baseline's virtual duration: one
    crash mid-workload, plus (at r>=2) a transient slowdown."""
    total = baseline.total_virtual
    return FaultPlan.seeded(
        FAULT_SEED,
        names,
        crashes=1,
        slowdowns=1 if replication > 1 else 0,
        window=(0.35 * total, 0.65 * total),
        slow_duration=0.1 * total,
        slow_extra=0.0005,
    )


def faults(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Crash schedules under replication: availability, recovery, overhead."""
    report = ExperimentReport(
        experiment="Fault tolerance (§III-E)",
        title="Benefactor crash mid-workload: r=2 rides through, r=1 fails clean",
        headers=[
            "Workload", "r", "Schedule", "Status", "Elapsed (s)",
            "Overhead %", "Avail %", "Re-repl", "Recovery MiB", "Lost",
        ],
    )
    names = benefactor_names(scale, 1)
    legs = {
        "STREAM": _stream_leg,
        "checkpoint": _checkpoint_leg,
    }
    for workload, run_leg in legs.items():
        for replication in (1, 2):
            baseline = run_leg(scale, replication, None)
            report.verified &= baseline.status == "ok" and baseline.verified
            report.add_row(
                workload, replication, "none", "baseline",
                round(baseline.elapsed, 6), "-",
                f"{100 * baseline.availability:.1f}",
                int(baseline.rereplicated),
                round(baseline.recovery_bytes / MiB, 3),
                int(baseline.lost),
            )
            plan = _plan_for(baseline, names, replication)
            faulted = run_leg(scale, replication, plan)
            if replication > 1:
                # Must ride through: correct bytes, nothing lost, full
                # redundancy restored by run end.
                report.verified &= (
                    faulted.status == "ok"
                    and faulted.verified
                    and faulted.lost == 0
                    and faulted.under_replicated == 0
                    and faulted.rereplicated >= faulted.degraded - faulted.lost
                )
                overhead = (
                    100.0 * (faulted.elapsed - baseline.elapsed)
                    / baseline.elapsed
                    if baseline.elapsed
                    else 0.0
                )
                overhead_cell = f"{overhead:+.1f}"
            else:
                # Must fail cleanly (no hang, no silent corruption).
                report.verified &= faulted.status in (
                    "ChunkUnavailableError", "CheckpointError"
                )
                overhead_cell = "-"
            report.add_row(
                workload, replication, plan.describe(), faulted.status,
                round(faulted.elapsed, 6), overhead_cell,
                f"{100 * faulted.availability:.1f}",
                int(faulted.rereplicated),
                round(faulted.recovery_bytes / MiB, 3),
                int(faulted.lost),
            )
    report.claim(
        "§III-E: the aggregate store must degrade gracefully when "
        "contributing nodes fail; replication makes node loss survivable",
        "r=2 completed both workloads through a mid-run benefactor crash "
        "with zero lost chunks and redundancy restored in the background; "
        "r=1 surfaced the loss as a clean error on the same schedule",
    )
    return report
