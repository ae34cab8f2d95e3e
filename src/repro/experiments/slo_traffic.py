"""Open-loop traffic experiment: load-latency curves and SLO-under-failure.

The 19th experiment, and the first whose primary metric is tail latency
rather than makespan.  A seeded client swarm (see :mod:`repro.traffic`)
offers Poisson arrivals with Pareto-sized, Zipf-keyed read/write/
checkpoint-restore requests against the aggregate store, in legs that
differ in exactly one variable each:

1. **Calibration** — the same request sequence drained *closed-loop*
   measures the store's sustainable capacity (requests per virtual
   second) that anchors the sweep.
2. **Load sweep (r=1)** — the identical request sequence offered
   open-loop at 0.5×/0.8×/0.95× of capacity.  The p99 latency must rise
   monotonically with load; the *knee* is the load step with the largest
   relative p99 jump.
3. **Burstiness** — the 0.8× leg re-offered with MMPP on-off arrivals at
   the same mean rate: burstiness alone inflates the tail.
4. **SLO under failure** — at 0.8× load: an r=2 leg must ride through a
   seeded mid-run benefactor crash with zero failed requests and the SLO
   still attained, the same crash at r=1 must surface as *reported*
   violations (failed requests in the table, not a crashed experiment),
   and an r=2 leg with a transient SSD service-rate degradation
   (:class:`~repro.faults.TransientSlowdown` with ``rate_factor``) shows
   a slow replica inflating p99 without failing anything.

The SLO target itself is derived from the measured baseline — the 0.5×
leg's p99 times :data:`TARGET_FACTOR` — so every verdict is
relative to this testbed, never a hand-tuned constant.  All randomness
(arrivals, sizes, keys, fault times) comes from seeded generators; the
whole report digests bit-identically across repeats, hash seeds, and the
serial/parallel orchestrators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport, attainment_cell, rate_cell
from repro.experiments.runner import Testbed, benefactor_names, start_services
from repro.faults import FaultPlan
from repro.traffic import (
    ClientSwarm,
    MMPPProcess,
    SwarmConfig,
    SwarmResult,
    build_schedule,
)
from repro.traffic.arrivals import RequestSchedule, ZipfKeys
from repro.traffic.slo import SloSummary, summarize, window_summary

#: Seed for fault schedules (crash/slowdown victims and times).
FAULT_SEED = 4321

#: Relative window the fault strikes inside, as *arrival quantiles* of
#: the leg's schedule: mid-run by request count, clear of warmup and
#: drain.  (Quantiles, not a fraction of the arrival span: the span is
#: dominated by the slowest client's straggler tail, and a fault planted
#: at 0.5x span would land after most requests already completed.)
FAULT_WINDOW = (0.35, 0.65)

#: SSD service-rate degradation factor of the slow-replica leg.
SLOW_RATE_FACTOR = 8.0

#: Minimum fraction of requests served within the SLO for a leg to count
#: as "SLO attained" (the r=2 ride-through gate).
ATTAIN_THRESHOLD = 0.9

#: The request sequence every leg offers (seed, length, mix), the sweep's
#: loads over measured capacity, the SLO target over the lightest p99.
SCHEDULE_SEED, REQUESTS_PER_CLIENT = 77, 4
READ_FRACTION, CHECKPOINT_FRACTION = 0.7, 0.05
LOAD_FACTORS = (0.5, 0.8, 0.95)
TARGET_FACTOR = 4.0


@dataclass
class _Leg:
    """One swarm execution plus the store-side health snapshot."""

    label: str
    replication: int
    load: str  # offered load as a fraction of capacity ("-" for closed loop)
    schedule_desc: str
    result: SwarmResult
    lost: float
    under_replicated: int
    retries: int


def _run_leg(
    scale: ExperimentScale,
    label: str,
    replication: int,
    load: str,
    schedule: RequestSchedule,
    *,
    closed: bool = False,
    plan: FaultPlan | None = None,
) -> _Leg:
    """Run one leg on a fresh testbed (remote benefactors, as in the
    faults experiment: a benefactor crash never takes a client node)."""
    testbed = Testbed(scale)
    job = testbed.job(1, 2, 4, remote_ssd=True, replication=replication)
    start_services(job)
    if plan is not None:
        assert job.manager is not None
        testbed.engine.process(plan.inject(job.manager))
    swarm = ClientSwarm(job, SwarmConfig(region_bytes=scale.slo_region_bytes))
    if closed:
        result = swarm.closed_loop(schedule)
    else:
        result = swarm.open_loop(schedule)
    manager = job.manager
    assert manager is not None
    if result.completed_ok == result.issued:
        # Clean legs also wait for repair traffic to restore redundancy,
        # so "under-replicated at end" is a real verdict, not a race.
        testbed.engine.run(testbed.engine.process(manager.rereplication_quiesce()))
    metrics = testbed.cluster.metrics
    return _Leg(
        label=label,
        replication=replication,
        load=load,
        schedule_desc=plan.describe() if plan is not None else "none",
        result=result,
        lost=metrics.value("store.manager.chunks_lost"),
        under_replicated=len(manager.under_replicated()),
        retries=metrics.count("store.client.retries"),
    )


def _fault_plan(
    names: list[str], schedule: RequestSchedule, *, crash: bool
) -> FaultPlan:
    """A seeded mid-run fault pinned inside the schedule's bulk: the
    strike window spans the FAULT_WINDOW arrival *quantiles*, so a
    deterministic share of requests always arrives after the fault."""
    n = len(schedule)
    window = (
        float(schedule.times[int(FAULT_WINDOW[0] * n)]),
        float(schedule.times[int(FAULT_WINDOW[1] * n)]),
    )
    if crash:
        return FaultPlan.seeded(
            FAULT_SEED, names, crashes=1, slowdowns=0, window=window
        )
    return FaultPlan.seeded(
        FAULT_SEED,
        names,
        crashes=0,
        slowdowns=1,
        window=window,
        slow_duration=window[1] - window[0],
        slow_extra=0.0,
        slow_rate_factor=SLOW_RATE_FACTOR,
    )


def _row(report: ExperimentReport, leg: _Leg, summary: SloSummary) -> None:
    result = leg.result
    report.add_row(
        leg.label,
        leg.replication,
        leg.load,
        leg.schedule_desc,
        rate_cell(summary.ok, result.duration),
        round(summary.p50 * 1e3, 4),
        round(summary.p99 * 1e3, 4),
        round(summary.p999 * 1e3, 4),
        attainment_cell(summary.within_slo, summary.count),
        summary.errors,
    )


def _unit_schedule(scale: ExperimentScale, process: MMPPProcess | None):
    """The request sequence at unit rate (``None``: Poisson arrivals)."""
    return build_schedule(
        SCHEDULE_SEED, scale.slo_clients, REQUESTS_PER_CLIENT, process=process,
        keys=ZipfKeys(num_keys=scale.slo_num_keys),
        read_fraction=READ_FRACTION, checkpoint_fraction=CHECKPOINT_FRACTION,
    )


def slo_traffic(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Offered load × replication × faults: the load-latency curve, its
    knee, and SLO verdicts under a mid-run crash and a slow replica."""
    report = ExperimentReport(
        experiment="SLO traffic (open loop)",
        title="Load-latency curve and SLO under failure on the aggregate store",
        headers=[
            "Leg", "r", "Load", "Schedule", "Req/s",
            "p50 ms", "p99 ms", "p99.9 ms", "Attain %", "Errors",
        ],
    )
    unit = _unit_schedule(scale, None)
    names = benefactor_names(scale, 2)

    # 1. Closed-loop calibration: the capacity the sweep is offered
    #    against.  Same request sequence, so the mix matches exactly.
    cal = _run_leg(scale, "calibrate (closed)", 1, "-", unit, closed=True)
    capacity = cal.result.rate
    report.verified &= capacity > 0 and cal.result.completed_ok == cal.result.issued

    # 2. Open-loop load sweep at r=1.
    sweep: list[_Leg] = []
    for factor in LOAD_FACTORS:
        schedule = unit.at_rate(factor * capacity)
        sweep.append(
            _run_leg(scale, "poisson sweep", 1, f"{factor:.2f}x", schedule)
        )

    # 3. Bursty arrivals at the same mean rate as the middle sweep leg.
    mid = LOAD_FACTORS[1]
    bursty_unit = _unit_schedule(scale, MMPPProcess())
    burst = _run_leg(
        scale, "mmpp burst", 1, f"{mid:.2f}x", bursty_unit.at_rate(mid * capacity)
    )

    # 4. SLO under failure, all at the middle load.
    fault_schedule = unit.at_rate(mid * capacity)
    crash_plan = _fault_plan(names, fault_schedule, crash=True)
    slow_plan = _fault_plan(names, fault_schedule, crash=False)
    r2_base = _run_leg(scale, "r=2 baseline", 2, f"{mid:.2f}x", fault_schedule)
    r2_crash = _run_leg(
        scale, "r=2 crash", 2, f"{mid:.2f}x", fault_schedule, plan=crash_plan
    )
    r1_crash = _run_leg(
        scale, "r=1 crash", 1, f"{mid:.2f}x", fault_schedule, plan=crash_plan
    )
    r2_slow = _run_leg(
        scale, "r=2 slow replica", 2, f"{mid:.2f}x", fault_schedule, plan=slow_plan
    )

    # The SLO target is measured, not hand-tuned: the light-load leg's
    # p99 times the scale's headroom factor.  Summaries are pure folds,
    # so deriving the target after all legs ran changes nothing upstream.
    low_summary = summarize(sweep[0].result.records, slo_target=float("inf"))
    slo_target = TARGET_FACTOR * low_summary.p99
    summaries = {
        id(leg): summarize(
            leg.result.records, slo_target=slo_target, duration=leg.result.duration
        )
        for leg in [cal, *sweep, burst, r2_base, r2_crash, r1_crash, r2_slow]
    }
    for leg in [cal, *sweep, burst, r2_base, r2_crash, r1_crash, r2_slow]:
        _row(report, leg, summaries[id(leg)])

    # Verification: monotone load→p99 curve with an identifiable knee.
    p99s = [summaries[id(leg)].p99 for leg in sweep]
    report.verified &= all(a <= b for a, b in zip(p99s, p99s[1:]))
    report.verified &= all(
        summaries[id(leg)].errors == 0 for leg in [*sweep, burst, r2_base]
    )
    report.verified &= summaries[id(sweep[0])].attainment >= ATTAIN_THRESHOLD
    knee_index = max(
        range(1, len(sweep)),
        key=lambda i: p99s[i] / p99s[i - 1] if p99s[i - 1] > 0 else 0.0,
    )
    knee_load = LOAD_FACTORS[knee_index]

    # r=2 must ride through the crash with the SLO attained; r=1 must
    # *report* violations (failed requests), not crash the experiment.
    crash_summary = summaries[id(r2_crash)]
    report.verified &= (
        crash_summary.errors == 0
        and r2_crash.lost == 0
        and r2_crash.under_replicated == 0
        and crash_summary.attainment >= ATTAIN_THRESHOLD
    )
    report.verified &= summaries[id(r1_crash)].errors > 0
    # The slow replica inflates p99 without failing anything.
    slow_summary = summaries[id(r2_slow)]
    report.verified &= (
        slow_summary.errors == 0
        and slow_summary.p99 > summaries[id(r2_base)].p99
    )

    crash_at = min(event.at for event in crash_plan.events)
    crash_window = window_summary(
        r2_crash.result.records,
        crash_at,
        r2_crash.result.duration,
        slo_target=slo_target,
    )
    report.claim(
        "a disaggregated memory service must hold its latency SLO as "
        "offered load approaches capacity (open-loop tail, not makespan)",
        f"p99 rose monotonically {1e3 * p99s[0]:.3f} -> {1e3 * p99s[-1]:.3f} ms "
        f"over {LOAD_FACTORS[0]:.2f}x-{LOAD_FACTORS[-1]:.2f}x of the measured "
        f"{capacity:.0f} req/s capacity; knee at {knee_load:.2f}x "
        f"(SLO target {1e3 * slo_target:.3f} ms)",
    )
    report.claim(
        "replication must keep the service inside its SLO through the "
        "loss of a contributing node, while an unreplicated store "
        "surfaces the violation",
        f"r=2 rode through '{crash_plan.describe()}' with 0 failed "
        f"requests, {100 * crash_summary.attainment:.1f}% attainment "
        f"({100 * crash_window.attainment:.1f}% for arrivals after the "
        f"crash); r=1 on the same schedule reported "
        f"{summaries[id(r1_crash)].errors} failed requests; a "
        f"{SLOW_RATE_FACTOR:g}x-degraded replica inflated p99 "
        f"{1e3 * summaries[id(r2_base)].p99:.3f} -> "
        f"{1e3 * slow_summary.p99:.3f} ms with nothing lost",
    )
    return report
