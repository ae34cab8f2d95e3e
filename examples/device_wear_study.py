#!/usr/bin/env python3
"""SSD lifetime study: what NVMalloc's write optimization saves in wear.

The paper motivates the dirty-page write optimization with SSD lifetime
("NVM devices such as SSDs have limited write cycles. Our design needs to
optimize the total write volume").  This example drives the random-write
synthetic against the full stack twice — with and without the
optimization — and reads the flash-translation-layer wear counters off
the simulated device: host writes, write amplification, block erases,
and the resulting projected device lifetime.

Run:  python examples/device_wear_study.py
"""

from repro.devices.lifetime import (
    endurance_budget_bytes,
    estimated_lifetime_days,
    lifetime_gain_from_optimization,
)
from repro.experiments import SMALL, Testbed
from repro.util import format_size
from repro.workloads import RandWriteConfig, run_randwrite


def run_mode(optimized: bool):
    testbed = Testbed(SMALL)
    job = testbed.job(1, 1, 1, dirty_page_writeback=optimized)
    result = run_randwrite(
        job,
        RandWriteConfig(
            region_bytes=SMALL.randwrite_region,
            num_writes=SMALL.randwrite_count // 4,
        ),
    )
    ssd = job.benefactors[0].ssd
    return result, ssd


#: The projection's duty cycle: the workload repeats this often, all day.
RUNS_PER_DAY = 24 * 60


def projected_days(ssd, wear) -> float:
    """Days until the device's endurance budget is spent at this wear."""
    page = ssd.ftl.page_size
    days = estimated_lifetime_days(
        ssd.spec,
        wear["host_pages_written"] * page * RUNS_PER_DAY,
        write_amplification=wear["write_amplification"],
    )
    # The same figure from the flash side: every byte of capacity can be
    # programmed endurance_cycles times, at the rate the FTL counted.
    budget = ssd.spec.capacity * ssd.spec.endurance_cycles
    flash_per_day = wear["flash_pages_written"] * page * RUNS_PER_DAY
    if endurance_budget_bytes(ssd.spec) != budget or (
        abs(days - budget / flash_per_day) > 1e-12 * days
    ):
        raise SystemExit("lifetime model disagrees with the FTL's own counters")
    return days


def main() -> None:
    print(
        f"workload: {SMALL.randwrite_count // 4} random byte writes into "
        f"{format_size(SMALL.randwrite_region)} on the NVM store\n"
    )
    reports = {}
    for optimized in (True, False):
        label = "dirty-page flush" if optimized else "whole-chunk flush"
        result, ssd = run_mode(optimized)
        wear = ssd.wear_report()
        days = projected_days(ssd, wear)
        reports[optimized] = (result, wear, days)
        print(f"{label}:")
        print(f"  bytes to SSD:        {format_size(result.written_to_ssd)}")
        print(f"  flash pages written: {wear['flash_pages_written']:.0f}")
        print(f"  blocks erased:       {wear['blocks_erased']:.0f}")
        print(f"  write amplification: {wear['write_amplification']:.2f}")
        print(f"  erase spread:        {wear['erase_min']:.0f}..{wear['erase_max']:.0f}")
        print(f"  projected lifetime:  {days:,.0f} days "
              f"at {RUNS_PER_DAY} runs a day")
        print()

    opt_pages = reports[True][1]["flash_pages_written"]
    raw_pages = reports[False][1]["flash_pages_written"]
    factor = lifetime_gain_from_optimization(raw_pages, opt_pages)
    if abs(factor - reports[True][2] / reports[False][2]) > 1e-12 * factor:
        raise SystemExit("lifetime gain is not the ratio of the two projections")
    print(
        f"the write optimization cuts flash wear by {factor:.1f}x for this "
        "workload — directly multiplying device lifetime"
    )


if __name__ == "__main__":
    main()
