"""Ablation: FTL wear leveling on/off.

The paper's lifetime argument assumes the device spreads erases; this
ablation drives a hot-spot write pattern through the FTL and compares
the per-block erase spread with wear leveling enabled and disabled.
"""

from repro.devices.ftl import FlashTranslationLayer
from repro.util.tables import render_table
from repro.util.units import MiB


def spread(wear_leveling: bool) -> tuple[int, int, float]:
    ftl = FlashTranslationLayer(
        capacity=4 * MiB, pages_per_block=32,
        overprovision=0.1, wear_leveling=wear_leveling,
    )
    hot = list(range(64))  # 2 blocks' worth of hot pages
    for _ in range(600):
        ftl.write_pages(hot)
    low, high = ftl.erase_count_spread()
    return low, high, ftl.stats.write_amplification


def test_ablation_wear_leveling(benchmark):
    def sweep():
        return {on: spread(on) for on in (True, False)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["Wear leveling", "Erase min", "Erase max", "Write amplification"],
        [
            ["on" if on else "off", *results[on]]
            for on in (True, False)
        ],
        title="Ablation: wear leveling under a hot-spot write pattern",
    ))
    on_low, on_high, _ = results[True]
    off_low, off_high, _ = results[False]
    # Leveling keeps the spread tight; without it, some blocks age much
    # faster than others.
    assert (on_high - on_low) <= max(4, (off_high - off_low) // 2)
