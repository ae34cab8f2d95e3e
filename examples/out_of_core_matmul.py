#!/usr/bin/env python3
"""Out-of-core matrix multiplication: the paper's Fig. 3 scenario.

Runs the five-stage MPI dense matrix multiplication on three
configurations of a simulated 16-node cluster:

- ``DRAM(2:16:0)``   — DRAM-only: matrix B is replicated per process, so
  only 2 of the 8 cores per node can be used;
- ``L-SSD(8:16:16)`` — NVMalloc maps B to one shared NVM-store file per
  node, freeing DRAM so all 8 cores work;
- ``R-SSD(8:8:1)``   — a single remote SSD serves 8 compute nodes: the
  paper's "add one $300 SSD per 8 nodes" cost argument.

The product is computed with real bytes end-to-end and verified against
``A @ B``.  A last leg computes one output tile by hand through the
typed-array interface the kernels are written against — row reads, the
strided column reads Fig. 5 prices, tile writes — with A in DRAM and B, C
on the store, and compares C byte for byte with numpy.

Run:  python examples/out_of_core_matmul.py
"""

import numpy as np

from repro.cluster import hottest
from repro.experiments import SMALL, Testbed
from repro.util import format_time
from repro.workloads import MatmulConfig, run_matmul


def run_config(x: int, y: int, z: int, remote: bool = False):
    testbed = Testbed(SMALL)
    job = testbed.job(x, y, z, remote_ssd=remote)
    config = MatmulConfig(
        n=SMALL.matrix_n,
        tile=SMALL.matrix_tile,
        b_placement="nvm" if z else "dram",
        shared_mmap=True,
    )
    result = run_matmul(job, testbed.pfs, config)
    if z:
        ssd = hottest(testbed.cluster, "ssd", window=testbed.engine.now)
        result.hot_ssd = f"{ssd.component} @ {ssd.utilization:.0%}"  # type: ignore[attr-defined]
    else:
        result.hot_ssd = "-"  # type: ignore[attr-defined]
    return result


def tile_by_hand(n: int = 24, tile: int = 8) -> None:
    """C[:tile, :tile] = A[:tile] @ B[:, :tile] on one rank, element by
    element through the Array interface; exits non-zero on a wrong byte."""
    testbed = Testbed(SMALL)
    lib = testbed.job(1, 1, 1).nvmalloc_for(0)
    rng = np.random.default_rng(7)
    a_host, b_host = rng.random((n, n)), rng.random((n, n))
    want = np.zeros((n, n))
    for i in range(tile):
        for j in range(tile):
            want[i, j] = a_host[i] @ np.ascontiguousarray(b_host[:, j])
    want[n - 1, n - 1] = -1.0  # a sentinel stored with set()

    def app():
        a = lib.dram_array((n, n))
        b = yield from lib.ssdmalloc_array((n, n))
        c = yield from lib.ssdmalloc_array((n, n))
        yield from a.write_block(0, 0, a_host)
        yield from b.write_bytes(0, b_host.tobytes())
        out = np.empty((tile, tile))
        for i in range(tile):
            row = yield from a.read_row(i)
            for j in range(tile):
                out[i, j] = row @ (yield from b.read_column(j))
        yield from c.write_block(0, 0, out)
        yield from c.set(n * n - 1, -1.0)
        return bytes((yield from c.read_bytes(0, c.nbytes)))

    got = testbed.engine.run(testbed.engine.process(app()))
    if got != want.tobytes():
        raise SystemExit("typed-array tile differs from numpy")
    print(f"\none {tile}x{tile} tile by hand (A in DRAM; B, C on the store): "
          f"C equals numpy byte for byte after {format_time(testbed.engine.now)}")


def main() -> None:
    print(f"matrix: {SMALL.matrix_n}x{SMALL.matrix_n} float64 "
          f"({SMALL.matrix_bytes >> 20} MiB each), tile {SMALL.matrix_tile}")
    print(f"{'config':18s} {'total':>10s} {'compute':>10s}  verified  busiest SSD")
    results = {}
    for x, y, z, remote in [
        (2, 16, 0, False),
        (8, 16, 16, False),
        (8, 8, 1, True),
    ]:
        result = run_config(x, y, z, remote)
        results[result.job_label] = result
        print(
            f"{result.job_label:18s} {format_time(result.total):>10s} "
            f"{format_time(result.compute_time):>10s}  {str(result.verified):8s}"
            f"  {result.hot_ssd}"  # type: ignore[attr-defined]
        )

    dram = results["DRAM(2:16:0)"].total
    nvm = results["L-SSD(8:16:16)"].total
    cheap = results["R-SSD(8:8:1)"].total
    print(
        f"\nNVMalloc lets all 8 cores/node work: "
        f"{100 * (1 - nvm / dram):.1f}% faster than DRAM-only "
        "(paper: 53.75%)"
    )
    print(
        f"one remote SSD per 8 nodes, half the nodes: "
        f"{100 * (1 - cheap / dram):.1f}% faster than DRAM-only "
        "(paper: 32.47%)"
    )
    tile_by_hand()


if __name__ == "__main__":
    main()
