#!/usr/bin/env python3
"""Quickstart: allocate, use, checkpoint, and free NVM-backed memory.

Builds a small simulated cluster, assembles an aggregate NVM store from
node-local SSDs, and walks through the NVMalloc API exactly as the paper's
Fig. 1 sketches it:

    nvmvar = ssdmalloc(...)      # memory-mapped variable on the store
    nvmvar[i] = x                # byte-addressable reads/writes
    ssdcheckpoint(...)           # one restart file, variable chunks linked
    ssdfree(nvmvar)              # unmap and release

and the allocation flavours of §III-C: a *persistent* array that
outlives ``ssdfree`` and is opened from another node, a read-only window
onto part of it that refuses writes, and a *private* (``MAP_PRIVATE``)
mapping whose writes nobody else sees.

Everything runs in simulated time: the printed seconds are virtual.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.cluster import HAL_TESTBED, make_hal_cluster
from repro.core import NVMalloc
from repro.errors import MmapError
from repro.mem import MmapRegion, Protection
from repro.sim import Engine
from repro.store import Benefactor, Manager
from repro.util import MiB, format_size, format_time


def main() -> None:
    # -- Substrate: a scaled-down HAL cluster (16 nodes x 8 cores) -----
    engine = Engine()
    cluster = make_hal_cluster(engine, HAL_TESTBED.scaled(64))
    print(f"cluster: {cluster}")

    # -- Aggregate NVM store: benefactors contribute node-local SSDs ---
    manager = Manager(cluster.node(0))
    for node in cluster.nodes[:4]:
        manager.register_benefactor(Benefactor(node, contribution=64 * MiB))
    print(
        f"aggregate store: {len(manager.benefactors())} benefactors, "
        f"{format_size(manager.total_capacity())} total"
    )

    # -- NVMalloc context on a compute node -----------------------------
    lib = NVMalloc(
        cluster.node(5),
        manager,
        fuse_cache_bytes=2 * MiB,
        page_cache_bytes=1 * MiB,
    )

    def app():
        # Allocate a 2-D array from the NVM store.  Under the hood this
        # creates a striped file on the benefactors and memory-maps it;
        # the application only ever sees the array.
        matrix = yield from lib.ssdmalloc_array((256, 256), np.float64)
        print(f"allocated {format_size(matrix.nbytes)} on the NVM store")

        # Byte-addressable access through the mmap emulation.
        for row in range(256):
            yield from matrix.write_row(
                row, np.full(256, float(row), dtype=np.float64)
            )
        sample = yield from matrix.read_rows(100, 102)
        assert np.all(sample[0] == 100.0) and np.all(sample[1] == 101.0)
        print("read-after-write verified through the full stack")

        # Checkpoint: DRAM state is written; the matrix's chunks are
        # LINKED, not copied (paper §III-E).
        dram_state = b"iteration=1;" * 1000
        record = yield from lib.ssdcheckpoint(
            "quickstart", 0, dram_state, [("matrix", matrix.variable)]
        )
        print(
            f"checkpoint: wrote {format_size(record.bytes_written)}, "
            f"linked {format_size(record.bytes_linked)} (zero-copy)"
        )

        # Mutate after the checkpoint: copy-on-write protects the frozen
        # view automatically.
        yield from matrix.write_row(100, np.zeros(256))
        _, frozen = yield from lib.restore("quickstart", 0)
        frozen_row = np.frombuffer(
            frozen["matrix"], dtype=np.float64
        ).reshape(256, 256)[100]
        assert np.all(frozen_row == 100.0), "checkpoint must stay frozen"
        print("post-checkpoint mutation isolated by copy-on-write")

        yield from lib.ssdfree(matrix.variable)
        print("freed; store space reclaimed")

        # A persistent array outlives ssdfree and the node that made
        # it: a later job stage on node 6 maps what node 5 wrote.
        table = bytes(range(256)) * 40
        produced = yield from lib.ssdmalloc_array(
            (len(table),), np.uint8, persistent_name="table"
        )
        yield from produced.write_slice(0, np.frombuffer(table, dtype=np.uint8))
        yield from lib.ssdfree(produced.variable)
        consumer = NVMalloc(
            cluster.node(6), manager,
            fuse_cache_bytes=2 * MiB, page_cache_bytes=1 * MiB,
        )
        opened = yield from consumer.open_persistent("table")
        if (yield from opened.read(0, len(table))) != table:
            raise SystemExit("persistent variable read back different bytes")
        yield from opened.write(0, b"seen on node 6")
        # A read-only window onto the table from its second page on: it
        # reads the file at that offset and refuses a write, typed.
        window = MmapRegion(
            consumer.pagecache, opened.backing_path, 4096,
            prot=Protection.PROT_READ, offset=4096,
        )
        if (yield from window.read(0, 4096)) != table[4096:8192]:
            raise SystemExit("an offset mapping reads the wrong part of the file")
        try:
            yield from window.write(0, b"x")
        except MmapError:
            pass
        else:
            raise SystemExit("a PROT_READ mapping accepted a write")
        yield from window.munmap()
        yield from consumer.ssdfree(opened)
        reopened = yield from lib.open_persistent("table")
        if (yield from reopened.read(0, 14)) != b"seen on node 6":
            raise SystemExit("persistent variable lost the consumer's write")
        yield from lib.ssdfree(reopened)
        yield from lib.unlink_persistent("table")
        if manager.exists(reopened.backing_path):
            raise SystemExit("unlinked persistent variable still on the store")
        print(
            "persistent array: node 5 -> node 6 (and a read-only window) "
            "-> node 5, then unlinked"
        )

        # MAP_PRIVATE: a copy-on-write view of a mapped file.  Its writes
        # land in a per-process overlay; neither the file nor another
        # mapping of it ever sees them.
        pattern = bytes(range(256)) * 64  # four pages
        base = yield from lib.ssdmalloc(len(pattern), shared_key="lut")
        yield from base.write(0, pattern)
        view = yield from lib.ssdmalloc(len(pattern), shared_key="lut", private=True)
        note = b"scratch" * 1000  # 7000 bytes from offset 3000: three pages
        yield from view.write(3000, note)
        seen = yield from view.read(0, view.nbytes)
        yield from lib.ssdfree(view)
        kept = yield from base.read(0, base.nbytes)
        if seen != pattern[:3000] + note + pattern[10000:] or kept != pattern:
            raise SystemExit("private mapping leaked or lost its writes")
        yield from lib.ssdfree(base)
        print("private mapping: its writes visible to it alone")
        return engine.now

    elapsed = engine.run(engine.process(app()))
    print(f"\nvirtual time elapsed: {format_time(elapsed)}")
    hit = lib.mount.cache.stats.hit_rate
    print(f"FUSE chunk-cache hit rate: {hit:.1%}")


if __name__ == "__main__":
    main()
