"""Benefactor chunk payloads: differential oracle and footprint guard.

The benefactor keeps a materialized chunk as written extents until most
of it is written (``ChunkPayload``).  The retired behaviour — one flat,
zero-filled ``bytearray(chunk_size)`` per materialized chunk, every fetch
a copy — lives here as :class:`DenseBenefactor`, the slow reference.
Hypothesis drives both through the same operations in two identical
worlds and compares everything the model can see after every step.  The
footprint tests pin what the model cannot see: host bytes retained.

Buffers are shared, not copied, wherever bytes are only passed on (a
whole-chunk store, a CoW copy, a replica, a whole-chunk fetch), so each
world has two benefactors and the machine checks the ownership rule in
both directions after every store: by value, no holder ever sees another
holder's write; by ``id()``, a buffer nobody else holds is never copied.
"""

import tracemalloc

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.errors import BenefactorDownError, CapacityError
from repro.sim import Engine
from repro.store import CHUNK_SIZE, PAGE_SIZE, Benefactor, Manager, StoreClient
from repro.store import benefactor as benefactor_module
from repro.util.units import KiB, MiB
from tests.conftest import fuzz_settings, run

CLIENT = "node002"
CHUNK_IDS = range(4)
SIDES = st.sampled_from([0, 1])


class DenseBenefactor(Benefactor):
    """The retired payload behaviour: a flat ``bytearray`` per chunk.

    Same checks, charges and materialization rules as the benefactor it
    is compared with; no sparse state, no loans (every fetch copies, so a
    fetched buffer is trivially a snapshot).  A fill's shadow is a
    per-byte coverage map, and the fill's gaps are its runs of zeroes: a
    different algorithm from the real one's sort-and-merge of byte
    ranges, so the overlay and its SSD charge are compared, not shared.
    """

    def _slowdown(self):
        if self._slow_until > self.node.engine.now:
            yield self.node.engine.timeout(self._slow_extra)

    def _flat(self, chunk_id):
        if chunk_id not in self._data:
            if not self._free_extents:
                raise CapacityError(f"{self.name}: no free extents")
            self._extents[chunk_id] = self._free_extents.pop()
            self._data[chunk_id] = bytearray(self.chunk_size)
        return self._data[chunk_id]

    def begin_fill(self, chunk_id):
        self._fill_shadow[chunk_id] = bytearray(self.chunk_size)

    def store_chunk(self, client, chunk_id, data, offset=0):
        self._check_online()
        assert 0 <= offset and offset + len(data) <= self.chunk_size
        yield from self._slowdown()
        yield from self.node.network.transfer(client, self.name, len(data))
        if self.crashed or not self.online:
            raise BenefactorDownError(self.name)
        covered = self._fill_shadow.get(chunk_id)
        if covered is not None:
            covered[offset : offset + len(data)] = b"\x01" * len(data)
        self._flat(chunk_id)[offset : offset + len(data)] = data
        yield from self.ssd.write_extent(self._extents[chunk_id] + offset, len(data))
        self.metrics.add("store.benefactor.bytes_in", len(data))

    def fetch_chunk(self, client, chunk_id, offset=0, length=None, replica=False):
        # ``replica`` needs nothing here: a flat copy is the snapshot.
        self._check_online()
        if length is None:
            length = self.chunk_size - offset
        yield from self._slowdown()
        if chunk_id in self._data:
            yield from self.ssd.read_extent(self._extents[chunk_id] + offset, length)
            data = self._data[chunk_id][offset : offset + length]
        else:
            data = bytearray(length)
        yield from self.node.network.transfer(self.name, client, length)
        if self.crashed or not self.online:
            raise BenefactorDownError(self.name)
        self.metrics.add("store.benefactor.bytes_out", length)
        return data

    def copy_chunk_local(self, src_chunk_id, dst_chunk_id):
        self._check_online()
        if src_chunk_id in self._data:
            yield from self.ssd.read_extent(self._extents[src_chunk_id], self.chunk_size)
            self._flat(dst_chunk_id)[:] = self._data[src_chunk_id]
            yield from self.ssd.write_extent(self._extents[dst_chunk_id], self.chunk_size)

    def complete_fill(self, chunk_id, data):
        self._check_online()
        covered = self._fill_shadow.pop(chunk_id)
        if data is None:
            return
        payload = self._flat(chunk_id)
        written = 0
        start = covered.find(0)
        while start != -1:
            stop = covered.find(1, start)
            if stop == -1:
                stop = self.chunk_size
            payload[start:stop] = data[start:stop]
            written += stop - start
            start = covered.find(0, stop)
        if written:
            yield from self.ssd.write_extent(self._extents[chunk_id], written)

    def peek(self, chunk_id):
        data = self._data.get(chunk_id)
        return bytes(data) if data is not None else None


class _World:
    """One engine, one three-node cluster, two benefactors of ``kind``
    (the replicas of an ``r=2`` store) and a client on the third node."""

    def __init__(self, kind, chunk_size):
        self.engine = Engine()
        cluster = make_hal_cluster(
            self.engine,
            HalConfig(num_nodes=3, cores_per_node=2, dram_per_node=8 * MiB,
                      ssd_per_node=32 * MiB),
        )  # fmt: skip
        self.metrics = cluster.metrics
        # Room for three of the four chunk ids: running out of extents
        # is part of the contract too.
        self.bs = [
            kind(cluster.node(n), contribution=3 * chunk_size, chunk_size=chunk_size)
            for n in (0, 1)
        ]

    def do(self, call):
        """``("ok", value)`` or ``("raised", type)`` of ``call(benefactors)``.

        The value comes back through ``yield from``, as it does to the
        store client: a finished ``Process`` is reclaimed by the cycle
        collector, so a buffer left as its value would stay borrowed.
        """
        box = []

        def proc():
            box.append((yield from call(self.bs)))

        try:
            run(self.engine, proc())
        except (BenefactorDownError, CapacityError) as error:
            # The failed process keeps its exception, whose traceback
            # keeps the frames it unwound through, which may hold a
            # buffer or a payload twin: let go of them, or the buffers
            # stay borrowed (a spurious copy later) until the cycle
            # collector happens to run.
            error.__traceback__ = None
            return "raised", type(error)
        return "ok", box.pop()


class PayloadMachine(RuleBasedStateMachine):
    """Sparse/dense payloads must be indistinguishable from flat ones."""

    chunk_size = 16 * PAGE_SIZE

    def __init__(self):
        super().__init__()
        self.real = _World(Benefactor, self.chunk_size)
        self.oracle = _World(DenseBenefactor, self.chunk_size)
        #: ``(real buffer, reference bytes)`` of every fetch and of every
        #: stored bytearray its sender still holds, kept alive.
        self.kept = []
        #: Steps taken; a crash is for good, so crashes come late.
        self.steps = 0

    def both(self, call):
        got = self.real.do(call)
        want = self.oracle.do(call)
        if want[0] == "ok" and isinstance(want[1], (bytes, bytearray)):
            assert got[0] == "ok" and bytes(got[1]) == bytes(want[1])
        else:
            assert got == want
        return got, want

    def _holders(self, buf):
        """How many payload slots and kept buffers are this very object."""
        count = sum(mine is buf for mine, _ in self.kept)
        for b in self.real.bs:
            for payload in b._data.values():
                count += payload.dense is buf
                count += sum(extent is buf for extent in payload._bufs)
        return count

    def _edited(self, side, chunk_id, offset, length):
        """``(id, must_copy)`` of the buffer a partial store of
        ``[offset, offset + length)`` edits, None if it builds a new one.

        Ids and booleans only: a reference held across the store would
        itself be a holder.
        """
        payload = self.real.bs[side]._data.get(chunk_id)
        if payload is None or not length or length == self.chunk_size:
            return None
        buf = payload.dense
        if buf is None:
            lo = offset - offset % PAGE_SIZE
            hi = min(offset + length + -(offset + length) % PAGE_SIZE, self.chunk_size)
            for start, extent in zip(payload._starts, payload._bufs):
                if start <= lo and hi <= start + len(extent):
                    buf = extent
                    break
            else:
                return None
        return id(buf), type(buf) is bytes or self._holders(buf) > 1

    # ------------------------------------------------------------------
    @rule(
        side=SIDES,
        chunk_id=st.sampled_from(CHUNK_IDS),
        page=st.integers(0, 15),
        skew=st.integers(0, 300),
        fill=st.integers(1, 255),
        length=st.one_of(
            st.integers(0, 3 * PAGE_SIZE),
            st.sampled_from([PAGE_SIZE, 4 * PAGE_SIZE, 9 * PAGE_SIZE]),
        ),
        aligned=st.booleans(),
    )
    def store_partial(self, side, chunk_id, page, skew, fill, length, aligned):
        offset = min(page * PAGE_SIZE + (0 if aligned else skew), self.chunk_size)
        data = bytes([fill]) * min(length, self.chunk_size - offset)
        self._store_partial(side, chunk_id, offset, data)

    def _store_partial(self, side, chunk_id, offset, data):
        before = self._edited(side, chunk_id, offset, len(data))
        got, _ = self.both(lambda bs: bs[side].store_chunk(CLIENT, chunk_id, data, offset))
        if before is not None and got[0] == "ok":
            # Both directions: a buffer somebody else holds (or nobody
            # may change) is never edited in place, any other is never
            # copied.
            after = self._edited(side, chunk_id, offset, len(data))
            assert (after[0] != before[0]) == before[1]
            assert not after[1]

    @rule(
        sides=st.sampled_from([(0,), (1,), (0, 1)]),
        chunk_id=st.sampled_from(CHUNK_IDS),
        fill=st.integers(1, 255),
        kind=st.sampled_from([bytes, bytearray]),
        keep=st.booleans(),
    )
    def store_full(self, sides, chunk_id, fill, kind, keep):
        """One buffer object to every replica, as the store client sends
        it; a ``bytearray`` is given away, or kept by a sender who will
        not change it (a flushed chunk-cache entry)."""
        data = kind([fill]) * self.chunk_size
        reference = bytes(data)
        for side in sides:
            got = self.real.do(lambda bs: bs[side].store_chunk(CLIENT, chunk_id, data))
            want = self.oracle.do(
                lambda bs: bs[side].store_chunk(CLIENT, chunk_id, reference)
            )
            assert got == want
            if got[0] == "ok":  # adopted: replaced, not copied
                assert self.real.bs[side]._data[chunk_id].dense is data
        if keep:
            self.kept.append((data, reference))

    @rule(
        side=SIDES,
        chunk_id=st.sampled_from(CHUNK_IDS),
        offset=st.integers(0, 16 * PAGE_SIZE),
        length=st.integers(0, 16 * PAGE_SIZE),
        whole=st.booleans(),
    )
    def fetch(self, side, chunk_id, offset, length, whole):
        if whole:
            offset, length = 0, self.chunk_size
        offset = min(offset, self.chunk_size)
        length = min(length, self.chunk_size - offset)
        got, want = self.both(
            lambda bs: bs[side].fetch_chunk(CLIENT, chunk_id, offset, length)
        )
        if got[0] == "ok":
            if length < self.chunk_size:
                assert type(got[1]) is bytearray  # the caller's own
            self.kept.append((got[1], bytes(want[1])))

    @rule()
    def drop_fetched(self):
        self.kept.clear()

    @rule(side=SIDES, src=st.sampled_from(CHUNK_IDS), dst=st.sampled_from(CHUNK_IDS))
    def copy_local(self, side, src, dst):
        self.both(lambda bs: bs[side].copy_chunk_local(src, dst))

    @rule(side=SIDES, chunk_id=st.sampled_from(CHUNK_IDS))
    def begin_fill(self, side, chunk_id):
        for world in (self.real, self.oracle):
            if not world.bs[side].filling(chunk_id):
                world.bs[side].begin_fill(chunk_id)

    def _filling(self, pick):
        """One of the chunks mid-fill, as ``(side, chunk_id)``, or None."""
        filling = [
            (side, chunk_id)
            for side, b in enumerate(self.real.bs)
            for chunk_id in CHUNK_IDS
            if b.filling(chunk_id)
        ]
        return filling[pick % len(filling)] if filling else None

    @rule(pick=st.integers(0, 7), page=st.integers(0, 15), fill=st.integers(1, 255))
    def write_through(self, pick, page, fill):
        """A client write landing on a replica while its fill is in flight."""
        if self._filling(pick) is not None:
            offset = min(page * PAGE_SIZE, self.chunk_size)
            data = bytes([fill]) * min(PAGE_SIZE + 9, self.chunk_size - offset)
            self._store_partial(*self._filling(pick), offset, data)

    @rule(pick=st.integers(0, 7), src_side=SIDES, src=st.sampled_from(CHUNK_IDS))
    def complete_fill(self, pick, src_side, src):
        """The manager's repair step, from chunk ``src`` of one benefactor
        (the other replica, or the same one) into a chunk mid-fill."""
        if self._filling(pick) in (None, (src_side, src)):
            return
        dst_side, dst = self._filling(pick)

        def repair(bs):
            source, target = bs[src_side], bs[dst_side]
            data = None
            if source.has_chunk(src):
                data = yield from source.fetch_chunk(target.name, src, replica=True)
            yield from target.complete_fill(dst, data)

        got, want = self.both(repair)
        if got[0] == "raised":  # the manager's rollback
            self.real.bs[dst_side].abort_fill(dst)
            self.oracle.bs[dst_side].abort_fill(dst)

    @rule(side=SIDES, chunk_id=st.sampled_from(CHUNK_IDS))
    def delete(self, side, chunk_id):
        self.real.bs[side].delete_chunk(chunk_id)
        self.oracle.bs[side].delete_chunk(chunk_id)

    @precondition(lambda self: self.steps > 30)
    @rule(side=SIDES)
    def crash(self, side):
        self.real.bs[side].crash()
        self.oracle.bs[side].crash()

    @precondition(lambda self: self.steps > 30)
    @rule(side=SIDES, chunk_id=st.sampled_from(CHUNK_IDS), fill=st.integers(1, 255))
    def crash_mid_store(self, side, chunk_id, fill):
        """The node dies while a payload is on the wire: nothing lands."""
        data = bytes([fill]) * (2 * PAGE_SIZE)

        def doomed(bs):
            b = bs[side]
            engine = b.node.engine
            store = engine.process(b.store_chunk(CLIENT, chunk_id, data, PAGE_SIZE))
            yield engine.timeout(1e-9)
            b.crash()
            yield store

        got, _ = self.both(doomed)
        assert got == ("raised", BenefactorDownError)

    # ------------------------------------------------------------------
    @invariant()
    def worlds_agree(self):
        self.steps += 1
        for real, oracle in zip(self.real.bs, self.oracle.bs):
            for chunk_id in CHUNK_IDS:
                assert real.has_chunk(chunk_id) == oracle.has_chunk(chunk_id)
                assert real.peek(chunk_id) == oracle.peek(chunk_id)
                assert real.filling(chunk_id) == oracle.filling(chunk_id)
            assert real.stored_chunks == oracle.stored_chunks
            assert real._extents == oracle._extents
            assert real._free_extents == oracle._free_extents
        assert self.real.engine.now == self.oracle.engine.now
        assert self.real.metrics.snapshot() == self.oracle.metrics.snapshot()
        # Every buffer ever fetched, and every stored buffer its sender
        # kept, still reads as it did then.
        for mine, reference in self.kept:
            assert mine == reference

    @invariant()
    def payload_is_well_formed(self):
        payloads = [p for b in self.real.bs for p in b._data.values()]
        for payload in payloads:
            if payload.dense is not None:
                assert len(payload.dense) == self.chunk_size
                assert not payload._starts and not payload._bufs
                continue
            stops = [s + len(b) for s, b in zip(payload._starts, payload._bufs)]
            assert all(s % PAGE_SIZE == 0 for s in payload._starts)
            assert all(a < b for a, b in zip(payload._starts, stops))
            assert all(a <= b for a, b in zip(stops, payload._starts[1:]))
            assert not stops or stops[-1] <= self.chunk_size
            assert payload._held == sum(len(b) for b in payload._bufs)
            assert 2 * payload._held <= self.chunk_size


class RaggedPayloadMachine(PayloadMachine):
    """A chunk size that is not a whole number of pages."""

    chunk_size = 5 * PAGE_SIZE + 123


_SETTINGS = fuzz_settings(max_examples=60, stateful_step_count=50, deadline=None)
TestPayloadMachine = PayloadMachine.TestCase
TestPayloadMachine.settings = _SETTINGS
TestRaggedPayloadMachine = RaggedPayloadMachine.TestCase
TestRaggedPayloadMachine.settings = _SETTINGS


def test_fill_overlays_unaligned_overlapping_write_throughs():
    """The case a fill's overlay exists for, which the random draws reach
    only now and then: two write-throughs inside one fill that overlap
    and end off a page boundary, over a snapshot of other bytes.  The
    worlds must agree on every byte and on the SSD charge."""
    machine = PayloadMachine()
    machine.store_full(sides=(0,), chunk_id=0, fill=7, kind=bytes, keep=False)
    machine.begin_fill(side=1, chunk_id=0)
    machine.store_partial(
        side=1, chunk_id=0, page=2, skew=100, fill=9, length=PAGE_SIZE,
        aligned=False,
    )  # [2P + 100, 3P + 100)
    machine.write_through(pick=0, page=3, fill=11)  # [3P, 4P + 9)
    machine.complete_fill(pick=0, src_side=0, src=0)
    machine.worlds_agree()
    machine.payload_is_well_formed()
    got = machine.real.bs[1].peek(0)
    want = bytearray([7]) * machine.chunk_size
    want[2 * PAGE_SIZE + 100 : 3 * PAGE_SIZE + 100] = bytes([9]) * PAGE_SIZE
    want[3 * PAGE_SIZE : 4 * PAGE_SIZE + 9] = bytes([11]) * (PAGE_SIZE + 9)
    assert got == want


# ----------------------------------------------------------------------
# Footprint: what a benefactor retains on the host (no wall clock)
# ----------------------------------------------------------------------
#: Payload bytes a chunk holding one written page may retain: the page,
#: and two more for the payload object, its lists and allocator slack.
SPARSE_BUDGET = 3 * PAGE_SIZE


def _payload_bytes():
    """Live traced bytes allocated by ``store/benefactor.py`` — where every
    payload buffer is created."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, benefactor_module.__file__)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_ownership_rule_both_directions(engine, small_cluster):
    """Whoever passes bytes on shares them; whoever changes them copies
    first, and only if somebody else could see the change (a spurious
    copy is invisible to every virtual gate)."""
    b = Benefactor(small_cluster.node(0), contribution=16 * MiB)
    stored = b"a" * CHUNK_SIZE
    run(engine, b.store_chunk(CLIENT, 1, stored))
    payload = b._data[1]
    assert payload.dense is stored  # adopted
    loan = run(engine, b.fetch_chunk(CLIENT, 1))
    assert loan is stored
    run(engine, b.store_chunk(CLIENT, 1, b"b" * PAGE_SIZE, PAGE_SIZE))
    assert loan == b"a" * CHUNK_SIZE  # immutable: the borrower's snapshot
    assert type(payload.dense) is bytearray
    assert b.peek(1)[PAGE_SIZE : 2 * PAGE_SIZE] == b"b" * PAGE_SIZE
    private = id(payload.dense)
    run(engine, b.store_chunk(CLIENT, 1, b"c" * PAGE_SIZE, 0))
    assert id(payload.dense) == private  # nobody else holds it: in place
    loan = run(engine, b.fetch_chunk(CLIENT, 1))
    assert id(loan) == private
    run(engine, b.store_chunk(CLIENT, 1, b"d" * PAGE_SIZE, 0))
    assert id(payload.dense) != private and loan[:1] == b"c"  # a loan is out
    # A whole-chunk store replaces: the loan keeps the old buffer, the
    # sender's bytearray is now the payload, and stays as sent while the
    # sender holds it.
    sent = bytearray(b"e" * CHUNK_SIZE)
    run(engine, b.store_chunk(CLIENT, 1, sent))
    assert payload.dense is sent and loan[:1] == b"c"
    run(engine, b.store_chunk(CLIENT, 1, b"f", 0))
    assert payload.dense is not sent and sent == b"e" * CHUNK_SIZE
    assert b.peek(1)[:2] == b"fe"
    # ... but a view of somebody's buffer is never adopted.
    run(engine, b.store_chunk(CLIENT, 1, memoryview(sent)))
    sent[0] = 0
    assert b.peek(1) == b"e" * CHUNK_SIZE


def test_replicas_hold_one_buffer_until_one_is_written(engine, small_cluster):
    manager = Manager(small_cluster.node(0), replication=2)
    for node in small_cluster.nodes:
        manager.register_benefactor(Benefactor(node, contribution=16 * MiB))
    client = StoreClient(small_cluster.node(1), manager)

    def write():
        yield from client.create("/f", CHUNK_SIZE)
        yield from client.write("/f", 0, b"r" * CHUNK_SIZE)

    run(engine, write())
    (chunk_id,) = manager.lookup("/f").chunk_ids
    first, second = (r._data[chunk_id] for r in manager.chunk_replicas(chunk_id))
    assert first.dense is second.dense
    run(engine, client.write("/f", 5, b"w"))
    assert first.dense is not second.dense
    assert bytes(first.dense) == bytes(second.dense) == b"r" * 5 + b"w" + b"r" * (CHUNK_SIZE - 6)


class TestFootprint:
    def setup_method(self):
        tracemalloc.start()

    def teardown_method(self):
        tracemalloc.stop()

    def test_one_page_per_chunk_retains_pages_not_chunks(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=16 * MiB)
        base = _payload_bytes()

        def proc():
            for chunk_id in range(64):
                yield from b.store_chunk(
                    CLIENT, chunk_id, b"p" * PAGE_SIZE, chunk_id * PAGE_SIZE
                )

        run(engine, proc())
        assert b.stored_chunks == 64
        assert _payload_bytes() - base < 64 * SPARSE_BUDGET
        assert b.peek(5)[5 * PAGE_SIZE : 6 * PAGE_SIZE] == b"p" * PAGE_SIZE
        assert b.peek(5).count(0) == CHUNK_SIZE - PAGE_SIZE

    def test_fully_written_chunk_is_one_buffer_and_loans_it(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=16 * MiB)
        base = _payload_bytes()

        def fill():
            for offset in range(0, CHUNK_SIZE, 16 * KiB):
                yield from b.store_chunk(CLIENT, 1, b"w" * 16 * KiB, offset)

        run(engine, fill())
        payload = b._data[1]
        assert type(payload.dense) is bytearray and len(payload.dense) == CHUNK_SIZE
        assert payload._bufs == [] and payload._held == 0
        held = _payload_bytes() - base
        assert CHUNK_SIZE <= held < CHUNK_SIZE + SPARSE_BUDGET

        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fetched = run(engine, b.fetch_chunk(CLIENT, 1))
        assert tracemalloc.get_traced_memory()[1] - before < CHUNK_SIZE
        assert fetched is payload.dense  # a loan, not a copy
        assert fetched == b"w" * CHUNK_SIZE

    def test_cow_copies_of_dense_chunk_share_its_bytes(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=16 * MiB)
        run(engine, b.store_chunk(CLIENT, 1, b"k" * CHUNK_SIZE))
        run(engine, b.store_chunk(CLIENT, 1, b"l", 9))  # a bytearray now
        before = tracemalloc.get_traced_memory()[0]

        def link():
            for dst in range(2, 8):
                yield from b.copy_chunk_local(1, dst)

        run(engine, link())
        assert tracemalloc.get_traced_memory()[0] - before < 1.5 * CHUNK_SIZE
        run(engine, b.store_chunk(CLIENT, 4, b"m", 9))  # one copy unshares
        assert b.peek(4)[9:10] == b"m"
        assert all(b.peek(c)[9:10] == b"l" for c in (1, 2, 3, 5, 6, 7))
        assert tracemalloc.get_traced_memory()[0] - before < 2.5 * CHUNK_SIZE

    def test_cow_copy_of_sparse_chunk_stays_sparse(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=16 * MiB)
        run(engine, b.store_chunk(CLIENT, 1, b"c" * 8 * PAGE_SIZE, 7 * PAGE_SIZE))
        base = _payload_bytes()
        run(engine, b.copy_chunk_local(1, 2))
        assert _payload_bytes() - base < SPARSE_BUDGET  # the extent is shared
        assert b.peek(2) == b.peek(1)
        run(engine, b.store_chunk(CLIENT, 2, b"d" * PAGE_SIZE, 7 * PAGE_SIZE))
        assert b.peek(1)[7 * PAGE_SIZE] == ord("c")  # the copy is independent

    def test_rereplicated_sparse_chunk_stays_sparse(self, engine, small_cluster):
        manager = Manager(small_cluster.node(0), replication=2)
        for node in small_cluster.nodes:
            manager.register_benefactor(Benefactor(node, contribution=16 * MiB))
        client = StoreClient(small_cluster.node(1), manager)

        def write():
            yield from client.create("/f", 8 * CHUNK_SIZE)
            for index in range(8):
                yield from client.write("/f", index * CHUNK_SIZE + PAGE_SIZE, b"r" * PAGE_SIZE)

        run(engine, write())
        meta = manager.lookup("/f")
        victim = manager.chunk_replicas(meta.chunk_ids[0])[0]
        lost = victim.stored_chunks
        assert lost > 0
        victim.crash()
        assert run(engine, manager.monitor(0.01, rounds=1)) == 1
        base = _payload_bytes()
        assert run(engine, manager.rereplicate_pending()) == lost
        assert _payload_bytes() - base < lost * SPARSE_BUDGET
        for chunk_id in meta.chunk_ids:
            replicas = manager.chunk_replicas(chunk_id)
            assert victim not in replicas and len(replicas) == 2
            first, second = (replica.peek(chunk_id) for replica in replicas)
            assert first == second
            assert first[PAGE_SIZE : 2 * PAGE_SIZE] == b"r" * PAGE_SIZE
