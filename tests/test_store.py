"""Tests for the aggregate NVM store: benefactor, manager, client."""

import itertools

import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.errors import (
    BenefactorDownError,
    CapacityError,
    ChunkNotFoundError,
    FileExistsInStoreError,
    FileNotFoundInStoreError,
    ReplicationError,
    StoreError,
)
from repro.store import (
    CHUNK_SIZE,
    Benefactor,
    LocalFirstStriping,
    Manager,
    RoundRobinStriping,
    StoreClient,
    chunk_count,
)
from repro.sim.engine import Engine
from repro.util.units import KiB, MiB
from tests.conftest import fuzz_settings, run


class TestChunkCount:
    @pytest.mark.parametrize(
        "size,expected",
        [(0, 0), (1, 1), (CHUNK_SIZE, 1), (CHUNK_SIZE + 1, 2), (10 * CHUNK_SIZE, 10)],
    )
    def test_values(self, size, expected):
        assert chunk_count(size) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chunk_count(-1)


class TestBenefactor:
    def test_requires_ssd(self, small_cluster):
        node = small_cluster.node(0)
        node_no_ssd = type(node).__new__(type(node))  # bare instance
        node_no_ssd.ssd = None
        node_no_ssd.name = "fake"
        with pytest.raises(StoreError):
            Benefactor(node_no_ssd)

    def test_contribution_capped_by_ssd(self, small_cluster):
        with pytest.raises(CapacityError):
            Benefactor(small_cluster.node(0), contribution=10**12)

    def test_reserve_accounting(self, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)
        b.reserve(512 * KiB)
        assert b.available == 512 * KiB
        with pytest.raises(CapacityError):
            b.reserve(1 * MiB)
        b.unreserve(512 * KiB)
        assert b.available == 1 * MiB

    def test_store_fetch_roundtrip(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)
        payload = bytes(range(256)) * 4

        def proc():
            yield from b.store_chunk("node001", 1, payload, offset=100)
            return (yield from b.fetch_chunk("node001", 1, 100, len(payload)))

        assert run(engine, proc()) == payload

    def test_unmaterialized_reads_zero(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)

        def proc():
            return (yield from b.fetch_chunk("node001", 99, 0, 64))

        assert run(engine, proc()) == bytes(64)

    def test_out_of_chunk_write_rejected(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)
        with pytest.raises(StoreError):
            run(engine, b.store_chunk("node001", 1, b"x" * 10, offset=CHUNK_SIZE))

    def test_offline_refuses_service(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)
        b.online = False
        with pytest.raises(BenefactorDownError):
            run(engine, b.fetch_chunk("node001", 1, 0, 1))

    def test_delete_recycles_extent(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=512 * KiB)  # 2 extents

        def proc():
            yield from b.store_chunk("node001", 1, b"a")
            yield from b.store_chunk("node001", 2, b"b")
            b.delete_chunk(1)
            yield from b.store_chunk("node001", 3, b"c")  # reuses extent

        run(engine, proc())
        assert b.stored_chunks == 2

    def test_copy_chunk_local(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)

        def proc():
            yield from b.store_chunk("node001", 1, b"original")
            yield from b.copy_chunk_local(1, 2)
            yield from b.store_chunk("node001", 2, b"MUTATED!")
            one = yield from b.fetch_chunk("node001", 1, 0, 8)
            two = yield from b.fetch_chunk("node001", 2, 0, 8)
            return one, two

        one, two = run(engine, proc())
        assert one == b"original"
        assert two == b"MUTATED!"


class TestManagerFiles:
    def test_create_reserves_chunks(self, engine, store, client):
        def proc():
            return (yield from client.create("/f", 3 * CHUNK_SIZE + 5))

        meta = run(engine, proc())
        assert meta.num_chunks == 4
        reserved = sum(b.reserved for b in store.benefactors())
        assert reserved == 4 * CHUNK_SIZE

    def test_duplicate_create_rejected(self, engine, client):
        def proc():
            yield from client.create("/f", 10)
            yield from client.create("/f", 10)

        with pytest.raises(FileExistsInStoreError):
            run(engine, proc())

    def test_lookup_missing(self, store):
        with pytest.raises(FileNotFoundInStoreError):
            store.lookup("/missing")

    def test_round_robin_spread(self, engine, store, client):
        def proc():
            yield from client.create("/f", 8 * CHUNK_SIZE)

        run(engine, proc())
        perbenefactor = [b.reserved // CHUNK_SIZE for b in store.benefactors()]
        assert perbenefactor == [2, 2, 2, 2]

    def test_resolve_out_of_range(self, engine, store, client):
        def proc():
            yield from client.create("/f", CHUNK_SIZE)

        run(engine, proc())
        with pytest.raises(ChunkNotFoundError):
            store.resolve_chunk("/f", 5)

    def test_resolve_offline_benefactor(self, engine, store, client):
        def proc():
            yield from client.create("/f", CHUNK_SIZE)

        run(engine, proc())
        _, owner = store.resolve_chunk("/f", 0)
        store.mark_offline(owner.name)
        with pytest.raises(BenefactorDownError):
            store.resolve_chunk("/f", 0)
        store.mark_online(owner.name)
        store.resolve_chunk("/f", 0)

    def test_delete_frees_space(self, engine, store, client):
        def proc():
            yield from client.create("/f", 4 * CHUNK_SIZE)
            yield from client.write("/f", 0, b"data")
            yield from client.delete("/f")

        run(engine, proc())
        assert store.total_available() == store.total_capacity()
        assert all(b.stored_chunks == 0 for b in store.benefactors())

    def test_store_full(self, engine, store, client):
        total = store.total_available()

        def proc():
            yield from client.create("/big", total + CHUNK_SIZE)

        with pytest.raises(StoreError):
            run(engine, proc())


class TestClientDataPath:
    def test_read_after_write(self, engine, client):
        payload = b"hello, aggregate store" * 100

        def proc():
            yield from client.create("/f", 2 * CHUNK_SIZE)
            yield from client.write("/f", CHUNK_SIZE - 50, payload)
            return (yield from client.read("/f", CHUNK_SIZE - 50, len(payload)))

        assert run(engine, proc()) == payload

    def test_reserved_reads_zero(self, engine, client):
        def proc():
            yield from client.create("/f", CHUNK_SIZE)
            return (yield from client.read("/f", 10, 20))

        assert run(engine, proc()) == bytes(20)

    def test_bounds_checked(self, engine, client):
        def proc():
            yield from client.create("/f", 100)
            yield from client.read("/f", 90, 20)

        with pytest.raises(StoreError):
            run(engine, proc())

    def test_map_cache_avoids_rpcs(self, engine, small_cluster, store, client):
        def proc():
            yield from client.create("/f", CHUNK_SIZE)
            yield from client.write("/f", 0, b"x")
            before = small_cluster.metrics.value("store.manager.rpcs")
            for _ in range(10):
                yield from client.read("/f", 0, 1)
            return small_cluster.metrics.value("store.manager.rpcs") - before

        assert run(engine, proc()) == 0

    def test_cross_client_visibility(self, engine, small_cluster, store):
        writer = StoreClient(small_cluster.node(1), store)
        reader = StoreClient(small_cluster.node(2), store)

        def proc():
            yield from writer.create("/shared", CHUNK_SIZE)
            yield from writer.write("/shared", 7, b"published")
            return (yield from reader.read("/shared", 7, 9))

        assert run(engine, proc()) == b"published"


class TestCheckpointLinking:
    def test_linked_chunks_shared(self, engine, store, client):
        def proc():
            yield from client.create("/var", 2 * CHUNK_SIZE)
            yield from client.write("/var", 0, b"v0")
            yield from client.create("/ckpt", CHUNK_SIZE)
            store.link_chunks("/ckpt", "/var")
            return store.lookup("/ckpt")

        meta = run(engine, proc())
        assert meta.num_chunks == 3
        for chunk_id in store.lookup("/var").chunk_ids:
            assert store.chunk_refcount(chunk_id) == 2

    def test_cow_preserves_checkpoint(self, engine, store, client):
        def proc():
            yield from client.create("/var", CHUNK_SIZE)
            yield from client.write("/var", 0, b"frozen")
            yield from client.create("/ckpt", CHUNK_SIZE)
            store.link_chunks("/ckpt", "/var")
            yield from client.write("/var", 0, b"MUTANT")
            live = yield from client.read("/var", 0, 6)
            # checkpoint section 2 = linked chunk at chunk-aligned offset
            frozen = yield from client.read("/ckpt", CHUNK_SIZE, 6)
            return live, frozen

        live, frozen = run(engine, proc())
        assert live == b"MUTANT"
        assert frozen == b"frozen"

    def test_cow_on_unshared_rejected(self, engine, store, client):
        def proc():
            yield from client.create("/var", CHUNK_SIZE)

        run(engine, proc())
        with pytest.raises(StoreError):
            store.cow_chunk("/var", 0)

    def test_delete_var_keeps_checkpoint(self, engine, store, client):
        def proc():
            yield from client.create("/var", CHUNK_SIZE)
            yield from client.write("/var", 0, b"persist")
            yield from client.create("/ckpt", CHUNK_SIZE)
            store.link_chunks("/ckpt", "/var")
            yield from client.delete("/var")
            return (yield from client.read("/ckpt", CHUNK_SIZE, 7))

        assert run(engine, proc()) == b"persist"

    def test_refcount_lifecycle(self, engine, store, client):
        def proc():
            yield from client.create("/var", CHUNK_SIZE)
            yield from client.write("/var", 0, b"x")
            chunk_id = store.lookup("/var").chunk_ids[0]
            yield from client.create("/ck", CHUNK_SIZE)
            store.link_chunks("/ck", "/var")
            assert store.chunk_refcount(chunk_id) == 2
            yield from client.delete("/var")
            assert store.chunk_refcount(chunk_id) == 1
            yield from client.delete("/ck")
            with pytest.raises(ChunkNotFoundError):
                store.chunk_refcount(chunk_id)

        run(engine, proc())


class TestStriping:
    def test_local_first(self, engine, small_cluster):
        manager = Manager(small_cluster.node(0))
        manager.striping = LocalFirstStriping()
        for node in small_cluster.nodes:
            manager.register_benefactor(Benefactor(node, contribution=4 * MiB))
        client = StoreClient(small_cluster.node(1), manager)

        def proc():
            yield from client.create("/f", 4 * CHUNK_SIZE)

        run(engine, proc())
        local = next(
            b for b in manager.benefactors() if b.name == "node001"
        )
        assert local.reserved == 4 * CHUNK_SIZE

    def test_local_first_spills(self, engine, small_cluster):
        manager = Manager(small_cluster.node(0))
        manager.striping = LocalFirstStriping()
        for node in small_cluster.nodes:
            manager.register_benefactor(
                Benefactor(node, contribution=2 * CHUNK_SIZE)
            )
        client = StoreClient(small_cluster.node(1), manager)

        def proc():
            yield from client.create("/f", 4 * CHUNK_SIZE)

        run(engine, proc())
        local = next(b for b in manager.benefactors() if b.name == "node001")
        assert local.reserved == 2 * CHUNK_SIZE  # filled, rest spread

    def test_a_local_first_overflow_reserves_nothing(self, small_cluster):
        """Only the client's own benefactor online, with room for 2 of 3
        chunks: placement refuses the file before any reservation.  It
        used to spread the rest over that same full benefactor, and the
        third reservation failed after two chunks were admitted, leaving
        their space reserved and their rows owned by no file."""
        manager = Manager(small_cluster.node(0))
        manager.striping = LocalFirstStriping()
        local = Benefactor(small_cluster.node(1), contribution=2 * CHUNK_SIZE)
        manager.register_benefactor(local)
        with pytest.raises(StoreError, match="aggregate store full"):
            manager.create_file("/f", 3 * CHUNK_SIZE, client="node001")
        assert local.reserved == 0
        assert not manager.exists("/f")
        assert manager._chunks == {}

    def test_no_online_benefactors(self):
        with pytest.raises(StoreError):
            RoundRobinStriping().place([], 1, CHUNK_SIZE, "x")

    #: ``(contribution, reserved)`` in chunks, per node: budgets that run
    #: out mid-placement, so the round-robin cursor skips full benefactors.
    SHAPE = [(6, 0), (8, 2), (2, 0), (5, 1)]

    @pytest.mark.parametrize(
        ("policy", "replication", "client", "chunks", "offline", "expected"),
        [
            ("rr", 1, 1, 5, None, ["0", "1", "2", "3", "0"]),
            ("rr", 1, 3, 7, 0, ["1", "2", "3", "1", "2", "3", "1"]),
            ("rr", 1, 0, 9, 1, ["0", "2", "3", "0", "2", "3", "0", "3", "0"]),
            ("rr", 2, 1, 5, None, ["01", "12", "23", "30", "01"]),
            ("rr", 2, 2, 3, None, ["01", "12", "23"]),
            ("rr", 2, 3, 7, 0, ReplicationError),
            ("local", 1, 1, 5, None, ["1", "1", "1", "1", "1"]),
            ("local", 1, 3, 7, 0, ["3", "3", "3", "3", "1", "2", "1"]),
            ("local", 1, 0, 9, 1, ["0", "0", "0", "0", "0", "0", "2", "3", "2"]),
            ("local", 2, 1, 5, None, ["10", "12", "13", "10", "12"]),
            ("local", 2, 2, 3, None, ["20", "21", "03"]),
            ("local", 2, 0, 9, 1, ReplicationError),
        ],
    )
    def test_placement_table(
        self, small_cluster, policy, replication, client, chunks, offline, expected
    ):
        """Replica groups by node digit, primary first, for both policies
        at replication 1 and 2: a budget is ``available // chunk_size``
        however it is read."""
        benefactors = []
        for index, (node, (contribution, reserved)) in enumerate(
            zip(small_cluster.nodes, self.SHAPE)
        ):
            b = Benefactor(node, contribution=contribution * CHUNK_SIZE)
            if reserved:
                b.reserve(reserved * CHUNK_SIZE)
            b.online = index != offline
            benefactors.append(b)
        striping = RoundRobinStriping() if policy == "rr" else LocalFirstStriping()

        def place():
            return striping.place_replicas(
                benefactors, chunks, CHUNK_SIZE, f"node00{client}", replication
            )

        if expected is ReplicationError:
            with pytest.raises(ReplicationError):
                place()
        else:
            groups = ["".join(b.name[-1] for b in group) for group in place()]
            assert groups == expected

    def test_a_tight_placement_places(self, small_cluster):
        """Room for 3, 4, 1 and 3 chunks, round-robin at replication 2, 3
        chunks from node 2: 6 slots needed, 11 free.  The greedy pass in
        chunk order gives node 2's one slot to chunk 1's replica, and
        chunk 2's primary was placed there; every chunk then goes where
        the most room is left, its primary first when it is there.  Its
        own test, not a row: ``test_placement_table``'s budgets are one
        shape for every row, and were chosen to avoid this one."""
        benefactors = [
            Benefactor(node, contribution=room * CHUNK_SIZE)
            for node, room in zip(small_cluster.nodes, (3, 4, 1, 3))
        ]
        groups = RoundRobinStriping().place_replicas(
            benefactors, 3, CHUNK_SIZE, "node002", 2
        )
        assert ["".join(b.name[-1] for b in group) for group in groups] == [
            "01", "13", "01",
        ]  # fmt: skip


def _exhaustive_placement(rooms, chunks, replication):
    """Some replica groups (index tuples) for ``chunks`` chunks on bins of
    ``rooms`` free slots, found by trying every group for every chunk, or
    None when no placement fits."""
    groups = list(itertools.combinations(range(len(rooms)), replication))

    def search(left, rooms):
        if left == 0:
            return []
        for group in groups:
            if all(rooms[i] > 0 for i in group):
                rest = search(
                    left - 1, [room - (i in group) for i, room in enumerate(rooms)]
                )
                if rest is not None:
                    return [group, *rest]
        return None

    return search(chunks, list(rooms))


@pytest.fixture(scope="module")
def five_nodes():
    """Five SSD-equipped nodes to stand benefactors on (placement only)."""
    config = HalConfig(
        num_nodes=5, cores_per_node=1, dram_per_node=16 * MiB, ssd_per_node=64 * MiB
    )
    return make_hal_cluster(Engine(), config).nodes


@fuzz_settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    bins=st.lists(
        st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=5
    ),
    chunks=st.integers(1, 4),
    replication=st.integers(1, 3),
    policy=st.sampled_from(["rr", "local"]),
    client=st.integers(0, 4),
)
def test_placement_fits_whenever_an_exhaustive_search_does(
    five_nodes, bins, chunks, replication, policy, client
):
    """Up to 5 benefactors (``(room in chunks, online)``) x 4 chunks x
    replication 3: ``place_replicas`` finds a placement exactly when
    trying every replica group of every chunk finds one, and what it
    finds keeps the groups distinct, online and within each budget."""
    benefactors = []
    for node, (room, online) in zip(five_nodes, bins):
        b = Benefactor(node, contribution=(room + 1) * CHUNK_SIZE)
        b.reserve(CHUNK_SIZE)
        b.online = online
        benefactors.append(b)
    up = [b for b in benefactors if b.online]
    rooms = {b.name: room for b, (room, online) in zip(benefactors, bins) if online}
    exhaustive = (
        _exhaustive_placement(list(rooms.values()), chunks, replication)
        if len(up) >= replication
        else None
    )
    striping = RoundRobinStriping() if policy == "rr" else LocalFirstStriping()

    def place():
        return striping.place_replicas(
            benefactors, chunks, CHUNK_SIZE, f"node00{client}", replication
        )

    if exhaustive is None:
        with pytest.raises(StoreError):
            place()
        return
    groups = place()
    assert len(groups) == chunks
    used = dict.fromkeys(rooms, 0)
    for group in groups:
        assert len({b.name for b in group}) == len(group) == replication
        for b in group:
            assert b.online
            used[b.name] += 1
    assert all(used[name] <= rooms[name] for name in rooms)


# ----------------------------------------------------------------------
# Property-based: the store behaves like a byte array.
# ----------------------------------------------------------------------

@fuzz_settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * CHUNK_SIZE - 1),
            st.binary(min_size=1, max_size=2000),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_store_matches_bytearray(engine, client, ops):
    size = 3 * CHUNK_SIZE
    reference = bytearray(size)
    name = f"/prop/{id(ops)}"

    def proc():
        yield from client.create(name, size)
        for offset, payload in ops:
            payload = payload[: size - offset]
            yield from client.write(name, offset, payload)
            reference[offset : offset + len(payload)] = payload
        whole = yield from client.read(name, 0, size)
        yield from client.delete(name)
        return whole

    assert run(engine, proc()) == bytes(reference)
