"""Tests for the aggregate NVM store: benefactor, manager, client."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    BenefactorDownError,
    CapacityError,
    ChunkNotFoundError,
    FileExistsInStoreError,
    FileNotFoundInStoreError,
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
from repro.util.units import KiB, MiB
from tests.conftest import run


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

    def test_no_online_benefactors(self):
        with pytest.raises(StoreError):
            RoundRobinStriping().place([], 1, CHUNK_SIZE, "x")


# ----------------------------------------------------------------------
# Property-based: the store behaves like a byte array.
# ----------------------------------------------------------------------

@settings(
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
