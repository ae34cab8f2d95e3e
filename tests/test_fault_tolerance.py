"""Fault tolerance: replication, failover, re-replication, data loss."""

import pytest

from repro.errors import (
    BenefactorDownError,
    CheckpointError,
    ChunkUnavailableError,
    ReplicationError,
    StoreError,
)
from repro.faults import BenefactorCrash, FaultPlan, TransientSlowdown
from repro.store import CHUNK_SIZE, Benefactor, Manager, StoreClient
from repro.store.benefactor import ChunkPayload
from repro.util.units import MiB
from tests.conftest import run


@pytest.fixture
def rstore(small_cluster):
    """Replicated aggregate store (r=2) over the 4-node cluster."""
    manager = Manager(small_cluster.node(0), replication=2)
    for node in small_cluster.nodes:
        manager.register_benefactor(Benefactor(node, contribution=16 * MiB))
    return manager


@pytest.fixture
def rclient(small_cluster, rstore):
    return StoreClient(small_cluster.node(1), rstore)


class TestReplicatedPlacement:
    def test_replicas_distinct_and_accounted(self, engine, rstore, rclient):
        def proc():
            return (yield from rclient.create("/f", 4 * CHUNK_SIZE))

        meta = run(engine, proc())
        for chunk_id in meta.chunk_ids:
            replicas = rstore.chunk_replicas(chunk_id)
            assert len(replicas) == 2
            assert len({b.name for b in replicas}) == 2
        # Capacity is accounted per replica: every copy debits its host.
        reserved = sum(b.reserved for b in rstore.benefactors())
        assert reserved == 2 * 4 * CHUNK_SIZE

    def test_r1_is_single_replica(self, engine, store, client):
        def proc():
            return (yield from client.create("/f", 2 * CHUNK_SIZE))

        meta = run(engine, proc())
        for chunk_id in meta.chunk_ids:
            assert len(store.chunk_replicas(chunk_id)) == 1
        assert sum(b.reserved for b in store.benefactors()) == 2 * CHUNK_SIZE

    def test_too_few_benefactors_rejected(self, engine, small_cluster):
        manager = Manager(small_cluster.node(0), replication=2)
        manager.register_benefactor(
            Benefactor(small_cluster.node(0), contribution=16 * MiB)
        )
        client = StoreClient(small_cluster.node(1), manager)

        def proc():
            yield from client.create("/f", CHUNK_SIZE)

        with pytest.raises(ReplicationError):
            run(engine, proc())

    def test_bad_replication_degree_rejected(self, small_cluster):
        with pytest.raises(StoreError):
            Manager(small_cluster.node(0), replication=0)


class TestFailover:
    def test_read_fails_over_to_surviving_replica(
        self, engine, small_cluster, rstore, rclient
    ):
        payload = b"replicated bytes" * 512

        def proc():
            yield from rclient.create("/f", CHUNK_SIZE)
            yield from rclient.write("/f", 0, payload)
            _, preferred = rstore.resolve_chunk("/f", 0, client="node001")
            preferred.crash()
            return (yield from rclient.read("/f", 0, len(payload)))

        assert run(engine, proc()) == payload
        metrics = small_cluster.metrics
        assert metrics.count("store.client.retries") >= 1
        # The failure report forfeited the crashed benefactor's space.
        crashed = [b for b in rstore.benefactors() if b.crashed]
        assert crashed and all(b.reserved == 0 for b in crashed)

    def test_write_fails_over_and_data_survives(
        self, engine, rstore, rclient
    ):
        payload = b"written after crash" * 256

        def proc():
            yield from rclient.create("/f", CHUNK_SIZE)
            chunk_id = rstore.lookup("/f").chunk_ids[0]
            rstore.chunk_replicas(chunk_id)[0].crash()
            yield from rclient.write("/f", 64, payload)
            return (yield from rclient.read("/f", 64, len(payload)))

        assert run(engine, proc()) == payload

    def test_r1_crash_raises_chunk_unavailable(self, engine, store, client):
        def proc():
            yield from client.create("/f", CHUNK_SIZE)
            yield from client.write("/f", 0, b"doomed")
            _, owner = store.resolve_chunk("/f", 0)
            owner.crash()
            yield from client.read("/f", 0, 6)

        with pytest.raises(ChunkUnavailableError):
            run(engine, proc())
        assert store.metrics.value("store.manager.chunks_lost") >= 1

    def test_a_chunk_is_declared_lost_once(self, engine, rstore, rclient):
        """Both replicas crash before either is forfeited: the second
        forfeit finds the chunk already lost and must not count it again
        nor forget where the first replica used to live."""
        run(engine, rclient.create("/f", CHUNK_SIZE))
        (chunk_id,) = rstore.lookup("/f").chunk_ids
        replicas = rstore.chunk_replicas(chunk_id)
        generation = rstore.lookup("/f").generation
        for benefactor in replicas:
            benefactor.crash()
        for benefactor in replicas:
            rstore.mark_offline(benefactor.name)
        assert rstore.metrics.value("store.manager.chunks_lost") == 1
        assert rstore.lost_replicas(chunk_id) == tuple(sorted(b.name for b in replicas))
        assert rstore.lookup("/f").generation == generation + 1

    def test_admin_offline_keeps_reservations_and_data(
        self, engine, store, client
    ):
        def proc():
            yield from client.create("/f", CHUNK_SIZE)
            yield from client.write("/f", 0, b"still here")
            return store.resolve_chunk("/f", 0)

        _, owner = run(engine, proc())
        reserved = owner.reserved
        store.mark_offline(owner.name)  # administrative: not crashed
        assert owner.reserved == reserved
        with pytest.raises(BenefactorDownError):
            store.resolve_chunk("/f", 0)
        store.mark_online(owner.name)
        store.resolve_chunk("/f", 0)

        def readback():
            return (yield from client.read("/f", 0, 10))

        assert run(engine, readback()) == b"still here"


class TestRereplication:
    def _crash_and_detect(self, engine, rstore, victim):
        victim.crash()

        def detect():
            return (yield from rstore.monitor(0.01, rounds=1))

        assert run(engine, detect()) == 1

    def test_degree_restored_with_reservations_moved(
        self, engine, rstore, rclient
    ):
        def proc():
            yield from rclient.create("/f", 4 * CHUNK_SIZE)
            yield from rclient.write("/f", 0, b"x" * 4 * CHUNK_SIZE)

        run(engine, proc())
        meta = rstore.lookup("/f")
        victim = rstore.chunk_replicas(meta.chunk_ids[0])[0]
        held = victim.reserved
        assert held > 0
        self._crash_and_detect(engine, rstore, victim)
        assert victim.reserved == 0  # forfeited space released

        def repair():
            return (yield from rstore.rereplicate_pending())

        repaired = run(engine, repair())
        assert repaired == held // CHUNK_SIZE
        assert rstore.under_replicated() == ()
        assert rstore.rereplication_pending == 0
        for chunk_id in meta.chunk_ids:
            replicas = rstore.chunk_replicas(chunk_id)
            assert len(replicas) == 2
            assert victim not in replicas
        # The re-replication targets now hold the moved reservations.
        live_reserved = sum(b.reserved for b in rstore.benefactors())
        assert live_reserved == 2 * 4 * CHUNK_SIZE
        metrics = rstore.metrics
        assert metrics.value("store.manager.chunks_rereplicated") == repaired
        assert metrics.value("store.manager.rereplication_bytes") > 0

    def test_repaired_replica_serves_reads(self, engine, rstore, rclient):
        payload = b"survives two crashes" * 128

        def proc():
            yield from rclient.create("/f", CHUNK_SIZE)
            yield from rclient.write("/f", 0, payload)

        run(engine, proc())
        chunk_id = rstore.lookup("/f").chunk_ids[0]
        original = set(rstore.chunk_replicas(chunk_id))
        self._crash_and_detect(engine, rstore, rstore.chunk_replicas(chunk_id)[0])

        def repair():
            yield from rstore.rereplicate_pending()

        run(engine, repair())
        # Kill the surviving original too: only the repaired copy remains.
        survivor = next(
            b for b in rstore.chunk_replicas(chunk_id) if b in original
        )
        self._crash_and_detect(engine, rstore, survivor)

        def readback():
            return (yield from rclient.read("/f", 0, len(payload)))

        assert run(engine, readback()) == payload

    def test_write_during_fill_not_clobbered(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)
        snapshot = ChunkPayload(CHUNK_SIZE)
        snapshot.write(0, bytes([7]) * CHUNK_SIZE)

        def proc():
            b.begin_fill(1)
            # A write-through lands while the bulk copy is in flight...
            yield from b.store_chunk("node001", 1, b"NEW!", offset=0)
            # ...then the copy's (stale at [0, 4)) snapshot arrives.
            yield from b.complete_fill(1, snapshot)
            return (yield from b.fetch_chunk("node001", 1, 0, 8))

        assert run(engine, proc()) == b"NEW!" + bytes([7]) * 4

    def test_no_target_stalls_until_capacity_returns(
        self, engine, small_cluster
    ):
        # Two benefactors, r=2: a crash leaves no fresh target.
        manager = Manager(small_cluster.node(0), replication=2)
        for node in small_cluster.nodes[:2]:
            manager.register_benefactor(Benefactor(node, contribution=16 * MiB))
        client = StoreClient(small_cluster.node(1), manager)

        def proc():
            yield from client.create("/f", CHUNK_SIZE)
            yield from client.write("/f", 0, b"parked")

        run(engine, proc())
        victim = manager.benefactors()[0]
        victim.crash()

        def detect_and_drain():
            yield from manager.monitor(0.01, rounds=1)
            yield from manager.rereplicate_pending()

        run(engine, detect_and_drain())
        assert manager.rereplication_stalled == 1
        assert manager.under_replicated() != ()
        # Capacity returns: a fresh benefactor re-queues the stalled chunk.
        manager.register_benefactor(
            Benefactor(small_cluster.node(2), contribution=16 * MiB)
        )

        def drain():
            yield from manager.rereplicate_pending()

        run(engine, drain())
        assert manager.rereplication_stalled == 0
        assert manager.under_replicated() == ()


class TestCheckpointUnderFaults:
    def test_lost_chunk_fails_checkpoint_with_lost_set(
        self, engine, small_cluster, store, nvmalloc
    ):
        def alloc():
            return (yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE, owner="t"))

        variable = run(engine, alloc())
        chunk_id = store.lookup(variable.backing_path).chunk_ids[0]
        owner = store.chunk_replicas(chunk_id)[0]
        owner.crash()
        store.mark_offline(owner.name)  # r=1: chunk is now lost
        assert chunk_id in store.lost_chunks(variable.backing_path)

        def ckpt():
            yield from nvmalloc.ssdcheckpoint("app", 0, b"d", [("v", variable)])

        with pytest.raises(CheckpointError) as excinfo:
            run(engine, ckpt())
        (lost,) = excinfo.value.lost_chunks
        assert lost.chunk_id == chunk_id
        assert lost.epoch == 0
        assert lost.replicas == (owner.name,)

    def test_degraded_but_readable_checkpoint_succeeds(
        self, engine, small_cluster, rstore
    ):
        from repro.core import NVMalloc
        from repro.util.units import KiB

        lib = NVMalloc(
            small_cluster.node(1),
            rstore,
            fuse_cache_bytes=1 * MiB,
            page_cache_bytes=512 * KiB,
        )

        def proc():
            variable = yield from lib.ssdmalloc(CHUNK_SIZE, owner="t")
            yield from variable.write(0, b"degraded but alive")
            chunk_id = rstore.lookup(variable.backing_path).chunk_ids[0]
            rstore.chunk_replicas(chunk_id)[0].crash()
            yield from rstore.monitor(0.01, rounds=1)
            record = yield from lib.ssdcheckpoint(
                "app", 0, b"d", [("v", variable)]
            )
            dram, variables = yield from lib.restore("app", 0)
            return record, dram, variables["v"][:18]

        record, dram, head = run(engine, proc())
        assert dram == b"d"
        assert head == b"degraded but alive"
        assert record.bytes_linked == CHUNK_SIZE

    def test_restore_after_crash_rides_failover(self, engine, small_cluster, rstore):
        """r=2: a cold restart restores through the surviving replicas."""
        from repro.core import NVMalloc
        from repro.util.units import KiB

        lib = NVMalloc(
            small_cluster.node(1),
            rstore,
            fuse_cache_bytes=1 * MiB,
            page_cache_bytes=512 * KiB,
        )

        def proc():
            variable = yield from lib.ssdmalloc(2 * CHUNK_SIZE, owner="t")
            yield from variable.write(0, b"survives the crash")
            record = yield from lib.ssdcheckpoint("app", 0, b"d", [("v", variable)])
            victim = rstore.chunk_replicas(
                rstore.lookup(record.path).chunk_ids[-1]
            )[0]
            victim.crash()
            yield from rstore.monitor(0.01, rounds=1)
            # A restarted context: cold caches, no client-side records —
            # restore resolves purely against the manager's commit chain.
            restarted = NVMalloc(
                small_cluster.node(2),
                rstore,
                fuse_cache_bytes=256 * KiB,
                page_cache_bytes=256 * KiB,
            )
            dram, variables = yield from restarted.restore("app", 0)
            return dram, variables["v"][:18]

        dram, head = run(engine, proc())
        assert dram == b"d"
        assert head == b"survives the crash"
        assert rstore.metrics.value("store.manager.benefactors_failed") >= 1

    def test_r1_crash_restore_raises_typed_error(
        self, engine, small_cluster, store, nvmalloc
    ):
        """r=1: losing the only replica fails restores with loss details."""
        from repro.core import NVMalloc
        from repro.errors import RestoreError
        from repro.util.units import KiB

        def proc():
            variable = yield from nvmalloc.ssdmalloc(CHUNK_SIZE, owner="t")
            yield from variable.write(0, b"doomed")
            record = yield from nvmalloc.ssdcheckpoint(
                "app", 0, b"d", [("v", variable)]
            )
            victims = {
                b.name: b
                for chunk_id in store.lookup(record.path).chunk_ids
                for b in store.chunk_replicas(chunk_id)
            }
            for victim in victims.values():
                victim.crash()
                store.mark_offline(victim.name)
            restarted = NVMalloc(
                small_cluster.node(2),
                store,
                fuse_cache_bytes=256 * KiB,
                page_cache_bytes=256 * KiB,
            )
            yield from restarted.restore("app", 0)

        with pytest.raises(RestoreError) as excinfo:
            run(engine, proc())
        assert excinfo.value.epoch == 0
        assert excinfo.value.lost_chunks
        for lost in excinfo.value.lost_chunks:
            assert lost.epoch == 0
            assert lost.replicas  # names the replica set that held it

    def test_gc_free_deferred_behind_inflight_repair(
        self, engine, small_cluster, rstore
    ):
        """Chain GC of a chunk mid-re-replication defers the physical free
        until the fill settles: GC never races repair."""
        from repro.core import NVMalloc
        from repro.util.units import KiB

        lib = NVMalloc(
            small_cluster.node(1),
            rstore,
            fuse_cache_bytes=1 * MiB,
            page_cache_bytes=512 * KiB,
        )
        observed = {}

        def proc():
            variable = yield from lib.ssdmalloc(CHUNK_SIZE, owner="t")
            yield from variable.write(0, b"repair me")
            for step in range(2):
                yield from lib.ssdcheckpoint(
                    "app", step, b"d%d" % step, [("v", variable)], mode="full"
                )
            old = rstore.epoch_record("app", 0)
            chunk_id = rstore.lookup(old.path).chunk_ids[-1]
            rstore.chunk_replicas(chunk_id)[0].crash()
            yield from rstore.monitor(0.01, rounds=1)
            repair = engine.process(rstore.rereplicate_pending())
            # The repair queue holds every chunk the crash degraded; poll
            # until the fill of *our* chunk is in flight.
            for _ in range(100_000):
                if any(
                    b.filling(chunk_id)
                    for b in rstore.chunk_replicas(chunk_id)
                ):
                    break
                yield engine.timeout(1e-6)
            else:
                raise AssertionError("fill never started")
            reclaimed = yield from lib.gc_checkpoints("app", keep_last=1)
            observed["deferred"] = chunk_id in rstore._deferred_release
            observed["still_known"] = rstore.chunk_known(chunk_id)
            yield repair
            observed["reclaimed_then"] = reclaimed
            observed["known_after"] = rstore.chunk_known(chunk_id)

        run(engine, proc())
        assert observed["deferred"] is True
        assert observed["still_known"] is True  # data intact under the fill
        assert observed["known_after"] is False  # freed once the fill settled
        # The deferred free still counts as GC reclamation.
        assert rstore.metrics.value("store.manager.gc_reclaimed_bytes") > 0
        assert rstore.under_replicated() == ()


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        names = ["node000", "node001", "node002", "node003"]
        one = FaultPlan.seeded(42, names, crashes=2, slowdowns=1)
        two = FaultPlan.seeded(42, names, crashes=2, slowdowns=1)
        assert one == two
        crash_victims = [
            e.benefactor for e in one.events if isinstance(e, BenefactorCrash)
        ]
        assert len(set(crash_victims)) == 2  # without replacement
        for event in one.events:
            assert 0.25 <= event.at <= 1.0  # default window

    def test_too_many_crashes_rejected(self):
        with pytest.raises(StoreError):
            FaultPlan.seeded(1, ["a"], crashes=2)

    def test_inject_applies_at_virtual_times(self, engine, store):
        victim = store.benefactors()[2]
        slowed = store.benefactors()[3]
        plan = FaultPlan(
            events=(
                BenefactorCrash(at=0.5, benefactor=victim.name),
                TransientSlowdown(
                    at=0.2, benefactor=slowed.name,
                    duration=0.3, extra_per_op=0.01,
                ),
            )
        )
        engine.process(plan.inject(store))

        def probe():
            yield engine.timeout(0.4)
            assert not victim.crashed  # crash is at 0.5, not yet
            assert slowed._slow_until == pytest.approx(0.5)
            yield engine.timeout(0.2)
            assert victim.crashed

        run(engine, probe())

    def test_inject_unknown_benefactor_rejected(self, engine, store):
        plan = FaultPlan(events=(BenefactorCrash(at=0.1, benefactor="ghost"),))
        with pytest.raises(StoreError):
            run(engine, plan.inject(store))

    def test_slowdown_charges_extra_time(self, engine, small_cluster):
        b = Benefactor(small_cluster.node(0), contribution=1 * MiB)

        def proc():
            yield from b.store_chunk("node001", 1, b"x" * 4096)
            b.slow_down(engine.now + 1.0, 0.25)
            before = engine.now
            yield from b.fetch_chunk("node001", 1, 0, 4096)
            slow = engine.now - before
            yield engine.timeout(1.0)  # slowdown expired
            before = engine.now
            yield from b.fetch_chunk("node001", 1, 0, 4096)
            return slow, engine.now - before

        slow, fast = run(engine, proc())
        assert slow - fast == pytest.approx(0.25)


class TestCrashInPhase:
    NAMES = ["node000", "node001", "node002", "node003"]
    WINDOWS = {"ckpt1": (10.0, 20.0), "restore": (30.0, 31.0)}

    def test_events_land_inside_named_phase(self):
        plan = FaultPlan.crash_in_phase(
            7, self.NAMES, self.WINDOWS, "ckpt1", position=(0.5, 1.0)
        )
        assert len(plan.events) == 1
        (event,) = plan.events
        assert isinstance(event, BenefactorCrash)
        assert 15.0 <= event.at <= 20.0  # narrowed to the back half

    def test_deterministic_for_seed(self):
        one = FaultPlan.crash_in_phase(42, self.NAMES, self.WINDOWS, "restore")
        two = FaultPlan.crash_in_phase(42, self.NAMES, self.WINDOWS, "restore")
        assert one == two

    def test_unknown_phase_rejected(self):
        with pytest.raises(StoreError, match="unknown phase"):
            FaultPlan.crash_in_phase(1, self.NAMES, self.WINDOWS, "ghost")

    def test_inverted_window_rejected(self):
        with pytest.raises(StoreError, match="inverted"):
            FaultPlan.crash_in_phase(1, self.NAMES, {"p": (5.0, 4.0)}, "p")

    def test_bad_position_rejected(self):
        with pytest.raises(StoreError):
            FaultPlan.crash_in_phase(
                1, self.NAMES, self.WINDOWS, "ckpt1", position=(0.9, 0.1)
            )
