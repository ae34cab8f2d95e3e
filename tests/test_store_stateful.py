"""Stateful property test of the aggregate store's metadata machine.

Hypothesis drives random sequences of create / extend / write / read /
link / delete operations and checkpoint-epoch begin / commit / retire /
drop against a reference model: files as byte arrays, linked checkpoints
as frozen chunk snapshots, and a tag's epoch chain as a dict of parent
links.  After every rule the manager's redundant tables (refcounts,
reverse indexes, reservations, parent links) must agree with each other
and with the model.  ``StoreMachine`` interleaves all thirteen rules;
``EpochChainMachine`` runs the epoch rules alone over the same world and
the same invariants, because thirty rules drawn from thirteen rarely
hold the begin, commit, begin, retire that re-parents a child: a splice
that forgot to survived the full machine two runs in five.
"""

from collections import Counter

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.sim import Engine
from repro.store import CHUNK_SIZE, Benefactor, Manager, StoreClient
from repro.util.units import MiB

MAX_FILE_CHUNKS = 3
TAG = "sm"


class StoreWorld(RuleBasedStateMachine):
    """One small store, its model, and the invariants both machines check
    after every rule; the one rule every scenario needs."""

    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine()
        cluster = make_hal_cluster(
            self.engine,
            HalConfig(num_nodes=3, cores_per_node=2, dram_per_node=8 * MiB,
                      ssd_per_node=32 * MiB),
        )
        self.manager = Manager(cluster.node(0))
        for node in cluster.nodes:
            self.manager.register_benefactor(
                Benefactor(node, contribution=8 * MiB)
            )
        self.client = StoreClient(cluster.node(1), self.manager)
        self.model: dict[str, bytearray] = {}
        # checkpoint name -> (whole-chunk snapshots it links, logical size)
        self.frozen: dict[str, tuple[bytes, int]] = {}
        # epoch -> {"parent", "committed", "path"}: the chain of TAG.
        self.epochs: dict[int, dict] = {}
        self.counter = 0

    def _run(self, generator):
        return self.engine.run(self.engine.process(generator))

    def _chunk_snapshot(self, src: str, index: int) -> bytes:
        """Chunk ``index`` of a model file, zero-padded to a whole chunk."""
        piece = self.model[src][index * CHUNK_SIZE : (index + 1) * CHUNK_SIZE]
        return bytes(piece).ljust(CHUNK_SIZE, b"\0")

    def _new_checkpoint(self, src: str) -> str:
        """A fresh checkpoint file linking every chunk of ``src``."""
        ck = f"/ck/{self.counter}"
        self.counter += 1
        self._run(self.client.create(ck, 0))
        self.manager.link_chunks(ck, src)
        size = len(self.model[src])
        chunks = -(-size // CHUNK_SIZE)
        image = b"".join(self._chunk_snapshot(src, i) for i in range(chunks))
        self.frozen[ck] = (image, size)
        return ck

    def _epoch_paths(self) -> set[str]:
        return {e["path"] for e in self.epochs.values()}

    def _loose_checkpoints(self) -> list[str]:
        """Checkpoint files no live epoch owns (free to append or delete)."""
        return sorted(set(self.frozen) - self._epoch_paths())

    def _splice(self, epoch: int) -> dict:
        gone = self.epochs.pop(epoch)
        for other in self.epochs.values():
            if other["parent"] == epoch:
                other["parent"] = gone["parent"]
        return gone

    def _committed_ancestor(self, epoch: int | None) -> int | None:
        while epoch is not None and not self.epochs[epoch]["committed"]:
            epoch = self.epochs[epoch]["parent"]
        return epoch

    # ------------------------------------------------------------------
    @rule(nchunks=st.integers(min_value=1, max_value=MAX_FILE_CHUNKS))
    def create_file(self, nchunks):
        name = f"/sm/{self.counter}"
        self.counter += 1
        size = nchunks * CHUNK_SIZE
        self._run(self.client.create(name, size))
        self.model[name] = bytearray(size)

    # ------------------------------------------------------------------
    @invariant()
    def chunk_tables_agree(self):
        """Refcounts, the chunk -> files index and the benefactor -> chunks
        index are all derivable from the file table and the replica lists."""
        manager = self.manager
        slots: Counter[int] = Counter()
        naming: dict[int, set[str]] = {}
        for name, meta in manager.files.items():
            for chunk_id in meta.chunk_ids:
                slots[chunk_id] += 1
                naming.setdefault(chunk_id, set()).add(name)
        assert manager._chunk_refs == dict(slots)  # noqa: SLF001
        assert manager._chunk_files == naming  # noqa: SLF001
        holding: dict[str, set[int]] = {}
        for chunk_id, replicas in manager._chunk_replicas.items():  # noqa: SLF001
            assert chunk_id in slots and len(replicas) == manager.replication
            for benefactor in replicas:
                holding.setdefault(benefactor.name, set()).add(chunk_id)
        indexed = {
            name: chunks
            for name, chunks in manager._benefactor_chunks.items()  # noqa: SLF001
            if chunks
        }
        assert indexed == holding
        for benefactor in manager.benefactors():
            held = len(holding.get(benefactor.name, ()))
            assert benefactor.reserved == held * CHUNK_SIZE

    @invariant()
    def epoch_chain_matches_model(self):
        """Every parent link is absent or names a committed epoch still in
        the chain, and restore / GC resolve as the model's walk does."""
        manager = self.manager
        assert set(manager._epochs.get(TAG, ())) == set(self.epochs)  # noqa: SLF001
        committed = tuple(sorted(e for e, r in self.epochs.items() if r["committed"]))
        assert manager.committed_epochs(TAG) == committed
        for epoch, expected in self.epochs.items():
            record = manager.epoch_record(TAG, epoch)
            assert (record.parent, record.committed, record.path) == (
                expected["parent"], expected["committed"], expected["path"],
            )
            parent = record.parent
            assert parent is None or self.epochs[parent]["committed"]
            assert manager.resolve_restore_epoch(TAG, epoch) == (
                self._committed_ancestor(epoch)
            )
        shielded = {
            self._committed_ancestor(e)
            for e, r in self.epochs.items() if not r["committed"]
        }
        for keep_last in (0, 1):
            eligible = committed[: len(committed) - keep_last]
            assert manager.gc_candidates(TAG, keep_last=keep_last) == tuple(
                e for e in eligible if e not in shielded
            )

    @invariant()
    def no_space_leak_when_empty(self):
        if not self.model and not self.frozen:
            assert self.manager.total_available() == self.manager.total_capacity()


class FileRules:
    """The store must behave like named byte arrays with chunk linking."""

    @precondition(lambda self: self.model)
    @rule(data=st.data(), nbytes=st.integers(1, 2 * CHUNK_SIZE))
    def extend_file(self, data, nbytes):
        """Append freshly reserved space, starting on a chunk boundary."""
        name = data.draw(st.sampled_from(sorted(self.model)))
        image = self.model[name]
        image.extend(bytes(-len(image) % CHUNK_SIZE))
        offset = self.manager.extend_file(name, nbytes, client=self.client.client_name)
        assert offset == len(image)
        image.extend(bytes(nbytes))
        assert self.manager.lookup(name).size == len(image)

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        offset_frac=st.floats(0, 1),
        payload=st.binary(min_size=1, max_size=3000),
    )
    def write(self, data, offset_frac, payload):
        name = data.draw(st.sampled_from(sorted(self.model)))
        size = len(self.model[name])
        offset = min(int(offset_frac * size), size - 1)
        payload = payload[: size - offset]
        self._run(self.client.write(name, offset, payload))
        self.model[name][offset : offset + len(payload)] = payload

    @precondition(lambda self: self.frozen)
    @rule(data=st.data())
    def read_checkpoint(self, data):
        ck = data.draw(st.sampled_from(sorted(self.frozen)))
        image, size = self.frozen[ck]
        assert self.manager.lookup(ck).size == size
        got = self._run(self.client.read(ck, 0, size))
        assert got == image[:size], "linked checkpoint image changed"

    @precondition(lambda self: self.model)
    @rule(data=st.data(), offset_frac=st.floats(0, 1), length=st.integers(1, 5000))
    def read(self, data, offset_frac, length):
        name = data.draw(st.sampled_from(sorted(self.model)))
        size = len(self.model[name])
        offset = min(int(offset_frac * size), size - 1)
        length = min(length, size - offset)
        got = self._run(self.client.read(name, offset, length))
        assert got == bytes(self.model[name][offset : offset + length])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def checkpoint_link(self, data):
        """Create a checkpoint file linking an existing file's chunks."""
        self._new_checkpoint(data.draw(st.sampled_from(sorted(self.model))))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), payload_frac=st.floats(0, 1))
    def link_one_chunk(self, data, payload_frac):
        """Append one chunk of a live file to a new or loose checkpoint."""
        src = data.draw(st.sampled_from(sorted(self.model)))
        chunk_ids = self.manager.lookup(src).chunk_ids
        index = data.draw(st.integers(0, len(chunk_ids) - 1))
        room = min(CHUNK_SIZE, len(self.model[src]) - index * CHUNK_SIZE)
        nbytes = max(1, int(payload_frac * room))
        ck = data.draw(st.sampled_from([None, *self._loose_checkpoints()]))
        if ck is None:
            ck = f"/ck/{self.counter}"
            self.counter += 1
            self._run(self.client.create(ck, 0))
            self.frozen[ck] = (b"", 0)
        image, _size = self.frozen[ck]
        offset = self.manager.link_chunk(ck, chunk_ids[index], nbytes)
        assert offset == len(image)
        self.frozen[ck] = (image + self._chunk_snapshot(src, index), offset + nbytes)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_file(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self._run(self.client.delete(name))
        del self.model[name]

    @precondition(lambda self: self._loose_checkpoints())
    @rule(data=st.data())
    def delete_checkpoint(self, data):
        ck = data.draw(st.sampled_from(self._loose_checkpoints()))
        self._run(self.client.delete(ck))
        del self.frozen[ck]


class EpochRules:
    """A tag's epochs must behave like a dict of parent links that restore
    and GC walk, whatever is begun, committed, retired or dropped."""

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def begin_epoch(self, data):
        """Open a new epoch, or re-begin one a crash left uncommitted."""
        truncated = sorted(e for e, r in self.epochs.items() if not r["committed"])
        epoch = data.draw(st.sampled_from([None, *truncated]))
        if epoch is None:
            epoch = self.counter
        committed = [e for e, r in self.epochs.items() if r["committed"]]
        parent = max(committed, default=None)
        path = self._new_checkpoint(data.draw(st.sampled_from(sorted(self.model))))
        record = self.manager.begin_epoch(TAG, epoch, path)
        assert record.parent == parent and not record.committed
        self.epochs[epoch] = {"parent": parent, "committed": False, "path": path}

    @precondition(lambda self: any(not r["committed"] for r in self.epochs.values()))
    @rule(data=st.data())
    def commit_epoch(self, data):
        epoch = data.draw(st.sampled_from(
            sorted(e for e, r in self.epochs.items() if not r["committed"])
        ))
        self.manager.commit_epoch(TAG, epoch, None)
        self.epochs[epoch]["committed"] = True

    @precondition(lambda self: any(r["committed"] for r in self.epochs.values()))
    @rule(data=st.data())
    def retire_epoch(self, data):
        """GC one committed epoch: its file goes, its children re-parent."""
        epoch = data.draw(st.sampled_from(
            sorted(e for e, r in self.epochs.items() if r["committed"])
        ))
        self.manager.retire_epoch(TAG, epoch)
        del self.frozen[self._splice(epoch)["path"]]

    @precondition(lambda self: self.epochs)
    @rule(data=st.data())
    def drop_epoch(self, data):
        """Forget an epoch's metadata; its file stays, as a loose checkpoint."""
        epoch = data.draw(st.sampled_from(sorted(self.epochs)))
        self.manager.drop_epoch(TAG, epoch)
        self._splice(epoch)


class StoreMachine(FileRules, EpochRules, StoreWorld):
    """Everything, interleaved."""


class EpochChainMachine(EpochRules, StoreWorld):
    """The chain alone, over files that are only ever created."""


TestStoreMachine = StoreMachine.TestCase
TestEpochChainMachine = EpochChainMachine.TestCase
TestStoreMachine.settings = TestEpochChainMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
