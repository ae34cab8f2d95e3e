"""Job launcher: the paper's ``x:y:z`` configurations.

``JobConfig(procs_per_node=x, num_nodes=y, num_benefactors=z)`` reproduces
the labels of Figs. 3-6: x MPI processes on each of y compute nodes, with
z SSD benefactors that are either *local* (a subset of the compute nodes,
L-SSD) or *remote* (a disjoint fat-node partition, R-SSD).  ``z == 0``
gives the DRAM-only baseline (no aggregate store is assembled).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, fields

from repro.cluster.cluster import Cluster
from repro.core.nvmalloc import NVMalloc
from repro.errors import CommError, StoreError
from repro.parallel.comm import Communicator, RankContext
from repro.sim.events import Event
from repro.store.benefactor import Benefactor
from repro.store.manager import Manager
from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE
from repro.util.units import MiB


@dataclass(frozen=True)
class JobConfig:
    """One ``x:y:z`` run configuration."""

    procs_per_node: int
    num_nodes: int
    num_benefactors: int
    remote_ssd: bool = False  # True: benefactors on a disjoint node set
    fuse_cache_bytes: int = 64 * MiB
    page_cache_bytes: int = 64 * MiB
    chunk_size: int = CHUNK_SIZE
    page_size: int = PAGE_SIZE
    dirty_page_writeback: bool = True
    readahead_chunks: int = 0
    daemon_threads: int = 1
    #: FUSE chunk-cache hierarchy knobs (see repro.fusefs.cache).  The
    #: defaults — inline LRU, no local SSD tier, fixed readahead — are
    #: the seed configuration and keep experiment digests bit-identical.
    cache_policy: str = "lru"
    local_cache_bytes: int = 0
    prefetch: str = "fixed"
    prefetch_depth: int = 8
    benefactor_contribution: int | None = None
    #: Chunk replication degree of the aggregate store.  1 (the default)
    #: is the paper's unreplicated layout and preserves the seed's
    #: bit-identical behaviour; 2 tolerates any single benefactor crash.
    replication: int = 1

    @property
    def num_ranks(self) -> int:
        """Total MPI ranks (procs/node x nodes)."""
        return self.procs_per_node * self.num_nodes

    @property
    def uses_nvm(self) -> bool:
        """True when the configuration assembles an aggregate store."""
        return self.num_benefactors > 0

    def label(self) -> str:
        """The paper's figure label, e.g. ``L-SSD(8:16:16)``."""
        xyz = f"({self.procs_per_node}:{self.num_nodes}:{self.num_benefactors})"
        if not self.uses_nvm:
            return f"DRAM{xyz}"
        return ("R-SSD" if self.remote_ssd else "L-SSD") + xyz


def _plus(total, stats):
    """``total + stats`` field by field, as an instance of ``stats``'s
    class: a counter added to a stats dataclass (or a subclass of one)
    is summed without being named here."""
    return type(stats)(**{
        f.name: getattr(total, f.name, 0) + getattr(stats, f.name)
        for f in fields(stats)
    })


class Job:
    """A launched parallel job: ranks, communicator, aggregate store."""

    def __init__(self, cluster: Cluster, config: JobConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.engine = cluster.engine
        if config.num_nodes > cluster.num_nodes:
            raise CommError(
                f"job wants {config.num_nodes} nodes, cluster has "
                f"{cluster.num_nodes}"
            )
        if config.procs_per_node > cluster.nodes[0].num_cores:
            raise CommError(
                f"{config.procs_per_node} procs/node exceeds "
                f"{cluster.nodes[0].num_cores} cores/node"
            )
        self.compute_nodes = cluster.nodes[: config.num_nodes]
        # Rank r runs on node r // procs_per_node, core r % procs_per_node
        # (BLOCK distribution, as the paper's MM uses).
        rank_nodes = [
            self.compute_nodes[r // config.procs_per_node]
            for r in range(config.num_ranks)
        ]
        self.comm = Communicator(self.engine, rank_nodes)

        self.manager: Manager | None = None
        self.benefactors: list[Benefactor] = []
        self._nvmallocs: dict[int, NVMalloc] = {}
        if config.uses_nvm:
            self._assemble_store()

    # ------------------------------------------------------------------
    def _benefactor_nodes(self):
        config = self.config
        if config.remote_ssd:
            start = config.num_nodes
            nodes = self.cluster.nodes[start : start + config.num_benefactors]
            if len(nodes) < config.num_benefactors:
                raise StoreError(
                    f"need {config.num_benefactors} remote SSD nodes beyond "
                    f"the {config.num_nodes} compute nodes; cluster has "
                    f"{self.cluster.num_nodes}"
                )
        else:
            nodes = self.compute_nodes[: config.num_benefactors]
            if len(nodes) < config.num_benefactors:
                raise StoreError(
                    f"need {config.num_benefactors} local benefactors but job "
                    f"spans {config.num_nodes} nodes"
                )
        for node in nodes:
            if not node.has_ssd:
                raise StoreError(f"{node.name} has no SSD to contribute")
        return nodes

    def _assemble_store(self) -> None:
        config = self.config
        # The manager runs alongside the first benefactor, as in the
        # paper's prototype (a core/node on a subset of the nodes).
        benefactor_nodes = self._benefactor_nodes()
        self.manager = Manager(
            benefactor_nodes[0],
            chunk_size=config.chunk_size,
            metrics=self.cluster.metrics,
            replication=config.replication,
        )
        for node in benefactor_nodes:
            benefactor = Benefactor(
                node,
                contribution=config.benefactor_contribution,
                chunk_size=config.chunk_size,
                metrics=self.cluster.metrics,
            )
            self.manager.register_benefactor(benefactor)
            self.benefactors.append(benefactor)
        for node in self.compute_nodes:
            self._nvmallocs[node.node_id] = NVMalloc(
                node,
                self.manager,
                fuse_cache_bytes=config.fuse_cache_bytes,
                page_cache_bytes=config.page_cache_bytes,
                chunk_size=config.chunk_size,
                page_size=config.page_size,
                dirty_page_writeback=config.dirty_page_writeback,
                readahead_chunks=config.readahead_chunks,
                daemon_threads=config.daemon_threads,
                cache_policy=config.cache_policy,
                local_cache_bytes=config.local_cache_bytes,
                prefetch=config.prefetch,
                prefetch_depth=config.prefetch_depth,
                metrics=self.cluster.metrics,
            )

    # ------------------------------------------------------------------
    def cache_stats(self):
        """Aggregate chunk-cache and page-cache stats across the job's
        nodes, as ``(CacheStats, PageCacheStats)`` sums.

        Empty (all-zero) when the job never assembled an NVM store.
        """
        from repro.fusefs.cache import CacheStats
        from repro.mem.pagecache import PageCacheStats

        chunk, page = CacheStats(), PageCacheStats()
        for nvm in self._nvmallocs.values():
            chunk = _plus(chunk, nvm.mount.cache.stats)
            page = _plus(page, nvm.pagecache.stats)
        return chunk, page

    def nvmalloc_for(self, rank: int) -> NVMalloc:
        """The (node-shared) NVMalloc context serving ``rank``."""
        if not self.config.uses_nvm:
            raise StoreError(
                f"{self.config.label()} has no NVM store; DRAM-only runs "
                "cannot ssdmalloc"
            )
        node = self.comm.node_of(rank)
        return self._nvmallocs[node.node_id]

    def rank_context(self, rank: int) -> RankContext:
        """The RankContext (identity, core, comm, NVMalloc) for ``rank``."""
        config = self.config
        node = self.comm.node_of(rank)
        core = node.cores[rank % config.procs_per_node]
        nvmalloc = self._nvmallocs.get(node.node_id)
        return RankContext(rank=rank, comm=self.comm, core=core, nvmalloc=nvmalloc)

    def launch(
        self,
        rank_main: Callable[[RankContext], Generator[Event, object, object]],
    ) -> list[object]:
        """Run ``rank_main(ctx)`` as one process per rank; returns all
        ranks' return values in rank order (does not reset virtual time)."""
        processes = [
            self.engine.process(rank_main(self.rank_context(rank)))
            for rank in range(self.config.num_ranks)
        ]
        return self.engine.run_all(processes)

    def run(
        self,
        rank_main: Callable[[RankContext], Generator[Event, object, object]],
    ) -> tuple[float, list[object]]:
        """Launch and time a job: ``(elapsed_virtual_seconds, results)``."""
        start = self.engine.now
        results = self.launch(rank_main)
        return self.engine.now - start, results
