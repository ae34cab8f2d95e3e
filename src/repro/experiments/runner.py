"""Testbed assembly: engine + HAL cluster + PFS + job for one run.

Every experiment run gets a *fresh* testbed so metric counters, device
wear, and cache state never leak between configurations.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro import obs
from repro.cluster.cluster import Cluster
from repro.cluster.hal import make_hal_cluster
from repro.experiments.configs import ExperimentScale
from repro.parallel.job import Job, JobConfig
from repro.pfs.pfs import ParallelFileSystem
from repro.sim.engine import Engine

#: Heartbeat period of the manager's monitor in the experiments that run
#: the store's services (virtual seconds): bounds crash-detection latency
#: for chunks no client touches.
MONITOR_INTERVAL = 0.025

#: Active trackers; every new Testbed registers with each (see
#: :func:`track_testbeds`).
_TRACKERS: list["TestbedTracker"] = []


class TestbedTracker:
    """Collects every :class:`Testbed` built while its context is active."""

    def __init__(self) -> None:
        self.testbeds: list["Testbed"] = []


@contextmanager
def track_testbeds() -> Iterator[TestbedTracker]:
    """Record, in construction order, every Testbed built in the block.

    The orchestrator wraps each experiment driver in this context so it can
    snapshot byte-flow counters from every testbed the driver assembled —
    drivers build testbeds internally and never hand them back.
    """
    tracker = TestbedTracker()
    _TRACKERS.append(tracker)
    try:
        yield tracker
    finally:
        _TRACKERS.remove(tracker)


class Testbed:
    """A freshly assembled simulated HAL testbed at one experiment scale."""

    __test__ = False  # not a pytest collection target despite the name

    def __init__(self, scale: ExperimentScale) -> None:
        for tracker in _TRACKERS:
            tracker.testbeds.append(self)
        self.scale = scale
        self.engine = Engine()
        # None unless tracing is on, which keeps every instrumented call
        # site on its raw fast path.
        self.engine.tracer = obs.new_tracer_if_enabled(self.engine)
        self.cluster: Cluster = make_hal_cluster(self.engine, scale.hal_config())
        self.pfs = ParallelFileSystem(
            self.engine,
            self.cluster.network,
            num_servers=scale.pfs_servers,
            metrics=self.cluster.metrics,
        )

    def job(
        self,
        procs_per_node: int,
        num_nodes: int,
        num_benefactors: int,
        *,
        remote_ssd: bool = False,
        **overrides,
    ) -> Job:
        """A job in the paper's ``x:y:z`` notation on this testbed."""
        config = JobConfig(
            procs_per_node=procs_per_node,
            num_nodes=num_nodes,
            num_benefactors=num_benefactors,
            remote_ssd=remote_ssd,
            fuse_cache_bytes=overrides.pop("fuse_cache_bytes", self.scale.fuse_cache),
            page_cache_bytes=overrides.pop("page_cache_bytes", self.scale.page_cache),
            benefactor_contribution=overrides.pop(
                "benefactor_contribution", self.scale.benefactor_contribution
            ),
            **overrides,
        )
        return Job(self.cluster, config)


def start_services(job: Job) -> None:
    """Spawn the store's background processes: heartbeat + repair."""
    manager = job.manager
    assert manager is not None
    job.engine.process(manager.monitor(MONITOR_INTERVAL, rounds=None))
    job.engine.process(manager.rereplicator())


def benefactor_names(scale: ExperimentScale, num_nodes: int) -> list[str]:
    """The registration-ordered names of a job's four remote benefactors,
    which fault plans draw from.

    Every leg of an experiment uses the same four, so one throwaway
    testbed (with the experiment's ``num_nodes`` compute nodes) tells the
    names without running anything.
    """
    job = Testbed(scale).job(1, num_nodes, 4, remote_ssd=True)
    assert job.manager is not None
    return [b.name for b in job.manager.benefactors()]
