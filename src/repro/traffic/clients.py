"""Lightweight simulated clients driving the store from a schedule.

A :class:`ClientSwarm` executes a :class:`~repro.traffic.arrivals.
RequestSchedule` against a launched :class:`~repro.parallel.job.Job`'s
mmap → page-cache → chunk-cache → store stack, two ways:

- :meth:`ClientSwarm.open_loop` — the tentpole mode.  Every request gets
  a pre-triggered :class:`~repro.sim.events.Event` carrying its index,
  bulk-inserted via ``Engine.schedule_batch`` at its *scheduled* virtual
  arrival time; when the event fires, a fresh request process starts
  **regardless of whether earlier requests finished**.  Queueing delay
  behind a saturated device or a crashed benefactor therefore lands in
  the request's measured latency instead of silently throttling the
  offered load.
- :meth:`ClientSwarm.closed_loop` — the calibration mode:
  :data:`CLOSED_LOOP_WORKERS` processes drain the same request sequence
  back-to-back.  Sustained completions per virtual second under closed
  loop is the measured *capacity* the ``slo_traffic`` experiment
  expresses offered load against (0.5×/0.8×/0.95×).

Clients are not ranks: a swarm of thousands of clients shares the job's
per-node NVMalloc contexts (client → node by id modulo node count), so
the simulated state stays bounded while the arrival process fans out.
Request processes catch *typed* repro failures (store/NVMalloc errors —
e.g. a chunk lost at every replica after the client's retry deadline)
and record them as failed requests; an SLO verdict over a fault leg is
then a report, never a crash.  Kernel bugs (``SimulationError``) still
propagate.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.errors import NVMallocError, ReproError, SimulationError
from repro.parallel.job import Job
from repro.sim.events import Event
from repro.traffic.arrivals import OP_READ, OP_WRITE, RequestSchedule
from repro.traffic.slo import RequestRecord
from repro.util.units import MiB

CLOSED_LOOP_WORKERS = 8  #: concurrent pullers of the calibration pass


@dataclass(frozen=True)
class SwarmConfig:
    """Shape of the swarm's footprint on the store."""

    region_bytes: int = 4 * MiB  # shared NVM region per compute node
    key_stride: int = 4096  # byte offset between adjacent keys
    checkpoint_bytes: int = 4096  # DRAM image size cap for OP_CKPT requests
    owner: str = "slo"  # allocation owner / checkpoint tag prefix

    def __post_init__(self) -> None:
        if self.region_bytes <= 0 or self.key_stride <= 0:
            raise NVMallocError("swarm region and key stride must be positive")
        if self.checkpoint_bytes <= 0:
            raise NVMallocError("swarm checkpoint size must be positive")


@dataclass
class SwarmResult:
    """Raw outcome of one swarm execution (fold with :mod:`repro.traffic.slo`)."""

    records: list[RequestRecord] = field(default_factory=list)
    issued: int = 0
    duration: float = 0.0  # first scheduled arrival to last completion
    offered_duration: float = 0.0  # span of the arrival schedule alone

    @property
    def completed_ok(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def rate(self) -> float:
        """Successful completions per virtual second of the run."""
        return self.completed_ok / self.duration if self.duration > 0 else 0.0


class ClientSwarm:
    """A population of simulated clients bound to one launched job."""

    def __init__(self, job: Job, config: SwarmConfig | None = None) -> None:
        self.job = job
        self.engine = job.engine
        self.config = config if config is not None else SwarmConfig()
        # One NVMalloc context + shared region per compute node, created
        # lazily by the first run so construction stays event-free.
        self._libs: list[object] | None = None
        self._vars: list[object] | None = None
        # Distinguishes checkpoint tags across runs on one swarm (the
        # calibration pass and the open-loop pass share a testbed).
        self._run_seq = itertools.count()

    # ------------------------------------------------------------------
    # Setup: one shared NVM region per compute node
    # ------------------------------------------------------------------
    def _setup(self) -> Generator[Event, object, None]:
        config = self.job.config
        libs, variables = [], []
        for node_index in range(config.num_nodes):
            lib = self.job.nvmalloc_for(node_index * config.procs_per_node)
            variable = yield from lib.ssdmalloc(
                self.config.region_bytes,
                owner=f"{self.config.owner}.n{node_index}",
            )
            libs.append(lib)
            variables.append(variable)
        self._libs, self._vars = libs, variables

    def _ensure_setup(self) -> None:
        if self._vars is None:
            self.engine.run(self.engine.process(self._setup()))

    # ------------------------------------------------------------------
    # One request
    # ------------------------------------------------------------------
    def _execute(
        self,
        run_id: int,
        index: int,
        schedule: RequestSchedule,
        arrival: float,
        records: list[RequestRecord],
    ) -> Generator[Event, object, None]:
        client = int(schedule.clients[index])
        op = int(schedule.ops[index])
        slot = client % len(self._vars)
        variable = self._vars[slot]
        size = min(int(schedule.sizes[index]), variable.nbytes)
        offset = (
            int(schedule.keys[index]) * self.config.key_stride
        ) % (variable.nbytes - size + 1)
        ok, error = True, None
        try:
            if op == OP_READ:
                yield from variable.read(offset, size)
            elif op == OP_WRITE:
                yield from variable.write(offset, bytes(size))
            else:  # OP_CKPT: checkpoint a DRAM image, then restore it
                nbytes = min(size, self.config.checkpoint_bytes)
                tag = f"{self.config.owner}.{run_id}.{index}"
                lib = self._libs[slot]
                yield from lib.ssdcheckpoint(tag, 0, bytes(nbytes))
                yield from lib.restore(tag, 0)
        except SimulationError:
            raise
        except ReproError as exc:
            ok, error = False, type(exc).__name__
        records.append(
            RequestRecord(
                client=client,
                op=op,
                arrival=arrival,
                completion=self.engine.now,
                ok=ok,
                error=error,
            )
        )

    # ------------------------------------------------------------------
    # Open loop: issue at scheduled arrival times, completion-blind
    # ------------------------------------------------------------------
    def open_loop(self, schedule: RequestSchedule) -> SwarmResult:
        """Run ``schedule`` open-loop; returns per-request records.

        Each request is materialized as a pre-triggered event inserted
        via ``Engine.schedule_batch``, whose firing spawns the request
        process.  The engine runs until every request completed —
        including ones that completed by *failing* with a typed store
        error.
        """
        self._ensure_setup()
        engine = self.engine
        run_id = next(self._run_seq)
        n = len(schedule)
        records: list[RequestRecord] = []
        base = engine.now
        done = engine.event()
        remaining = n

        def finished(proc: Event) -> None:
            nonlocal remaining
            remaining -= 1
            if not proc._ok and not done.triggered:
                # Died of what ``_execute`` does not record (a bug, a
                # ``SimulationError``): ``engine.run(done)`` raises it.
                done.fail(proc.value)
            elif remaining == 0 and not done.triggered:
                done.succeed()

        def launch(event: Event) -> None:
            index = int(event.value)
            proc = engine.process(
                self._execute(
                    run_id, index, schedule, base + float(schedule.times[index]),
                    records,
                )
            )
            proc.add_callback(finished)

        arrivals = []
        for index in range(n):
            event = Event(engine)
            event._value = index
            event._scheduled = True
            event.callbacks = launch
            arrivals.append(event)
        engine.schedule_batch(arrivals, schedule.times)
        engine.run(done)
        return SwarmResult(
            records=records,
            issued=n,
            duration=engine.now - base,
            offered_duration=schedule.duration,
        )

    # ------------------------------------------------------------------
    # Closed loop: capacity calibration
    # ------------------------------------------------------------------
    def closed_loop(self, schedule: RequestSchedule) -> SwarmResult:
        """Drain ``schedule`` back-to-back with :data:`CLOSED_LOOP_WORKERS`
        concurrent pullers; the resulting completion rate is the measured
        capacity that anchors the offered-load sweep."""
        self._ensure_setup()
        engine = self.engine
        run_id = next(self._run_seq)
        n = len(schedule)
        records: list[RequestRecord] = []
        base = engine.now
        cursor = itertools.count()

        def worker() -> Generator[Event, object, None]:
            while True:
                index = next(cursor)
                if index >= n:
                    return
                yield from self._execute(
                    run_id, index, schedule, engine.now, records
                )

        engine.run_all(
            [engine.process(worker()) for _ in range(min(CLOSED_LOOP_WORKERS, n))]
        )
        return SwarmResult(
            records=records,
            issued=n,
            duration=engine.now - base,
            offered_duration=schedule.duration,
        )


__all__ = ["ClientSwarm", "SwarmConfig", "SwarmResult"]
