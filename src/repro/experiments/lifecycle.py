"""Checkpoint-lifecycle experiment: chains, async drain, crash-restart.

Runs the checkpoint loop in three flavours — ``full`` (physical copy
every epoch), ``incremental`` (dirty pages flushed, every chunk linked:
the store's copy-on-write keeps the chain), and ``async`` (CoW snapshot
+ background drain) — at replication r ∈ {1, 2}, then replays the
interesting legs under faults:

- **crash at a checkpoint, r=2** (incremental and async): the epoch must
  ride through on the client's retry/failover path and a cold-cache
  restart must restore bit-identical bytes (same digest as the no-fault
  baseline at the same mode);
- **crash at the restore, r=1**: the restart must fail *cleanly* with a
  typed :class:`~repro.errors.RestoreError` naming the lost chunks;
- **abandoned async epoch at r=1**: a restart that targets an epoch whose
  drain never committed must fall back along the chain's parent link to
  the newest complete ancestor, and once the drain does commit the same
  epoch becomes restorable.

Every restore goes through a *fresh* NVMalloc context (cold caches), so
"restart latency" measures what a restarted node would actually pay.
A crash is keyed to a program point, not to a virtual time: the rank
itself crashes benefactor :data:`CRASH_VICTIM` as it enters the named
phase, so the leg tests what its row says on any schedule.  The whole
report digests bit-identically across repeats, hash seeds, and the
serial/parallel orchestrators.
"""

from __future__ import annotations

import hashlib
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.core.nvmalloc import NVMalloc
from repro.errors import CheckpointError, ChunkUnavailableError, RestoreError
from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed, start_services
from repro.parallel.comm import RankContext
from repro.sim.events import Event
from repro.util.units import KiB

#: The benefactor a crash leg kills: an index in registration order.
CRASH_VICTIM = 0

#: Epochs the GC pass keeps (newest N of the chain).
GC_KEEP_LAST = 2

#: Share of the variable's chunks rewritten between two checkpoints, the
#: seed that picks them, and the async drain's staging budget (two chunks).
MUTATE_FRACTION, MUTATE_SEED = 0.25, 3
STAGING_BYTES = 2 * 256 * KiB

_TAG = "app"


@dataclass(frozen=True)
class _LegConfig:
    """One checkpoint-lifecycle run."""

    variable_bytes: int
    dram_state_bytes: int
    timesteps: int
    mode: str  # "full" | "incremental" | "async"
    #: Initiate one extra async epoch and restore *before* its drain
    #: commits: the restart must fall back to the parent epoch.
    abandon_final: bool = False
    #: The phase whose entry crashes :data:`CRASH_VICTIM`: ``"ckpt{t}"``
    #: (right before epoch ``t``) or ``"restore"`` (right before the
    #: cold-cache restart's first restore).
    crash_at: str | None = None


@dataclass
class _LegOutcome:
    """One leg's result: workload accounting plus store-side health."""

    status: str  # "ok" or the exception class name of a clean failure
    verified: bool
    ckpt_seconds: float
    restore_seconds: float
    bytes_written: float
    bytes_linked: float
    cow_captures: int
    chain_length: int
    gc_reclaimed: float
    epochs_committed: float
    retries: int
    failovers: float
    restored_epoch: int | None
    fallback: bool
    digest8: str
    error_epoch: int | None = None
    error_lost: int = 0


def _lifecycle_rank(
    ctx: RankContext, config: _LegConfig
) -> Generator[Event, object, dict[str, object]]:
    """The checkpoint loop; entering phase ``config.crash_at`` (see
    :class:`_LegConfig`) crashes :data:`CRASH_VICTIM` first."""
    assert ctx.nvmalloc is not None
    lib = ctx.nvmalloc
    engine = ctx.engine
    rng = np.random.default_rng(MUTATE_SEED)
    chunk = lib.chunk_size
    nbytes = config.variable_bytes
    nchunks = -(-nbytes // chunk)

    def enter(phase: str) -> None:
        if phase == config.crash_at:
            lib.manager.benefactors()[CRASH_VICTIM].crash()

    variable = yield from lib.ssdmalloc(nbytes, owner="ckpt")
    for i in range(nchunks):
        length = min(chunk, nbytes - i * chunk)
        yield from variable.write(i * chunk, bytes([i % 251]) * length)

    def mutate(step: int) -> Generator[Event, object, list[int]]:
        n_mutate = max(1, int(round(MUTATE_FRACTION * nchunks)))
        victims = sorted(
            int(v) for v in rng.choice(nchunks, size=n_mutate, replace=False)
        )
        for i in victims:
            length = min(chunk, nbytes - i * chunk)
            yield from variable.write(
                i * chunk, bytes([(i + step + 1) % 251]) * length
            )
        return victims

    def take_checkpoint(
        step: int,
    ) -> Generator[Event, object, tuple[object, int]]:
        """One epoch; returns ``(record, cow_captures)``."""
        dram_state = bytes([step % 251]) * config.dram_state_bytes
        if config.mode == "async":
            handle = yield from lib.ssdcheckpoint_async(
                _TAG, step, dram_state, [("var", variable)],
                staging_bytes=STAGING_BYTES,
            )
            # Overlap writes racing the drain: touching a not-yet-drained
            # chunk forces a CoW capture; the checkpoint must still
            # freeze the bytes that existed at initiation.
            for i in victims:
                length = min(chunk, nbytes - i * chunk)
                yield from variable.write(
                    i * chunk, bytes([(i + step + 101) % 251]) * length
                )
            record = yield from handle.wait()
            return record, handle.cow_captures
        record = yield from lib.ssdcheckpoint(
            _TAG, step, dram_state, [("var", variable)], mode=config.mode
        )
        return record, 0

    expected: list[bytes] = []
    bytes_written = 0.0
    bytes_linked = 0.0
    cow_captures = 0
    loop_start = engine.now
    for t in range(config.timesteps):
        victims = yield from mutate(t)
        yield from ctx.compute(1e6)
        # The frozen contents this epoch must restore: read *before*
        # initiation (an async drain snapshots initiation-time bytes).
        snapshot = yield from variable.read(0, nbytes)
        expected.append(bytes(snapshot))
        enter(f"ckpt{t}")
        record, cow = yield from take_checkpoint(t)
        bytes_written += record.bytes_written
        bytes_linked += record.bytes_linked
        cow_captures += cow
    ckpt_seconds = engine.now - loop_start

    # Chain GC: everything but the newest GC_KEEP_LAST epochs goes.
    yield from lib.gc_checkpoints(_TAG, keep_last=GC_KEEP_LAST)

    extra_handle = None
    extra_expected = b""
    if config.abandon_final:
        # One more async epoch whose drain we deliberately do not join
        # before restoring: the restart below sees it uncommitted.
        t = config.timesteps
        victims = yield from mutate(t)
        yield from ctx.compute(1e6)
        snapshot = yield from variable.read(0, nbytes)
        extra_expected = bytes(snapshot)
        extra_handle = yield from lib.ssdcheckpoint_async(
            _TAG, t, bytes([t % 251]) * config.dram_state_bytes,
            [("var", variable)], staging_bytes=STAGING_BYTES,
        )

    # Crash-restart: a fresh context with cold caches restores purely
    # from the manager-side commit records, as a restarted node would.
    restarted = NVMalloc(
        lib.node, lib.manager,
        fuse_cache_bytes=256 * KiB, page_cache_bytes=256 * KiB,
        chunk_size=lib.chunk_size, metrics=lib.metrics,
    )
    newest = config.timesteps - 1
    target = config.timesteps if config.abandon_final else None
    restore_start = engine.now
    enter("restore")
    dram_state, variables = yield from restarted.restore(_TAG, target)
    restored_epoch = restarted.last_restore_epoch
    fallback = restarted.last_restore_fallback
    verified = (
        restored_epoch == newest
        and dram_state == bytes([newest % 251]) * config.dram_state_bytes
        and variables["var"] == expected[newest]
    )
    digest8 = hashlib.sha256(
        bytes(dram_state) + bytes(variables["var"])
    ).hexdigest()[:8]
    if not config.abandon_final and config.timesteps >= 2:
        # The other GC survivor must restore its own frozen bytes too.
        prior, prior_vars = yield from restarted.restore(_TAG, newest - 1)
        verified &= (
            prior == bytes([(newest - 1) % 251]) * config.dram_state_bytes
            and prior_vars["var"] == expected[newest - 1]
        )
    restore_seconds = engine.now - restore_start

    if extra_handle is not None:
        # Join the drain: the abandoned epoch commits, and the very
        # timestep that just fell back becomes restorable.
        yield from extra_handle.wait()
        dram_state, variables = yield from restarted.restore(
            _TAG, config.timesteps
        )
        verified &= (
            not restarted.last_restore_fallback
            and dram_state
            == bytes([config.timesteps % 251]) * config.dram_state_bytes
            and variables["var"] == extra_expected
        )

    yield from lib.ssdfree(variable)
    return {
        "verified": verified,
        "ckpt_seconds": ckpt_seconds,
        "restore_seconds": restore_seconds,
        "bytes_written": bytes_written,
        "bytes_linked": bytes_linked,
        "cow_captures": cow_captures,
        "restored_epoch": restored_epoch,
        "fallback": fallback,
        "digest8": digest8,
    }


def _leg_config(scale: ExperimentScale, mode: str, **kwargs) -> _LegConfig:
    return _LegConfig(
        variable_bytes=scale.lifecycle_variable,
        dram_state_bytes=scale.lifecycle_dram_state,
        timesteps=scale.lifecycle_timesteps,
        mode=mode,
        **kwargs,
    )


def _run_leg(
    scale: ExperimentScale,
    mode: str,
    replication: int,
    *,
    abandon_final: bool = False,
    crash_at: str | None = None,
) -> _LegOutcome:
    """One fresh-testbed run of the lifecycle workload."""
    testbed = Testbed(scale)
    job = testbed.job(1, 1, 4, remote_ssd=True, replication=replication)
    start_services(job)
    config = _leg_config(
        scale, mode, abandon_final=abandon_final, crash_at=crash_at
    )
    ctx = job.rank_context(0)
    outcome: dict[str, object] = {}
    status = "ok"
    error_epoch: int | None = None
    error_lost = 0
    try:
        proc = testbed.engine.process(_lifecycle_rank(ctx, config))
        result = testbed.engine.run(proc)
        assert isinstance(result, dict)
        outcome = result
    except RestoreError as error:
        status = "RestoreError"
        error_epoch = error.epoch
        error_lost = len(error.lost_chunks)
    except (CheckpointError, ChunkUnavailableError) as error:
        status = type(error).__name__
    manager = job.manager
    assert manager is not None
    if status == "ok":
        quiesce = testbed.engine.process(manager.rereplication_quiesce())
        testbed.engine.run(quiesce)
    metrics = testbed.cluster.metrics
    return _LegOutcome(
        status=status,
        verified=bool(outcome.get("verified", False)),
        ckpt_seconds=float(outcome.get("ckpt_seconds", 0.0)),
        restore_seconds=float(outcome.get("restore_seconds", 0.0)),
        bytes_written=float(outcome.get("bytes_written", 0.0)),
        bytes_linked=float(outcome.get("bytes_linked", 0.0)),
        cow_captures=int(outcome.get("cow_captures", 0)),
        chain_length=manager.chain_length(_TAG),
        gc_reclaimed=metrics.value("store.manager.gc_reclaimed_bytes"),
        epochs_committed=metrics.value("checkpoint.epochs_committed"),
        retries=metrics.count("store.client.retries"),
        failovers=metrics.value("store.manager.benefactors_failed"),
        restored_epoch=outcome.get("restored_epoch"),  # type: ignore[arg-type]
        fallback=bool(outcome.get("fallback", False)),
        digest8=str(outcome.get("digest8", "-")),
        error_epoch=error_epoch,
        error_lost=error_lost,
    )


def _add_row(
    report: ExperimentReport,
    mode: str,
    replication: int,
    schedule: str,
    leg: _LegOutcome,
) -> None:
    report.add_row(
        mode, replication, schedule, leg.status,
        round(leg.ckpt_seconds, 6),
        round(leg.restore_seconds, 6) if leg.status == "ok" else "-",
        round(leg.bytes_written / KiB, 1),
        round(leg.bytes_linked / KiB, 1),
        leg.chain_length,
        round(leg.gc_reclaimed / KiB, 1),
        int(leg.epochs_committed),
        leg.retries,
        int(leg.failovers),
        leg.digest8 if leg.status == "ok" else "-",
    )


def ckpt_lifecycle(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Checkpoint chains, async drain, and crash-restart recovery."""
    report = ExperimentReport(
        experiment="Checkpoint lifecycle (§III-E)",
        title="Incremental CoW chains, async drain, crash-restart recovery",
        headers=[
            "Mode", "r", "Schedule", "Status", "Ckpt (s)", "Restore (s)",
            "Written KiB", "Linked KiB", "Chain", "GC KiB", "Epochs",
            "Retries", "Failovers", "Digest",
        ],
    )
    mid = scale.lifecycle_timesteps // 2

    # --- no-fault grid: mode x replication -----------------------------
    base: dict[tuple[str, int], _LegOutcome] = {}
    for mode in ("full", "incremental", "async"):
        for replication in (1, 2):
            leg = _run_leg(scale, mode, replication)
            base[(mode, replication)] = leg
            report.verified &= leg.status == "ok" and leg.verified
            # Chain bookkeeping: GC kept exactly the newest epochs, every
            # leg reclaimed superseded chunks, every epoch committed.
            report.verified &= (
                leg.chain_length == GC_KEEP_LAST
                and leg.gc_reclaimed > 0
                and leg.epochs_committed >= scale.lifecycle_timesteps
            )
            _add_row(report, mode, replication, "none", leg)
    for replication in (1, 2):
        # The chain's reason to exist: strictly fewer bytes than full
        # copies, for both the synchronous and the asynchronous flavour.
        full = base[("full", replication)]
        report.verified &= (
            base[("incremental", replication)].bytes_written
            < full.bytes_written
        )
        report.verified &= (
            base[("async", replication)].bytes_written < full.bytes_written
        )
        # Overlap writes raced the drain and forced CoW captures.
        report.verified &= base[("async", replication)].cow_captures >= 1

    # --- crash at a checkpoint, r=2: ride through, same digest ---------
    for mode in ("incremental", "async"):
        baseline = base[(mode, 2)]
        leg = _run_leg(scale, mode, 2, crash_at=f"ckpt{mid}")
        report.verified &= (
            leg.status == "ok"
            and leg.verified
            and leg.failovers >= 1
            and leg.digest8 == baseline.digest8
        )
        _add_row(report, mode, 2, f"crash at ckpt{mid}", leg)

    # --- crash at the restore, r=1: clean typed failure -----------------
    leg = _run_leg(scale, "incremental", 1, crash_at="restore")
    report.verified &= (
        leg.status == "RestoreError"
        and leg.error_epoch is not None
        and leg.error_lost >= 1
    )
    _add_row(report, "incremental", 1, "crash at restore", leg)

    # --- abandoned async epoch at r=1: truncated-chain fallback ---------
    leg = _run_leg(scale, "async", 1, abandon_final=True)
    report.verified &= (
        leg.status == "ok"
        and leg.verified
        and leg.fallback
        and leg.restored_epoch == scale.lifecycle_timesteps - 1
        and leg.digest8 == base[("async", 1)].digest8
    )
    _add_row(report, "async", 1, "abandon drain", leg)

    report.claim(
        "§III-E: incremental chains write only dirty chunks, checkpoints "
        "drain asynchronously behind the app, and a restart recovers the "
        "newest complete epoch even when crashes truncate the chain",
        "incremental and async epochs wrote strictly fewer bytes than "
        "full copies with GC reclaiming superseded chunks; r=2 rode "
        "mid-checkpoint crashes through failover with bit-identical "
        "restored digests; an r=1 mid-restore crash failed with a typed "
        "RestoreError and an uncommitted drain fell back to its parent",
    )
    return report
