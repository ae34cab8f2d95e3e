"""Deterministic fault injection for the aggregate store.

A :class:`FaultPlan` is a frozen schedule of fault events — benefactor
crashes and transient slowdowns pinned to *virtual* times — driven as an
ordinary simulation process.  Schedules are either written out explicitly
or derived from a seed via :meth:`FaultPlan.seeded`; either way the same
plan on the same workload replays the exact same virtual history, so
fault experiments digest bit-identically across runs and across the
serial/parallel orchestrators (no wall-clock randomness anywhere).

Crash-during-transfer is not a separate event type: a
:class:`BenefactorCrash` whose time lands inside a chunk transfer is
observed by :class:`~repro.store.benefactor.Benefactor` *after* the
network charge, modelling a write-back or fetch whose bytes travelled but
were never applied/acknowledged.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import StoreError
from repro.sim.events import Event
from repro.store.manager import Manager


@dataclass(frozen=True)
class BenefactorCrash:
    """Hard-kill one benefactor at virtual time ``at`` (seconds).

    Sets the ground-truth ``crashed`` flag; detection happens through the
    normal channels (heartbeat monitor or a client failure report), so the
    window between crash and detection is part of what is measured.
    """

    at: float
    benefactor: str


@dataclass(frozen=True)
class TransientSlowdown:
    """Degrade one benefactor without killing it.

    From ``at`` until ``at + duration`` every data-path operation on the
    benefactor is charged an extra ``extra_per_op`` seconds — a contended
    or thermally throttled node that is slow but correct.

    ``rate_factor`` additionally degrades the benefactor's *SSD service
    rate* for the window: every device access takes ``rate_factor`` times
    its nominal service time (see
    :meth:`repro.devices.base.StorageDevice.degrade`), so the penalty
    scales with transfer size instead of being a flat per-op surcharge.
    The default of 1.0 leaves the device untouched — existing plans and
    their experiment digests are bit-identical.
    """

    at: float
    benefactor: str
    duration: float
    extra_per_op: float
    rate_factor: float = 1.0


FaultEvent = BenefactorCrash | TransientSlowdown


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of fault events.

    ``seed`` is provenance only (``None`` for hand-written plans): the
    events tuple *is* the plan, and :meth:`inject` replays it verbatim.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        benefactor_names: Iterable[str],
        *,
        crashes: int = 1,
        slowdowns: int = 0,
        window: tuple[float, float] = (0.25, 1.0),
        slow_duration: float = 0.25,
        slow_extra: float = 0.002,
        slow_rate_factor: float = 1.0,
    ) -> "FaultPlan":
        """Derive a plan from a seed: crash victims without replacement,
        event times uniform in ``window`` (virtual seconds).

        ``benefactor_names`` must come in a deterministic order (e.g.
        ``[b.name for b in manager.benefactors()]`` — registration order);
        the derivation uses only ``numpy``'s seeded generator, never
        wall-clock entropy or hash ordering.
        """
        names = list(benefactor_names)
        if crashes > len(names):
            raise StoreError(
                f"cannot crash {crashes} of {len(names)} benefactors"
            )
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        victims = rng.choice(len(names), size=crashes, replace=False)
        for victim in victims:
            events.append(
                BenefactorCrash(
                    at=float(rng.uniform(window[0], window[1])),
                    benefactor=names[int(victim)],
                )
            )
        for _ in range(slowdowns):
            events.append(
                TransientSlowdown(
                    at=float(rng.uniform(window[0], window[1])),
                    benefactor=names[int(rng.integers(0, len(names)))],
                    duration=slow_duration,
                    extra_per_op=slow_extra,
                    rate_factor=slow_rate_factor,
                )
            )
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def crash_in_phase(
        cls,
        seed: int,
        benefactor_names: Iterable[str],
        windows: "dict[str, tuple[float, float]]",
        phase: str,
        *,
        position: tuple[float, float] = (0.25, 0.75),
    ) -> "FaultPlan":
        """One seeded crash inside a *named phase window*.

        ``windows`` maps phase names to ``(start, stop)`` virtual-time
        intervals, typically measured from a fault-free baseline run
        (e.g. ``{"ckpt3": (t0, t1), "restore": (r0, r1)}``), so "crash a
        benefactor during epoch 3's drain" is expressible without
        hand-tuned times.  ``position`` narrows the strike to a relative
        slice of the window — ``(0.25, 0.75)`` keeps it mid-phase;
        ``(0.0, 0.0)`` pins it to the phase's first instant (useful to
        guarantee a mid-restore crash lands before any chunk is read).
        Victim choice and timing come from the seeded generator exactly
        as in :meth:`seeded`.
        """
        try:
            start, stop = windows[phase]
        except KeyError:
            raise StoreError(
                f"unknown phase {phase!r}; have {sorted(windows)}"
            ) from None
        if stop < start:
            raise StoreError(f"phase {phase!r} window {start, stop} is inverted")
        lo, hi = position
        if not 0.0 <= lo <= hi <= 1.0:
            raise StoreError(f"position {position} must satisfy 0 <= lo <= hi <= 1")
        span = stop - start
        return cls.seeded(
            seed,
            benefactor_names,
            crashes=1,
            slowdowns=0,
            window=(start + lo * span, start + hi * span),
        )

    def scheduled(self) -> list[FaultEvent]:
        """Events in firing order: by time, plan order breaking ties."""
        return [
            event
            for _, event in sorted(
                enumerate(self.events), key=lambda pair: (pair[1].at, pair[0])
            )
        ]

    def describe(self) -> str:
        """A compact schedule label for report rows, e.g.
        ``crash ben@node2@0.531s``."""
        parts = []
        for event in self.scheduled():
            if isinstance(event, BenefactorCrash):
                parts.append(f"crash {event.benefactor}@{event.at:.3f}s")
            else:
                label = (
                    f"slow {event.benefactor}@{event.at:.3f}s"
                    f"+{event.duration:.3f}s"
                )
                if event.rate_factor != 1.0:
                    label += f"x{event.rate_factor:g}"
                parts.append(label)
        return ", ".join(parts) if parts else "none"

    def inject(self, manager: Manager) -> Generator[Event, object, None]:
        """Drive the schedule as a sim process: spawn via
        ``engine.process(plan.inject(manager))`` before launching the
        workload.  Unknown benefactor names fail fast."""
        engine = manager.node.engine
        by_name = {b.name: b for b in manager.benefactors()}
        for event in self.scheduled():
            if event.benefactor not in by_name:
                raise StoreError(
                    f"fault plan names unknown benefactor {event.benefactor!r}"
                )
        for event in self.scheduled():
            delay = event.at - engine.now
            if delay > 0 and not engine.advance(delay):
                yield engine.timeout(delay)
            benefactor = by_name[event.benefactor]
            if isinstance(event, BenefactorCrash):
                benefactor.crash()
            else:
                benefactor.slow_down(
                    engine.now + event.duration, event.extra_per_op
                )
                if event.rate_factor != 1.0:
                    benefactor.ssd.degrade(
                        engine.now + event.duration, event.rate_factor
                    )


__all__ = [
    "BenefactorCrash",
    "FaultEvent",
    "FaultPlan",
    "TransientSlowdown",
]
