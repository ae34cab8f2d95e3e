"""Deterministic arrival processes and heavy-tailed request samplers.

Everything here is *schedule construction*: pure numpy driven off
``np.random.default_rng`` seeds, no simulation state, no wall clock, no
hash-ordering dependence.  A schedule built from the same seed is
bit-identical across interpreter invocations (any ``PYTHONHASHSEED``)
and across the serial/parallel experiment orchestrators — which is what
lets the ``slo_traffic`` experiment digest-pin its results like every
other experiment.

Arrival processes are expressed at **unit rate** (one request per virtual
second on average) and scaled by :meth:`RequestSchedule.at_rate`: the
offered-load sweep then replays the *identical* request sequence (same
keys, sizes, operations, same relative arrival order) at different
rates, so load is the only variable between legs of a latency curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NVMallocError

#: Operation codes in a schedule's ``ops`` array.
OP_READ, OP_WRITE, OP_CKPT = 0, 1, 2


# ----------------------------------------------------------------------
# Arrival processes (interarrival generators at unit mean rate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonProcess:
    """Memoryless arrivals: exponential interarrivals of mean 1."""

    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0, size=n)


@dataclass(frozen=True)
class DeterministicProcess:
    """Clockwork arrivals: constant spacing 1."""

    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, 1.0, dtype=np.float64)


@dataclass(frozen=True)
class MMPPProcess:
    """Two-state Markov-modulated Poisson process (bursty on-off traffic).

    The process alternates between an *on* state and an *off* state with
    exponential dwell times of mean :attr:`MEAN_ON` / :attr:`MEAN_OFF`
    seconds; the on state fires :attr:`BURSTINESS` times faster than the
    off state, and the two rates are solved so the long-run mean rate
    is 1.
    """

    BURSTINESS = 4.0
    MEAN_ON = 2.0
    MEAN_OFF = 6.0

    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Solve for state rates that preserve the unit mean rate: the
        # time-weighted average of on/off rates equals 1.
        on_share = self.MEAN_ON / (self.MEAN_ON + self.MEAN_OFF)
        base = 1.0 / (on_share * self.BURSTINESS + (1.0 - on_share))
        state_rate = (self.BURSTINESS * base, base)  # (on, off)
        state_mean = (self.MEAN_ON, self.MEAN_OFF)
        out = np.empty(n, dtype=np.float64)
        filled = 0
        state = 0  # deterministically start in the on state
        # Dwell in each state for an exponential duration, emitting
        # exponential interarrivals at the state's rate.  Residual dwell
        # time carries into the next arrival's gap when a state empties
        # without firing, so switching never creates phantom arrivals.
        carry = 0.0
        while filled < n:
            dwell = float(rng.exponential(state_mean[state]))
            rate = state_rate[state]
            elapsed = 0.0
            while filled < n:
                gap = float(rng.exponential(1.0 / rate))
                if elapsed + gap > dwell:
                    carry += dwell - elapsed
                    break
                out[filled] = carry + gap
                carry = 0.0
                filled += 1
                elapsed += gap
            state ^= 1
        return out


ArrivalProcess = PoissonProcess | DeterministicProcess | MMPPProcess


# ----------------------------------------------------------------------
# Request-content samplers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParetoSizes:
    """Heavy-tailed object sizes: ``lo * (1 + Pareto(ALPHA))`` clipped to
    ``hi`` — most requests small, a fat tail of large ones."""

    ALPHA = 1.3

    lo: int = 256
    hi: int = 64 * 1024

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if not 0 < self.lo <= self.hi:
            raise NVMallocError(f"bad Pareto sampler ({self.lo}, {self.hi})")
        sizes = self.lo * (1.0 + rng.pareto(self.ALPHA, size=n))
        return np.minimum(sizes, self.hi).astype(np.int64)


@dataclass(frozen=True)
class ZipfKeys:
    """Bounded Zipf(:attr:`S`) popularity over ``num_keys`` keys.

    Implemented by inverse-CDF lookup over the normalized ``1/k^S``
    weights (``np.random.Generator.zipf`` is unbounded), so every draw
    is a valid key index and the distribution is exact at any size.
    """

    S = 1.1

    num_keys: int

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.num_keys <= 0:
            raise NVMallocError(f"bad Zipf sampler ({self.num_keys})")
        weights = 1.0 / np.power(
            np.arange(1, self.num_keys + 1, dtype=np.float64), self.S
        )
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64)


# ----------------------------------------------------------------------
# The merged, globally time-ordered schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestSchedule:
    """A fully materialized open-loop request schedule.

    Parallel arrays, one entry per request, globally ordered by
    ``(time, client, per-client sequence)``: ``times`` are unit-rate
    virtual arrival offsets (scale with :meth:`at_rate`), ``clients``
    the issuing client ids, ``keys`` the Zipf-drawn object keys,
    ``sizes`` the Pareto-drawn byte counts, ``ops`` the operation codes
    (``OP_READ``/``OP_WRITE``/``OP_CKPT``).
    """

    times: np.ndarray
    clients: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    ops: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        """Span of the (unit-rate) arrival window."""
        return float(self.times[-1]) if len(self.times) else 0.0

    def at_rate(self, rate: float) -> "RequestSchedule":
        """The same request sequence offered at ``rate`` requests/second.

        Only the arrival clock is scaled; keys, sizes, operations, and
        the relative arrival order are untouched, so an offered-load
        sweep compares legs that differ *only* in load.
        """
        if rate <= 0:
            raise NVMallocError(f"offered rate must be positive, got {rate}")
        return RequestSchedule(
            times=self.times / rate,
            clients=self.clients,
            keys=self.keys,
            sizes=self.sizes,
            ops=self.ops,
        )

    def digest(self) -> str:
        """sha256 over the raw array bytes — the determinism fingerprint
        the property tests compare across hash seeds and orchestrators."""
        import hashlib

        h = hashlib.sha256()
        for arr in (self.times, self.clients, self.keys, self.sizes, self.ops):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def build_schedule(
    seed: int,
    num_clients: int,
    per_client: int,
    *,
    process: ArrivalProcess | None = None,
    keys: ZipfKeys | None = None,
    read_fraction: float = 0.7,
    checkpoint_fraction: float = 0.0,
) -> RequestSchedule:
    """Build the merged open-loop schedule for a client swarm.

    Each client gets an independent child stream of ``seed`` (via
    ``np.random.SeedSequence.spawn`` — deterministic, uncorrelated) and
    generates ``per_client`` arrivals from its own copy of the arrival
    process, plus its request contents.  The per-client streams are then
    merged into one globally time-ordered sequence, ties broken by
    ``(client, sequence)`` so the merge itself is deterministic.
    """
    if num_clients <= 0 or per_client <= 0:
        raise NVMallocError(
            f"need positive clients/requests, got {num_clients}, {per_client}"
        )
    if not 0.0 <= read_fraction <= 1.0 or not 0.0 <= checkpoint_fraction <= 1.0:
        raise NVMallocError("read/checkpoint fractions must be in [0, 1]")
    if read_fraction + checkpoint_fraction > 1.0:
        raise NVMallocError("read + checkpoint fractions exceed 1")
    process = process if process is not None else PoissonProcess()
    sizes = ParetoSizes()
    keys = keys if keys is not None else ZipfKeys(num_keys=64)

    streams = np.random.SeedSequence(seed).spawn(num_clients)
    n = num_clients * per_client
    all_times = np.empty(n, dtype=np.float64)
    all_clients = np.empty(n, dtype=np.int64)
    all_seq = np.empty(n, dtype=np.int64)
    all_keys = np.empty(n, dtype=np.int64)
    all_sizes = np.empty(n, dtype=np.int64)
    all_ops = np.empty(n, dtype=np.int8)
    for client, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        lo = client * per_client
        hi = lo + per_client
        # Per-client arrivals are spaced for the whole swarm's unit rate:
        # N clients each firing at 1/N requests/s aggregate to rate 1.
        gaps = process.interarrivals(rng, per_client) * num_clients
        all_times[lo:hi] = np.cumsum(gaps)
        all_clients[lo:hi] = client
        all_seq[lo:hi] = np.arange(per_client)
        all_keys[lo:hi] = keys.sample(rng, per_client)
        all_sizes[lo:hi] = sizes.sample(rng, per_client)
        draw = rng.random(per_client)
        ops = np.full(per_client, OP_WRITE, dtype=np.int8)
        ops[draw < read_fraction] = OP_READ
        ops[draw >= 1.0 - checkpoint_fraction] = OP_CKPT
        all_ops[lo:hi] = ops
    order = np.lexsort((all_seq, all_clients, all_times))
    return RequestSchedule(
        times=all_times[order],
        clients=all_clients[order],
        keys=all_keys[order],
        sizes=all_sizes[order],
        ops=all_ops[order],
    )


__all__ = [
    "ArrivalProcess",
    "DeterministicProcess",
    "MMPPProcess",
    "OP_CKPT",
    "OP_READ",
    "OP_WRITE",
    "ParetoSizes",
    "PoissonProcess",
    "RequestSchedule",
    "ZipfKeys",
    "build_schedule",
]
