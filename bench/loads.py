"""Input generation: every array a workload feeds the program.

All randomness comes from ``np.random.default_rng(seed)`` here, never
from ``repro.workloads`` or ``repro.traffic.build_schedule``, so a later
change to the program's own generators cannot move the benchmark's load.
The program receives only the generated arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

KiB = 1 << 10
MiB = 1 << 20


def digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over name, dtype, shape and bytes of every array."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1), one from each of ``n`` equal strata, in
    random order.  Every draw below goes through an inverse CDF of these,
    so a size law or an op mix is met almost exactly at every seed and
    only the order is left to chance: byte and op totals, and with them
    the ratios the benchmark reports, barely move from seed to seed."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _zipf(rng: np.random.Generator, num_keys: int, s: float, n: int) -> np.ndarray:
    """Bounded Zipf(s) key indices by inverse-CDF lookup, rank 0 hottest."""
    weights = 1.0 / np.power(np.arange(1, num_keys + 1, dtype=np.float64), s)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, _uniforms(rng, n), side="right").astype(np.int64)


def _per_kind(rng: np.random.Generator, kinds: np.ndarray, inverse_cdf) -> np.ndarray:
    """``inverse_cdf`` of fresh uniforms, drawn for each kind of op apart,
    so that each kind of op moves the same bytes at every seed."""
    out = np.empty(len(kinds), dtype=np.int64)
    for kind in np.unique(kinds):
        where = np.flatnonzero(kinds == kind)
        out[where] = inverse_cdf(_uniforms(rng, len(where)))
    return out


def _uniform_size(u: np.ndarray, p: dict) -> np.ndarray:
    """Sizes uniform over the integers ``min_size`` to ``max_size``."""
    return np.floor(p["min_size"] + u * (p["max_size"] - p["min_size"] + 1))


def _payload_pool(rng: np.random.Generator, ops: int, max_size: int) -> np.ndarray:
    """Random bytes; write ``i`` of ``n`` bytes sends ``pool[i : i + n]``."""
    return rng.integers(0, 256, size=ops + max_size, dtype=np.uint8)


def random_access(seed: int, p: dict) -> dict[str, np.ndarray]:
    """``rand_read_miss`` / ``rand_write_miss``: uniform offsets over the
    whole region, uniform sizes, a fixed read share."""
    rng = np.random.default_rng(seed)
    ops, region = p["ops"], p["region_bytes"]
    is_read = _uniforms(rng, ops) < p["read_share"]
    sizes = _per_kind(rng, is_read, lambda u: _uniform_size(u, p))
    offsets = (rng.random(ops) * (region - sizes + 1)).astype(np.int64)
    return {
        "fill": rng.integers(0, 256, size=region, dtype=np.uint8),
        "offsets": offsets,
        "sizes": sizes,
        "is_read": is_read,
        "payload": _payload_pool(rng, ops, p["max_size"]),
    }


def hot_keys(seed: int, p: dict) -> dict[str, np.ndarray]:
    """``hot_fit``: Zipf keys over fixed slots of a region that fits the
    page cache; an op stays inside its key's slot."""
    rng = np.random.default_rng(seed)
    ops, slot = p["ops"], p["slot_bytes"]
    num_keys = p["region_bytes"] // slot
    # Popularity rank → slot by a seeded permutation, so the hot keys
    # are scattered over the region's pages.
    keys = rng.permutation(num_keys)[_zipf(rng, num_keys, p["zipf_s"], ops)]
    is_read = _uniforms(rng, ops) < p["read_share"]
    sizes = _per_kind(rng, is_read, lambda u: _uniform_size(u, p))
    within = (rng.random(ops) * (slot - sizes + 1)).astype(np.int64)
    return {
        "fill": rng.integers(0, 256, size=p["region_bytes"], dtype=np.uint8),
        "offsets": keys * slot + within,
        "sizes": sizes,
        "is_read": is_read,
        "payload": _payload_pool(rng, ops, p["max_size"]),
    }


def scan_arrays(seed: int, p: dict) -> dict[str, np.ndarray]:
    """``mpi_scan``: one private array per rank, one shared per node, and
    the block each rank starts each sweep at."""
    rng = np.random.default_rng(seed)
    ranks = p["procs_per_node"] * p["num_nodes"]
    return {
        "private": rng.integers(
            0, 1 << 62, size=(ranks, p["private_bytes"] // 8), dtype=np.uint64
        ),
        "shared": rng.integers(
            0, 1 << 62, size=(p["num_nodes"], p["shared_bytes"] // 8), dtype=np.uint64
        ),
        "private_start": rng.integers(
            0, p["private_bytes"] // p["block_bytes"], size=(ranks, p["iterations"])
        ),
        "shared_start": rng.integers(
            0, p["shared_bytes"] // p["block_bytes"], size=(ranks, p["iterations"])
        ),
    }


def checkpoint_steps(seed: int, p: dict) -> dict[str, np.ndarray]:
    """``ckpt_restart``: initial variable contents, the chunks each
    timestep mutates, the bytes it writes, and the crash draw."""
    rng = np.random.default_rng(seed)
    ranks, steps = p["ranks"], p["timesteps"]
    chunks = p["variable_bytes"] // p["chunk_bytes"]
    mutated = max(1, round(p["mutate_share"] * chunks))
    # Each rank walks round a seeded order of its chunks, so which chunks
    # a step dirties is random but how many it shares with the steps
    # before it is the same at every seed.
    walk = np.arange(steps * mutated).reshape(steps, mutated) % chunks
    victims = np.stack([np.sort(rng.permutation(chunks)[walk]) for _ in range(ranks)])
    return {
        "initial": rng.integers(
            0, 256, size=(ranks, p["variable_bytes"]), dtype=np.uint8
        ),
        "victims": victims,
        "payload": _payload_pool(rng, p["pool_bytes"], p["write_bytes"]),
        "dram": rng.integers(0, 256, size=(ranks, steps), dtype=np.uint8),
        # Which benefactor dies, and how far into the restart window.
        "crash": rng.random(2),
    }


def request_schedule(seed: int, p: dict) -> dict[str, np.ndarray]:
    """``svc_open``: Poisson arrivals at unit aggregate rate, each from a
    client drawn at random (so every client's own stream is Poisson too),
    Zipf keys, Pareto sizes and a read/write/checkpoint-restore mix."""
    rng = np.random.default_rng(seed)
    n = p["requests"]
    times = np.cumsum(-np.log1p(-_uniforms(rng, n)))
    # Kinds come evenly along the sequence (a golden-ratio sequence from
    # a seeded start), so that the crash, which strikes at a fixed share
    # of the arrivals, finds the same number of checkpoints on the store
    # at every seed.
    draw = (rng.random() + np.arange(n) * 0.6180339887498949) % 1.0
    ops = np.full(n, 1, dtype=np.int8)  # write
    ops[draw < p["read_share"]] = 0  # read
    ops[draw >= 1.0 - p["checkpoint_share"]] = 2  # checkpoint + restore

    def pareto(u: np.ndarray) -> np.ndarray:
        sizes = p["size_lo"] * np.power(1.0 - u, -1.0 / p["pareto_alpha"])
        return np.minimum(sizes, p["size_hi"])

    return {
        "times": times,
        "clients": rng.integers(0, p["clients"], size=n),
        "keys": _zipf(rng, p["num_keys"], p["zipf_s"], n),
        "sizes": _per_kind(rng, ops, pareto),
        "ops": ops,
        "crash": rng.random(1),  # which benefactor dies in the crash leg
    }
