"""Property-based tests for the simulated MPI layer.

Collectives must deliver exact payloads for any rank count, any root,
and any payload shape — these are the invariants every workload builds
on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.cluster.hal import HalConfig
from repro.cluster import make_hal_cluster
from repro.parallel import Communicator
from repro.sim import Engine
from repro.util.units import MiB
from tests.conftest import fuzz_settings


def make_comm(num_ranks: int) -> tuple[Engine, Communicator]:
    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=4, cores_per_node=8, dram_per_node=16 * MiB),
    )
    nodes = [cluster.node(r % 4) for r in range(num_ranks)]
    return engine, Communicator(engine, nodes)


@fuzz_settings(max_examples=25, deadline=None)
@given(
    num_ranks=st.integers(min_value=1, max_value=12),
    root=st.data(),
    payload=st.binary(min_size=0, max_size=4096),
)
def test_bcast_delivers_exact_payload(num_ranks, root, payload):
    engine, comm = make_comm(num_ranks)
    root_rank = root.draw(st.integers(min_value=0, max_value=num_ranks - 1))

    def rank_fn(rank):
        data = payload if rank == root_rank else None
        return (yield from comm.bcast(data, root=root_rank, rank=rank))

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    results = engine.run_all(procs)
    assert all(r == payload for r in results)


@fuzz_settings(max_examples=25, deadline=None)
@given(num_ranks=st.integers(min_value=1, max_value=10), seed=st.integers(0, 2**16))
def test_gather_preserves_rank_order_and_values(num_ranks, seed):
    engine, comm = make_comm(num_ranks)
    rng = np.random.default_rng(seed)
    payloads = [rng.random(rng.integers(1, 64)) for _ in range(num_ranks)]

    def rank_fn(rank):
        return (yield from comm.gather(payloads[rank], root=0, rank=rank))

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    results = engine.run_all(procs)
    gathered = results[0]
    assert len(gathered) == num_ranks
    for rank, item in enumerate(gathered):
        assert np.array_equal(item, payloads[rank])


@fuzz_settings(max_examples=20, deadline=None)
@given(
    num_ranks=st.integers(min_value=2, max_value=10),
    messages=st.lists(st.integers(), min_size=1, max_size=10),
)
def test_all_to_all_send_recv_is_lossless(num_ranks, messages):
    """Every rank sends its message list to every other; all arrive in
    order, no deadlock regardless of scheduling."""
    engine, comm = make_comm(num_ranks)

    def rank_fn(rank):
        for dest in range(num_ranks):
            if dest != rank:
                for m in messages:
                    yield from comm.send((rank, m), src=rank, dest=dest)
        received = []
        for src in range(num_ranks):
            if src != rank:
                for _ in messages:
                    received.append((yield from comm.recv(source=src, dst=rank)))
        return received

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    results = engine.run_all(procs)
    for rank, received in enumerate(results):
        expected = [
            (src, m)
            for src in range(num_ranks)
            if src != rank
            for m in messages
        ]
        assert received == expected


@fuzz_settings(max_examples=15, deadline=None)
@given(num_ranks=st.integers(min_value=1, max_value=12), rounds=st.integers(1, 4))
def test_repeated_barriers_stay_synchronized(num_ranks, rounds):
    engine, comm = make_comm(num_ranks)
    times: list[list[float]] = [[] for _ in range(num_ranks)]

    def rank_fn(rank):
        for round_ in range(rounds):
            yield engine.timeout((rank * 7 % 5) * 0.1 + 0.01)
            yield from comm.barrier(rank=rank)
            times[rank].append(engine.now)
        return True

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    engine.run_all(procs)
    for round_ in range(rounds):
        instants = {times[rank][round_] for rank in range(num_ranks)}
        assert len(instants) == 1, f"barrier {round_} released at {instants}"
