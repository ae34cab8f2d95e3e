"""Tests for CPU cores, nodes, and the HAL cluster factory."""

import pytest

from repro.cluster import (
    HAL_CPU,
    HAL_TESTBED,
    Cluster,
    CPUSpec,
    make_hal_cluster,
)
from repro.network.link import BONDED_DUAL_GIGE
from repro.sim import Engine
from repro.util.units import GB, GiB, MiB


@pytest.fixture
def engine():
    return Engine()


class TestCPU:
    def test_hal_spec(self):
        assert HAL_CPU.clock_hz == 2.4e9
        assert HAL_CPU.flops == 4.8e9

    def test_compute_time(self):
        assert HAL_CPU.compute_time(4.8e9) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            HAL_CPU.compute_time(-1)

    def test_core_occupancy(self, engine):
        from repro.cluster.cpu import Core

        core = Core(engine, CPUSpec(clock_hz=1e9, flops_per_cycle=1.0), "c0")

        def worker():
            yield from core.compute(2e9)
            return engine.now

        results = engine.run_all([engine.process(worker()) for _ in range(2)])
        assert results == [pytest.approx(2.0), pytest.approx(4.0)]
        assert core.busy_seconds() == pytest.approx(4.0)


class TestHalCluster:
    def test_table2_defaults(self, engine):
        cluster = make_hal_cluster(engine)
        assert cluster.num_nodes == 16
        assert cluster.total_cores == 128
        assert cluster.nodes[0].dram.capacity == 8 * GiB
        assert cluster.nodes[0].ssd is not None
        assert cluster.nodes[0].ssd.spec.name == "Intel X25-E"
        assert cluster.network.spec is BONDED_DUAL_GIGE

    def test_scaled_preserves_structure(self, engine):
        config = HAL_TESTBED.scaled(64)
        cluster = make_hal_cluster(engine, config)
        assert cluster.num_nodes == 16
        assert cluster.nodes[0].dram.capacity == 8 * GiB // 64
        assert config.ssd_per_node == 32 * GB // 64

    def test_scaled_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            HAL_TESTBED.scaled(0)

    def test_ssd_subset(self, engine):
        cluster = make_hal_cluster(engine, ssd_nodes={0, 5})
        equipped = cluster.ssd_equipped_nodes()
        assert [n.node_id for n in equipped] == [0, 5]
        assert cluster.nodes[1].ssd is None

    def test_node_names_are_endpoints(self, engine):
        cluster = make_hal_cluster(engine)
        for node in cluster.nodes:
            assert cluster.network.nic(node.name) is node.nic

    def test_total_dram(self, engine):
        cluster = make_hal_cluster(engine, HAL_TESTBED.scaled(1024))
        total = sum(node.dram.capacity for node in cluster.nodes)
        assert total == 16 * (8 * GiB // 1024)


class TestClusterValidation:
    def test_needs_nodes(self, engine):
        with pytest.raises(ValueError):
            Cluster(
                engine,
                num_nodes=0,
                cores_per_node=1,
                cpu_spec=HAL_CPU,
                dram_per_node=1 * MiB,
            )

    def test_no_ssd_cluster(self, engine):
        cluster = Cluster(
            engine,
            num_nodes=2,
            cores_per_node=2,
            cpu_spec=HAL_CPU,
            dram_per_node=1 * MiB,
        )
        assert cluster.ssd_equipped_nodes() == []
