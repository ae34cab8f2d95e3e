"""Tracing-identity gate (CI): tracing must never change results.

Runs real experiments with tracing off and on and asserts virtual
times, byte-flow counters, and report digests are bit-identical — the
contract that lets ``--trace`` be flipped on any run without invalidating
it.  Marked ``obs`` (excluded from tier-1) because each experiment runs
twice.
"""

import pytest

from repro import obs
from repro.experiments.configs import TINY
from repro.experiments.parallel import execute_experiment

pytestmark = pytest.mark.obs


@pytest.fixture
def restore_tracing():
    was = obs.enabled()
    yield
    obs.enable(was)
    obs.clear_collected()


def _run(name, trace):
    obs.clear_collected()
    obs.enable(trace)
    report, testbeds = execute_experiment(name, TINY)
    return report, testbeds


@pytest.mark.parametrize("name", ["faults", "fig2"])
def test_digest_identical_with_tracing_on(name, restore_tracing):
    report_off, testbeds_off = _run(name, False)
    report_on, testbeds_on = _run(name, True)
    assert testbeds_on == testbeds_off
    assert report_on.counters == report_off.counters
    assert report_on.rows == report_off.rows
    assert report_on.digest() == report_off.digest()
    # The traced run actually traced: spans were harvested into the
    # report, while the untraced run carries none.
    assert report_on.trace_lines and not report_off.trace_lines
    assert any("critical path" in line for line in report_on.trace_lines)


def test_faults_retry_failover_replica_share_one_trace(restore_tracing):
    """Acceptance: one trace id follows a request through the client's
    retry, its failover to another replica, and the benefactor that
    finally served it."""
    _run("faults", True)
    hits = []
    for label, tracer in obs.collected():
        for retry in (s for s in tracer.spans if s.name == "retry"):
            relatives = [s for s in tracer.spans if s.trace_id == retry.trace_id]
            failed = retry.args["failed"]
            served_by = {
                s.args["benefactor"]
                for s in relatives
                if s.layer == "benefactor" and s.name == "fetch_chunk"
            }
            if served_by - {failed}:
                hits.append((label, retry.trace_id, failed, served_by))
    assert hits, "no trace shows retry -> failover -> replica"
