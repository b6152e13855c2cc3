"""Tests for the SPECWeb-like web-serving workload."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.workloads import (
    QOS_GOOD,
    QOS_TOLERABLE,
    Request,
    RequestLog,
    RequestTrace,
    TraceArrivals,
    WebServer,
)
from repro.workloads.webserver import offered_load_per_core


def build_server(machine, **kwargs):
    return WebServer(machine.scheduler, machine.rng.stream("web"), **kwargs)


# ----------------------------------------------------------------------
# RequestLog
# ----------------------------------------------------------------------
def test_request_response_time():
    r = Request(rid=1, arrival=2.0, service_time=0.01)
    assert r.response_time is None
    r.completed = 2.5
    assert r.response_time == pytest.approx(0.5)


def test_qos_fraction_counts_unanswered_as_failures():
    log = RequestLog(
        requests=[
            Request(1, 0.0, 0.01, completed=1.0),
            Request(2, 0.0, 0.01, completed=9.0),
            Request(3, 0.0, 0.01, completed=None),
        ]
    )
    assert log.qos_fraction(QOS_GOOD) == pytest.approx(1 / 3)
    assert log.qos_fraction(10.0) == pytest.approx(2 / 3)


def test_qos_fraction_empty_window_is_no_data():
    # A window with zero arrivals carries no data — NaN, not perfect
    # QoS (a diurnal trough must not inflate aggregates).
    assert math.isnan(RequestLog().qos_fraction(QOS_GOOD))
    log = RequestLog(requests=[Request(1, 5.0, 0.01, completed=5.1)])
    assert math.isnan(log.qos_fraction(QOS_GOOD, start=0.0, end=5.0))


def test_qos_window_filters_by_arrival():
    log = RequestLog(
        requests=[
            Request(1, 0.0, 0.01, completed=0.1),
            Request(2, 5.0, 0.01, completed=100.0),
        ]
    )
    assert log.qos_fraction(QOS_GOOD, start=0.0, end=1.0) == 1.0
    assert log.qos_fraction(QOS_GOOD, start=4.0, end=6.0) == 0.0


def test_arrival_windows_are_half_open():
    # A request at exactly a window edge belongs to the later window:
    # adjacent [0,w) and [w,2w) windows never double-count it.
    log = RequestLog(requests=[Request(1, 5.0, 0.01, completed=5.1)])
    assert log.arrived_in(0.0, 5.0) == []
    assert len(log.arrived_in(5.0, 10.0)) == 1
    total = len(log.arrived_in(0.0, 5.0)) + len(log.arrived_in(5.0, 10.0))
    assert total == 1


def test_mean_response_time():
    log = RequestLog(
        requests=[
            Request(1, 0.0, 0.01, completed=1.0),
            Request(2, 0.0, 0.01, completed=3.0),
        ]
    )
    assert log.mean_response_time() == pytest.approx(2.0)
    assert RequestLog().mean_response_time() == float("inf")


# ----------------------------------------------------------------------
# WebServer end-to-end
# ----------------------------------------------------------------------
def test_server_validates_parameters():
    machine = Machine(fast_config())
    with pytest.raises(ConfigurationError):
        build_server(machine, connections=0)
    with pytest.raises(ConfigurationError):
        build_server(machine, think_time=0.0)
    with pytest.raises(ConfigurationError):
        build_server(machine, service_mean=0.0)


def test_offered_load_in_paper_range():
    machine = Machine(fast_config())
    server = build_server(machine)
    # Paper: "approximately 15-25% load per core"; the default config
    # sits at the top of that band.
    assert 0.15 <= server.offered_load_per_core <= 0.26
    # The rack grids print the same number without building a server.
    assert offered_load_per_core(fast_config().num_cores) == server.offered_load_per_core


def test_requests_complete_under_light_load():
    machine = Machine(fast_config())
    server = build_server(machine)
    machine.run(10.0)
    completed = [r for r in server.log.requests if r.completed is not None]
    assert len(completed) > 200  # ~40 req/s
    assert server.log.qos_fraction(QOS_GOOD, start=0.0, end=8.0) == 1.0
    # Response times are milliseconds under 25% load.
    assert server.log.mean_response_time(end=8.0) < 0.2


def test_kernel_stage_precedes_user_stage():
    machine = Machine(fast_config())
    server = build_server(machine)
    machine.run(5.0)
    kernel_work = machine.control.thread_info(server.kernel_thread).work_done
    assert kernel_work > 0
    # Kernel overhead per request matches the configured cost.
    completed = sum(1 for r in server.log.requests if r.completed is not None)
    assert kernel_work == pytest.approx(
        server.kernel_overhead * server.kernel_thread.stats.bursts_completed, rel=1e-6
    )
    assert server.kernel_thread.stats.bursts_completed >= completed


def test_arrival_process_replaces_poisson_loop():
    machine = Machine(fast_config())
    trace = RequestTrace((0.5, 1.0, 1.0, 2.5))
    server = build_server(machine, arrival_process=TraceArrivals(trace))
    machine.run(10.0)
    # Exactly the trace's arrivals, at its timestamps — and a finite
    # process simply stops generating once exhausted.
    assert [r.arrival for r in server.log.requests] == pytest.approx(list(trace.times))


def test_arrival_process_conflicts_with_external_arrivals():
    machine = Machine(fast_config())
    trace = TraceArrivals(RequestTrace((1.0,)))
    with pytest.raises(ConfigurationError):
        build_server(machine, external_arrivals=True, arrival_process=trace)


def test_stop_halts_arrivals():
    machine = Machine(fast_config())
    server = build_server(machine)
    machine.run(2.0)
    count = len(server.log.requests)
    server.stop()
    machine.run(2.0)
    assert len(server.log.requests) == count


def test_injection_degrades_latency_under_saturation():
    machine = Machine(fast_config())
    server = build_server(machine)
    machine.control.set_global_policy(0.75, 0.1)  # far past saturation
    machine.run(20.0)
    assert server.log.qos_fraction(QOS_GOOD, start=2.0, end=14.0) < 0.5


def test_injection_cools_web_workload():
    def run(p, quantum):
        machine = Machine(fast_config())
        server = build_server(machine)
        if p:
            machine.control.set_global_policy(p, quantum)
        machine.run(60.0)
        return machine.mean_core_temp_over_window(10.0), machine, server

    base_temp, base_machine, _ = run(0.0, 0.0)
    cool_temp, _, server = run(0.5, 0.05)
    assert base_temp - cool_temp > 0.5  # injection converts shallow idle
    # And QoS survives at this moderate setting.
    assert server.log.qos_fraction(QOS_TOLERABLE, start=2.0, end=50.0) > 0.95
