"""Tests for fleet-level health monitoring: per-machine monitors on the
batched rack, rollups, and seeded noisy-sensor determinism."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.fleet import FleetMachine, replica_configs
from repro.health import FleetHealth, HealthParams, HealthState
from repro.workloads import CpuBurn


def _hot_fleet(machines=2, *, params=None, seed=0, duration=8.0):
    """A small rack running cpuburn on every core, monitored."""
    cfg = fast_config(seed)
    fleet = FleetMachine(replica_configs(cfg, machines))
    health = fleet.attach_health(params)
    for node in fleet.nodes:
        for _ in range(cfg.num_cores):
            node.scheduler.spawn(CpuBurn())
    fleet.run(duration)
    health.stop()
    health.finalize()
    return fleet, health


def test_attach_health_monitors_every_machine():
    fleet, health = _hot_fleet(machines=2)
    assert isinstance(health, FleetHealth)
    assert len(health) == 2
    assert health is fleet.health
    assert [m.tracker.machine for m in health.monitors] == [0, 1]
    # cpuburn on every core heats well past the default +5.5 C critical
    # rise, so both machines alert.
    assert health.critical_alerts >= 2
    assert health.machines_since_boot(HealthState.CRITICAL) == 2
    assert health.time_in_critical > 0.0
    assert health.worst_excursion > fleet.idle_mean_temp


def test_attach_health_twice_raises():
    fleet = FleetMachine([fast_config(0)])
    fleet.attach_health()
    with pytest.raises(ConfigurationError):
        fleet.attach_health()


def test_cool_thresholds_mean_zero_alerts():
    params = HealthParams(warning_rise=80.0, critical_rise=90.0)
    _, health = _hot_fleet(machines=1, params=params, duration=4.0)
    assert health.alerts == 0
    assert health.events() == []
    assert health.time_in_warning == 0.0
    assert health.time_in_critical == 0.0
    assert health.machines_since_boot(HealthState.WARNING) == 0


def test_rollups_sum_per_machine_trackers():
    _, health = _hot_fleet(machines=3, duration=6.0)
    trackers = [m.tracker for m in health.monitors]
    assert health.alerts == sum(t.alerts for t in trackers)
    assert health.critical_alerts == sum(t.critical_alerts for t in trackers)
    assert health.recoveries == sum(t.recoveries for t in trackers)
    assert health.time_in_critical == pytest.approx(
        sum(t.time_in_critical for t in trackers)
    )
    events = health.events()
    assert len(events) == sum(len(t.events) for t in trackers)
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))


def test_summary_carries_config_and_totals():
    params = HealthParams(warning_rise=2.0, critical_rise=4.0, period=0.5)
    fleet, health = _hot_fleet(machines=2, params=params, duration=5.0)
    summary = health.summary()
    config = summary["config"]
    assert config["warning_rise_c"] == 2.0
    assert config["period_s"] == 0.5
    assert config["machines"] == 2
    assert config["thresholds"]["critical_c"] == pytest.approx(
        fleet.idle_mean_temp + 4.0
    )
    assert summary["totals"]["alerts"] == health.alerts
    assert len(summary["machines_detail"]) == 2


def test_controller_info_lands_in_summary():
    _, health = _hot_fleet(machines=1, duration=3.0)
    health.set_controller_info({"kind": "alert-driven", "trip_temp_c": 40.0})
    assert health.summary()["config"]["controller"]["kind"] == "alert-driven"


# ======================================================================
# Seeded noisy-sensor determinism
# ======================================================================
NOISY = HealthParams(noisy=True, noise_std=0.4)


def _event_key(event):
    return (event.time, event.machine, event.state, event.previous, event.temperature)


def test_noisy_monitors_same_seed_identical_alert_streams():
    """Noisy sensors draw from per-machine seeded streams: two racks
    built from the same config produce bit-identical alert streams."""
    _, first = _hot_fleet(machines=2, params=NOISY, seed=3, duration=6.0)
    _, second = _hot_fleet(machines=2, params=NOISY, seed=3, duration=6.0)
    assert [_event_key(e) for e in first.events()] == [
        _event_key(e) for e in second.events()
    ]
    assert first.summary() == second.summary()


def test_noisy_monitor_reads_do_not_perturb_templog():
    """The monitor's noise draws come from a dedicated RNG stream, so
    attaching monitors leaves the logged temperature samples (and their
    sensor noise) bit-identical to an unmonitored rack."""
    cfg = fast_config(0)

    def run(monitored):
        fleet = FleetMachine([cfg])
        if monitored:
            fleet.attach_health(NOISY)
        node = fleet.nodes[0]
        for _ in range(cfg.num_cores):
            node.scheduler.spawn(CpuBurn())
        fleet.run(5.0)
        return node.templog.samples

    assert np.array_equal(run(monitored=False), run(monitored=True))


# ======================================================================
# Single-server Machine.attach_health
# ======================================================================
def test_machine_attach_health():
    cfg = fast_config(0)
    machine = Machine(cfg)
    monitor = machine.attach_health(HealthParams(warning_rise=1.0, critical_rise=2.0))
    assert machine.health is monitor
    with pytest.raises(ConfigurationError):
        machine.attach_health()
    for _ in range(cfg.num_cores):
        machine.scheduler.spawn(CpuBurn())
    machine.run(6.0)
    monitor.stop()
    monitor.finalize()
    assert monitor.tracker.critical_alerts >= 1
    assert monitor.tracker.time_in_critical > 0.0
    assert monitor.thresholds.warning == pytest.approx(machine.idle_mean_temp + 1.0)
