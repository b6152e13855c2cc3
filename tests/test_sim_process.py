"""Unit tests for coroutine-style processes and periodic tasks."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import PeriodicTask, Process, Simulator


def test_process_runs_until_generator_returns():
    sim = Simulator()
    log = []

    def body():
        for _ in range(3):
            log.append(sim.now)
            yield 1.0

    proc = Process(sim, body())
    sim.run()
    assert log == [0.0, 1.0, 2.0]
    assert proc.finished


def test_process_start_delay():
    sim = Simulator()
    log = []

    def body():
        log.append(sim.now)
        yield 0.5
        log.append(sim.now)

    Process(sim, body(), start_delay=2.0)
    sim.run()
    assert log == [2.0, 2.5]


def test_process_stop_cancels_future_resumes():
    sim = Simulator()
    log = []

    def body():
        while True:
            log.append(sim.now)
            yield 1.0

    proc = Process(sim, body())
    sim.schedule(2.5, proc.stop)
    sim.run(until=10.0)
    assert log == [0.0, 1.0, 2.0]
    assert proc.finished


def test_process_stop_is_idempotent():
    sim = Simulator()

    def body():
        yield 1.0

    proc = Process(sim, body())
    proc.stop()
    proc.stop()
    sim.run()
    assert proc.finished


def test_process_negative_delay_raises():
    sim = Simulator()

    def body():
        yield -1.0

    Process(sim, body())
    with pytest.raises(SimulationError):
        sim.run()


def test_periodic_task_fires_at_period():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
    sim.run(until=3.5)
    assert times == [1.0, 2.0, 3.0]


def test_periodic_task_phase():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 1.0, lambda: times.append(sim.now), phase=0.0)
    sim.run(until=2.5)
    assert times == [0.0, 1.0, 2.0]


def test_periodic_task_cancel():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
    sim.schedule(2.5, task.cancel)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]


def test_periodic_task_cancel_from_callback():
    sim = Simulator()
    times = []
    task_holder = {}

    def fire():
        times.append(sim.now)
        if len(times) == 2:
            task_holder["task"].cancel()

    task_holder["task"] = PeriodicTask(sim, 1.0, fire)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]


def test_periodic_task_invalid_period():
    sim = Simulator()
    # Checked at construction: a NaN period would schedule a NaN-time
    # event and never let run(until=...) return.
    for period in (0.0, math.nan, math.inf):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, period, lambda: None)
