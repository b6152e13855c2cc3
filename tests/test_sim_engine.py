"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    # The event at t=10 is still pending.
    assert sim.peek_next_time() == 10.0


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(4.0, fired.append, 1)
    sim.run(until=4.0)
    assert fired == [1]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    event.cancel()
    sim.run()
    assert fired == [2]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert not event.pending


def test_pending_property_lifecycle():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    assert event.pending
    sim.run()
    assert not event.pending


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_events_can_schedule_events():
    sim = Simulator()
    times = []

    def chain(n):
        times.append(sim.now)
        if n > 0:
            sim.schedule(1.0, chain, n - 1)

    sim.schedule(0.0, chain, 3)
    sim.run()
    assert times == [0.0, 1.0, 2.0, 3.0]


def test_event_count():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_step_dispatches_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    assert sim.step() is True
    assert fired == ["x"]
    assert sim.now == 1.0


def test_run_until_before_now_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek_next_time() == 2.0


def test_run_pops_exactly_one_heap_entry_per_event():
    """The run loop inspects the heap head in place: after a full run
    the heap is drained and every live event was dispatched once."""
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    cancelled = sim.schedule(3.5, fired.append, "dead")
    cancelled.cancel()
    sim.run()
    assert fired == list(range(10))
    assert sim.event_count == 10
    assert sim._heap == []


def test_step_skips_cancelled_and_dispatches_next():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(1.0, fired.append, "live")
    dead.cancel()
    assert sim.step() is True
    assert fired == ["live"]
    # Only cancelled entries left -> step reports an empty queue.
    sim.schedule(2.0, fired.append, "dead2").cancel()
    assert sim.step() is False
    assert fired == ["live"]


def test_run_until_leaves_cancelled_future_events_unpopped():
    sim = Simulator()
    event = sim.schedule(10.0, lambda: None)
    event.cancel()
    sim.run(until=5.0)
    # The cancelled entry sits beyond `until`; peek prunes it lazily.
    assert sim.now == 5.0
    assert sim.peek_next_time() is None
