"""Unit tests for the discrete-event simulation engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.fleet.machine import _NodeSimView
from repro.sim import Simulator
from repro.telemetry import isolated


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
    # NaN compares false with everything, so a ``< 0`` check let it
    # into the heap at an unorderable time.
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    assert sim._heap == []


def test_node_view_rejects_past_and_nan_times():
    sim = Simulator()
    view = _NodeSimView(_GapRecorder([]), 0, sim)
    sim.schedule(1.0, lambda: None)
    sim.run()
    for delay in (-0.5, math.nan):
        with pytest.raises(SimulationError):
            view.schedule(delay, lambda: None)
    for time in (0.5, math.nan):
        with pytest.raises(SimulationError):
            view.schedule_at(time, lambda: None)
    assert sim._heap == []


def test_schedule_rejects_infinite_times():
    # An event at +inf would fire in an unbounded run() and leave the
    # clock (and sim.engine.virtual_time) at inf.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(math.inf, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(math.inf, lambda: None)
    assert sim._heap == []


def test_node_view_rejects_infinite_times():
    sim = Simulator()
    view = _NodeSimView(_GapRecorder([]), 0, sim)
    with pytest.raises(SimulationError):
        view.schedule(math.inf, lambda: None)
    with pytest.raises(SimulationError):
        view.schedule_at(math.inf, lambda: None)
    assert sim._heap == []


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
    fired = []
    sim.schedule(1.0, fired.append, "x")
    for until in (math.nan, math.inf):
        with pytest.raises(SimulationError):
            sim.run(until=until)
    assert fired == []
    assert sim.now == 5.0


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


def test_run_until_in_the_past_leaves_the_heap_untouched():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run(until=5.0)
    sim.schedule(1.0, lambda: None).cancel()  # a cancelled head at t=6
    sim.schedule(2.0, lambda: None)
    heap = list(sim._heap)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)
    assert sim._heap == heap
    assert sim.now == 5.0
    assert not sim._running
    sim.run()
    assert sim.event_count == 2


def test_step_inside_run_raises():
    sim = Simulator()
    fired = []
    errors = []

    def nested_step():
        try:
            sim.step()
        except SimulationError as error:
            errors.append(error)

    sim.schedule(1.0, nested_step)
    sim.schedule(2.0, fired.append, "later")
    sim.run(until=1.5)
    assert len(errors) == 1
    assert fired == []  # the t=2 event was not dispatched nested
    assert sim.event_count == 1
    sim.run()
    assert fired == ["later"]


def test_raising_callback_leaves_counts_and_clock_at_its_event():
    def boom():
        raise RuntimeError("callback failed")

    with isolated() as reg:
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.5, boom)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(until=10.0)
    # The raising event is counted and the clock stands at its time.
    assert sim.event_count == 2
    assert reg.value("sim.engine.events") == 2
    assert reg.value("sim.engine.virtual_time") == 2.5
    assert sim.now == 2.5
    assert not sim._running
    sim.run()
    assert sim.event_count == 3
    assert sim.now == 3.0


# ----------------------------------------------------------------------
# Dispatch order against a naive reference
# ----------------------------------------------------------------------
#: Few distinct delays, zeros included, so equal-time ties are common.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)
#: Where an event is scheduled: the simulator or one of two node views.
VIA = ("sim", "view0", "view1")


def _ops(children):
    """A program: schedule (relative or absolute, through any ``VIA``,
    with a child program the callback runs) or cancel the k-th event
    scheduled so far."""
    schedule = st.tuples(
        st.sampled_from(("schedule", "schedule_at")),
        st.sampled_from(VIA),
        st.sampled_from(DELAYS),
        children,
    )
    cancel = st.tuples(st.just("cancel"), st.integers(0, 40))
    return st.lists(st.one_of(schedule, cancel), max_size=4)


_PROGRAMS = _ops(_ops(_ops(st.just([]))))


class _GapRecorder:
    """Stands in for a fleet: its gap closer only logs the node index."""

    def __init__(self, trace):
        self.trace = trace

    def _close_gap(self, index):
        self.trace.append(("gap", index))


def _run_engine(program, until):
    trace = []
    with isolated() as reg:
        sim = Simulator()
        fleet = _GapRecorder(trace)
        targets = {
            "sim": sim,
            "view0": _NodeSimView(fleet, 0, sim),
            "view1": _NodeSimView(fleet, 1, sim),
        }
        handles = []

        def fire(label, children):
            trace.append(("fire", label, sim.now))
            execute(children)

        def execute(ops):
            for op in ops:
                if op[0] == "cancel":
                    if handles:
                        handles[op[1] % len(handles)].cancel()
                    continue
                kind, via, delay, children = op
                target = targets[via]
                label = len(handles)
                if kind == "schedule":
                    handles.append(target.schedule(delay, fire, label, children))
                else:
                    handles.append(
                        target.schedule_at(target.now + delay, fire, label, children)
                    )

        execute(program)
        sim.run(until=until)
        sim.run()
    fired = {entry[1] for entry in trace if entry[0] == "fire"}
    assert [h.dispatched for h in handles] == [i in fired for i in range(len(handles))]
    return trace, sim.now, sim.event_count, reg.value("sim.engine.events")


def _run_reference(program, until):
    """Dispatch by repeatedly taking the minimum (time, insertion index)
    among live pending events — a stable sort, with cancelled events
    dropped."""
    trace = []
    pending = []
    cancelled = set()
    scheduled = 0
    now = 0.0
    count = 0

    def execute(ops):
        nonlocal scheduled
        for op in ops:
            if op[0] == "cancel":
                if scheduled:
                    cancelled.add(op[1] % scheduled)
                continue
            _, via, delay, children = op
            pending.append((now + delay, scheduled, via, children))
            scheduled += 1

    def dispatch_through(bound):
        nonlocal now, count
        while True:
            live = [e for e in pending if e[1] not in cancelled]
            if not live:
                return
            entry = min(live, key=lambda e: (e[0], e[1]))
            if entry[0] > bound:
                return
            pending.remove(entry)
            time, label, via, children = entry
            now = time
            count += 1
            if via != "sim":
                trace.append(("gap", int(via[-1])))
            trace.append(("fire", label, now))
            execute(children)

    execute(program)
    dispatch_through(until)
    now = until
    dispatch_through(math.inf)
    return trace, now, count, count


@settings(max_examples=300, deadline=None)
@given(program=_PROGRAMS, until=st.sampled_from((0.0, 0.25, 0.6, 1.0, 5.0)))
def test_dispatch_order_matches_naive_reference(program, until):
    assert _run_engine(program, until) == _run_reference(program, until)
