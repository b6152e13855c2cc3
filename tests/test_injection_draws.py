"""Tests for the injector's held orders and the Bernoulli policies'
block-drawn coin flips: both must decide exactly as a fresh order and
a scalar ``Generator.random()`` per decision would."""

import pytest

from repro.core import (
    BernoulliInjectionPolicy,
    IdleInjector,
    IdleMode,
    InjectionPolicy,
    PolicyTable,
)
from repro.core.policy import DRAW_BLOCK, UniformDraws
from repro.experiments import Machine, fast_config
from repro.sched import Thread, ThreadKind
from repro.sim import RngRegistry
from repro.workloads import CpuBurn, DutyCycledBurn


# ----------------------------------------------------------------------
# Block draws
# ----------------------------------------------------------------------
def test_uniform_draws_equal_scalar_draws_across_refills():
    draws = UniformDraws(RngRegistry(seed=5).stream("inject"))
    scalar = RngRegistry(seed=5).stream("inject")
    count = 2 * DRAW_BLOCK + 5
    assert [draws.random() for _ in range(count)] == [scalar.random() for _ in range(count)]


def test_zero_p_bernoulli_policy_draws_nothing():
    draws = UniformDraws(RngRegistry(seed=5).stream("inject"))
    idle = BernoulliInjectionPolicy(0.0, 0.01, draws)
    live = BernoulliInjectionPolicy(0.5, 0.01, draws)
    scalar = RngRegistry(seed=5).stream("inject")
    decided = []
    expected = []
    for _ in range(3 * DRAW_BLOCK):
        assert not idle.should_inject(1)
        decided.append(live.should_inject(1))
        expected.append(scalar.random() < 0.5)
    assert decided == expected


def test_node_decisions_equal_scalar_draws(monkeypatch):
    """A global policy, a per-thread override with another p, a mid-run
    global change and an exempt thread: every coin flip of the node
    equals a scalar draw from a fresh generator on its seed and stream,
    taken in decision order."""
    decisions = []
    decide = IdleInjector.decide

    def recording(self, thread, now):
        order = decide(self, thread, now)
        if not (self.exempt_kernel_threads and thread.kind is ThreadKind.KERNEL):
            decisions.append((self.table.lookup(thread.tid).p, order is not None))
        return order

    monkeypatch.setattr(IdleInjector, "decide", recording)
    seed = 21
    machine = Machine(fast_config(seed=seed).scaled(num_cores=2, quantum=0.005))
    scheduler = machine.scheduler
    burn = scheduler.spawn(CpuBurn(), name="burn")
    duty = scheduler.spawn(DutyCycledBurn(0.02, 0.01), name="duty")
    exempt = scheduler.spawn(CpuBurn(), name="exempt")
    machine.control.set_global_policy(0.3, 0.004)
    machine.control.set_thread_policy(duty, 0.6, 0.002)
    machine.control.exempt_thread(exempt)
    machine.run(1.0)
    machine.control.set_global_policy(0.45, 0.003)
    machine.run(1.0)

    scalar = RngRegistry(seed=seed).stream("inject")
    expected = [(p, p > 0 and scalar.random() < p) for p, _ in decisions]
    assert decisions == expected
    drawn = [p for p, _ in decisions if p > 0]
    assert len(drawn) > 2 * DRAW_BLOCK
    assert {0.0, 0.3, 0.45, 0.6} <= {p for p, _ in decisions}
    assert burn.stats.injected_count > 0 and exempt.stats.injected_count == 0


# ----------------------------------------------------------------------
# Held orders
# ----------------------------------------------------------------------
class AlwaysInject(InjectionPolicy):
    def __init__(self, idle_quantum):
        self.p = 0.5
        self.idle_quantum = idle_quantum

    def should_inject(self, thread_id):
        return True


def test_one_held_order_per_setting():
    injector = IdleInjector(PolicyTable(default=AlwaysInject(0.01)))
    thread = Thread(CpuBurn())
    other = Thread(CpuBurn())
    injector.set_thread_policy(other, AlwaysInject(0.02))
    first = injector.decide(thread, 0.0)
    assert injector.decide(thread, 1.0) is first
    assert (first.length, first.mode, first.co_schedule) == (0.01, IdleMode.HALT, False)
    longer = injector.decide(other, 2.0)
    assert longer.length == 0.02 and longer is not first
    assert injector.decide(thread, 3.0) is first

    # Settings changed between decisions, as Machine() does after
    # building the node, take effect at the next decision.
    injector.mode = IdleMode.SPIN
    spin = injector.decide(thread, 4.0)
    assert (spin.length, spin.mode, spin.co_schedule) == (0.01, IdleMode.SPIN, False)
    injector.co_schedule_smt = True
    co = injector.decide(thread, 5.0)
    assert (co.length, co.mode, co.co_schedule) == (0.01, IdleMode.SPIN, True)
    injector.mode = IdleMode.HALT
    injector.co_schedule_smt = False
    assert injector.decide(thread, 6.0) is first
    assert injector.stats.injections == 7


@pytest.mark.parametrize("mode", [IdleMode.HALT, IdleMode.SPIN])
@pytest.mark.parametrize("co_schedule_smt", [False, True])
def test_machine_settings_reach_the_orders(mode, co_schedule_smt):
    machine = Machine(
        fast_config(seed=2).scaled(num_cores=2, smt=2),
        idle_mode=mode,
        co_schedule_smt=co_schedule_smt,
    )
    machine.scheduler.spawn(CpuBurn(), name="burn")
    machine.control.set_global_policy(0.5, 0.01)
    orders = []
    decide = machine.injector.decide

    def recording(thread, now):
        orders.append(decide(thread, now))
        return orders[-1]

    machine.injector.decide = recording
    machine.run(1.0)
    placed = {id(order): order for order in orders if order is not None}
    assert len(placed) == 1
    (order,) = placed.values()
    assert (order.length, order.mode, order.co_schedule) == (0.01, mode, co_schedule_smt)
