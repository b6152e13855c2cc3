"""The assembled testbed: chip + thermal + scheduler + instruments.

:func:`Machine` builds the simulated equivalent of the paper's 1U
server (§3.2): node 0 of a fleet of one, a
:class:`~repro.fleet.machine.FleetNode`, where the server is wired and
its physics integrated.  Every callback scheduled on the node's
:attr:`~repro.fleet.machine.FleetNode.sim` first records the thermal
gap since the node's last event — split at C-state promotion instants
so idle power is time-accurate — and the recorded pieces are
integrated whenever temperatures or energy are read.

The machine starts from *thermal equilibrium at idle* — the paper's
baseline "idle temperature" — so temperature-rise metrics are
well-defined from t = 0.
"""

from __future__ import annotations

from typing import Optional

from ..core.injector import IdleMode
from ..fleet.machine import FleetMachine, FleetNode
from .config import ExperimentConfig


def Machine(
    config: Optional[ExperimentConfig] = None,
    *,
    idle_mode: IdleMode = IdleMode.HALT,
    co_schedule_smt: bool = False,
) -> FleetNode:
    """A fully wired simulated server: node 0 of
    ``FleetMachine([config])`` (None: the default config), its injector
    set to ``idle_mode`` and, under SMT, to idle sibling contexts
    together when ``co_schedule_smt``."""
    node = FleetMachine([config or ExperimentConfig()]).nodes[0]
    node.injector.mode = idle_mode
    node.injector.co_schedule_smt = co_schedule_smt
    return node
