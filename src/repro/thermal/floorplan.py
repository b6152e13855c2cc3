"""Builds the chip thermal network from a floorplan description.

The modelled stack mirrors a lidded Nehalem-class package:

- one die node per core (cores laid out in a row, laterally coupled
  through the silicon/spreader),
- a copper heat-spreader node (also receives uncore power),
- a heatsink node coupled to chassis air at a fixed temperature
  (fans pinned at full speed, per the paper's setup).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigurationError
from .params import ThermalParams
from .rcnetwork import ThermalNetwork

#: Node name of the heat spreader.
SPREADER = "spreader"
#: Node name of the heatsink.
SINK = "sink"


def core_node_name(index: int) -> str:
    """Thermal node name for core ``index``."""
    return f"core{index}"


def build_network(params: ThermalParams, num_cores: int = 4) -> ThermalNetwork:
    """Construct the package thermal network.

    Layout: ``num_cores`` die nodes, then the spreader, then the sink.
    Returns a :class:`~repro.thermal.rcnetwork.ThermalNetwork` whose
    node order is ``[core0, ..., coreN-1, spreader, sink]``.
    """
    if num_cores < 1:
        raise ConfigurationError("need at least one core")

    n = num_cores + 2
    spreader = num_cores
    sink = num_cores + 1

    capacitances = np.empty(n)
    capacitances[:num_cores] = params.core_capacitance
    capacitances[spreader] = params.spreader_capacitance
    capacitances[sink] = params.sink_capacitance

    conductances = np.zeros((n, n))
    for i in range(num_cores):
        conductances[i, spreader] = params.core_to_spreader
        conductances[spreader, i] = params.core_to_spreader
    for i in range(num_cores - 1):
        conductances[i, i + 1] = params.core_to_core
        conductances[i + 1, i] = params.core_to_core
    conductances[spreader, sink] = params.spreader_to_sink
    conductances[sink, spreader] = params.spreader_to_sink

    ambient = np.zeros(n)
    ambient[sink] = params.sink_to_ambient

    names: List[str] = [core_node_name(i) for i in range(num_cores)] + [SPREADER, SINK]
    return ThermalNetwork(
        capacitances=capacitances,
        conductances=conductances,
        ambient_conductances=ambient,
        ambient_temp=params.ambient_temp,
        node_names=names,
    )
