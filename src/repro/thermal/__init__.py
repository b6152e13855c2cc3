"""Lumped RC thermal model of the simulated package."""

from .floorplan import SINK, SPREADER, build_network, core_node_name
from .params import ThermalParams, default, fast
from .rcnetwork import ThermalIntegrator, ThermalNetwork
from .sensors import SensorBank, TemperatureSensor

__all__ = [
    "SensorBank",
    "SINK",
    "SPREADER",
    "TemperatureSensor",
    "ThermalIntegrator",
    "ThermalNetwork",
    "ThermalParams",
    "build_network",
    "core_node_name",
    "default",
    "fast",
]
