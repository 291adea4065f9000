"""Simulated field devices: profiles, device models, firmware, radio links."""

from repro.devices.base import (
    ActuatorChannel,
    SensorChannel,
    SimulatedDevice,
)
from repro.devices.catalog import (
    dimmable_light,
    environment_sensor,
    heat_flow_meter,
    hvac_controller,
    occupancy_sensor,
    power_meter,
    pv_inverter,
    smart_plug,
)
from repro.devices.energy import (
    EnergyBudget,
    budget_for_protocol,
    fleet_energy_report,
)
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.devices.mesh import MeshLink, MeshNetwork
from repro.devices.profiles import (
    ClampedProfile,
    ConstantProfile,
    DailyShapeProfile,
    EnergyCounter,
    HvacProfile,
    NoisyProfile,
    OfficeOccupancyProfile,
    PhotovoltaicProfile,
    Profile,
    ResidentialProfile,
    ScaledProfile,
    StepProfile,
    SumProfile,
    WeatherProfile,
    office_building_load,
    residential_building_load,
)

__all__ = [
    "ActuatorChannel",
    "ClampedProfile",
    "ConstantProfile",
    "DailyShapeProfile",
    "DeviceFirmware",
    "EnergyBudget",
    "EnergyCounter",
    "budget_for_protocol",
    "fleet_energy_report",
    "HvacProfile",
    "MeshLink",
    "MeshNetwork",
    "NoisyProfile",
    "OfficeOccupancyProfile",
    "PhotovoltaicProfile",
    "Profile",
    "RadioLink",
    "ResidentialProfile",
    "ScaledProfile",
    "SensorChannel",
    "SimulatedDevice",
    "StepProfile",
    "SumProfile",
    "WeatherProfile",
    "dimmable_light",
    "environment_sensor",
    "heat_flow_meter",
    "hvac_controller",
    "occupancy_sensor",
    "office_building_load",
    "power_meter",
    "pv_inverter",
    "residential_building_load",
    "smart_plug",
]
