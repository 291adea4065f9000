"""Consumption profiling and user-awareness reporting.

The paper's stated purposes: "(i) manage data to profile energy
consumption, from the whole city-district point-of-view down to the
single building" and "(iii) increase user awareness".  This module
computes exactly those products from an integrated area model:

* :class:`ConsumptionProfiler` — bucketed power profiles and energy
  totals at device, building, network and district level, rolled up
  from the retrieved measurements;
* :func:`awareness_report` — per-building energy intensity (kWh/m2,
  joining BIM floor areas with measured energy), rankings against the
  district average, and peak analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.integration import IntegratedEntity, IntegratedModel
from repro.errors import QueryError
from repro.storage.timeseries import TimeSeries, aligned_sum


def _power_series(entity: IntegratedEntity) -> List[TimeSeries]:
    """One series per power-sensing device of an entity."""
    out = []
    for device in entity.devices:
        if "power" not in device.quantities:
            continue
        samples = entity.samples(device.device_id, "power")
        if samples:
            out.append(TimeSeries(samples))
    return out


class ConsumptionProfiler:
    """Multi-resolution power/energy profiling over an integrated model."""

    def __init__(self, model: IntegratedModel, bucket: float = 900.0):
        if bucket <= 0:
            raise QueryError("profiling bucket must be positive")
        self.model = model
        self.bucket = bucket

    # -- single building ---------------------------------------------------

    def building_profile(self, entity_id: str) -> List[Tuple[float, float]]:
        """Bucketed total power of one building (sum over its devices).

        Uses only the feeder meters (the first power device) when one
        exists, otherwise sums every power-sensing device — summing
        feeder and sub-meters would double-count.
        """
        entity = self.model.entity(entity_id)
        series = self._feeder_series(entity)
        if series is None:
            return aligned_sum(_power_series(entity), self.bucket)
        return series.resample(self.bucket, "mean")

    def _feeder_series(self, entity: IntegratedEntity
                       ) -> Optional[TimeSeries]:
        for device in entity.devices:
            if "power" in device.quantities and "energy" in \
                    device.quantities:
                samples = entity.samples(device.device_id, "power")
                if samples:
                    return TimeSeries(samples)
        return None

    # -- district ------------------------------------------------------------

    def district_profile(self) -> List[Tuple[float, float]]:
        """Bucketed total power of every building in the model."""
        per_building = []
        for entity in self.model.buildings:
            profile = self.building_profile(entity.entity_id)
            if profile:
                per_building.append(TimeSeries(profile))
        return aligned_sum(per_building, self.bucket)

    def building_energy_wh(self, entity_id: str) -> float:
        """Energy consumed by a building over the retrieved window."""
        profile = self.building_profile(entity_id)
        return TimeSeries(profile).integrate_hours()

    def district_energy_wh(self) -> float:
        """Energy consumed by the whole modelled area."""
        return sum(
            self.building_energy_wh(e.entity_id)
            for e in self.model.buildings
        )

    def peak(self, entity_id: Optional[str] = None
             ) -> Tuple[float, float]:
        """(time, power) of the peak bucket, district-wide or per building."""
        profile = (self.building_profile(entity_id) if entity_id
                   else self.district_profile())
        if not profile:
            raise QueryError("no samples to find a peak in")
        return max(profile, key=lambda p: p[1])


@dataclass
class BuildingAwareness:
    """Per-building awareness figures."""

    entity_id: str
    name: str
    energy_wh: float
    floor_area_m2: Optional[float]
    intensity_wh_per_m2: Optional[float]
    vs_district_average: Optional[float]  # 1.0 = average
    peak_time: float
    peak_watts: float


@dataclass
class AwarenessReport:
    """District awareness summary, ranked worst-first by intensity."""

    district_id: str
    window_hours: float
    district_energy_wh: float
    buildings: List[BuildingAwareness] = field(default_factory=list)

    @property
    def ranked(self) -> List[BuildingAwareness]:
        """Buildings with known intensity, most intensive first."""
        known = [b for b in self.buildings
                 if b.intensity_wh_per_m2 is not None]
        return sorted(known, key=lambda b: -b.intensity_wh_per_m2)

    def building(self, entity_id: str) -> BuildingAwareness:
        for building in self.buildings:
            if building.entity_id == entity_id:
                return building
        raise QueryError(f"no building {entity_id!r} in report")


def awareness_report(model: IntegratedModel, bucket: float = 900.0,
                     window_hours: Optional[float] = None
                     ) -> AwarenessReport:
    """Build the user-awareness report for an integrated area model.

    Floor areas come from the BIM models (via the merged properties),
    energy from the measured power profiles — the cross-source join the
    infrastructure exists to make easy.
    """
    profiler = ConsumptionProfiler(model, bucket)
    entries: List[BuildingAwareness] = []
    intensities: List[float] = []
    for entity in model.buildings:
        energy = profiler.building_energy_wh(entity.entity_id)
        raw_area = entity.properties.get("floor_area_m2")
        area = float(raw_area) if raw_area else None
        intensity = energy / area if area else None
        try:
            peak_time, peak_watts = profiler.peak(entity.entity_id)
        except QueryError:
            peak_time, peak_watts = 0.0, 0.0
        entries.append(BuildingAwareness(
            entity_id=entity.entity_id,
            name=entity.name,
            energy_wh=energy,
            floor_area_m2=area,
            intensity_wh_per_m2=intensity,
            vs_district_average=None,
            peak_time=peak_time,
            peak_watts=peak_watts,
        ))
        if intensity is not None:
            intensities.append(intensity)
    average = sum(intensities) / len(intensities) if intensities else None
    if average:
        for entry in entries:
            if entry.intensity_wh_per_m2 is not None:
                entry.vs_district_average = \
                    entry.intensity_wh_per_m2 / average
    if window_hours is None:
        window_hours = _window_hours(model)
    return AwarenessReport(
        district_id=model.district_id,
        window_hours=window_hours,
        district_energy_wh=profiler.district_energy_wh(),
        buildings=entries,
    )


def _window_hours(model: IntegratedModel) -> float:
    lo, hi = float("inf"), float("-inf")
    for entity in model.entities.values():
        for samples in entity.measurements.values():
            if samples:
                lo = min(lo, samples[0][0])
                hi = max(hi, samples[-1][0])
    if hi <= lo:
        return 0.0
    return (hi - lo) / 3600.0
