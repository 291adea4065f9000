"""Energy analytics on integrated data: anomalies and demand response.

The paper motivates the infrastructure with energy optimisation and
user feedback (§IV claims ii and iii).  This module supplies the two
analytics a district operator runs on the integrated data:

* :class:`AnomalyDetector` — learns each building's typical load shape
  (mean/std per weekday-class and hour) from history and flags buckets
  that deviate beyond a z-score threshold; catches stuck meters,
  always-on HVAC, weekend waste;
* :class:`DemandResponsePlanner` — given a peak-shaving target, ranks
  the district's HVAC actuators by estimated savings per setpoint
  degree (inferred from their measured power and setpoint — no device
  model parameters needed) and produces an actuation plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.common.simtime import hour_of_day, is_weekend
from repro.core.integration import IntegratedModel
from repro.errors import QueryError
from repro.ontology.queries import ResolvedDevice


# --------------------------------------------------------------------------
# anomaly detection


@dataclass(frozen=True)
class Anomaly:
    """One flagged deviation from a building's typical load."""

    entity_id: str
    timestamp: float
    observed_watts: float
    expected_watts: float
    z_score: float

    @property
    def excess_watts(self) -> float:
        return self.observed_watts - self.expected_watts


@dataclass
class LoadBaseline:
    """Per (weekday-class, hour) load statistics for one building."""

    entity_id: str
    mean: Dict[Tuple[bool, int], float] = field(default_factory=dict)
    std: Dict[Tuple[bool, int], float] = field(default_factory=dict)

    def slot(self, t: float) -> Tuple[bool, int]:
        return is_weekend(t), int(hour_of_day(t))

    def expected(self, t: float) -> float:
        """Expected power at *t*; raises if the slot was never trained."""
        key = self.slot(t)
        try:
            return self.mean[key]
        except KeyError:
            raise QueryError(
                f"baseline for {self.entity_id} has no data for slot {key}"
            ) from None

    def deviation(self, t: float, observed: float) -> float:
        """z-score of *observed* against the slot's statistics."""
        key = self.slot(t)
        sigma = max(self.std.get(key, 0.0), 1e-6)
        return (observed - self.mean[key]) / sigma


class AnomalyDetector:
    """Baseline-and-z-score anomaly detection on building loads."""

    def __init__(self, z_threshold: float = 3.0,
                 min_floor_sigma: float = 50.0):
        if z_threshold <= 0:
            raise QueryError("z threshold must be positive")
        self.z_threshold = z_threshold
        # floor on sigma so near-constant baselines don't flag noise
        self.min_floor_sigma = min_floor_sigma
        self._baselines: Dict[str, LoadBaseline] = {}

    def fit(self, entity_id: str,
            samples: List[Tuple[float, float]]) -> LoadBaseline:
        """Learn a building's baseline from historical (t, W) samples."""
        if not samples:
            raise QueryError(f"no history to fit baseline for {entity_id}")
        buckets: Dict[Tuple[bool, int], List[float]] = {}
        for t, watts in samples:
            key = (is_weekend(t), int(hour_of_day(t)))
            buckets.setdefault(key, []).append(watts)
        baseline = LoadBaseline(entity_id)
        for key, values in buckets.items():
            arr = np.asarray(values, dtype=float)
            baseline.mean[key] = float(np.mean(arr))
            baseline.std[key] = max(float(np.std(arr)),
                                    self.min_floor_sigma)
        self._baselines[entity_id] = baseline
        return baseline

    def baseline(self, entity_id: str) -> LoadBaseline:
        try:
            return self._baselines[entity_id]
        except KeyError:
            raise QueryError(
                f"no baseline fitted for {entity_id!r}"
            ) from None

    def detect(self, entity_id: str,
               samples: List[Tuple[float, float]]) -> List[Anomaly]:
        """Flag samples deviating beyond the z threshold."""
        baseline = self.baseline(entity_id)
        anomalies: List[Anomaly] = []
        for t, watts in samples:
            key = baseline.slot(t)
            if key not in baseline.mean:
                continue  # untrained slot: cannot judge
            z = baseline.deviation(t, watts)
            if abs(z) >= self.z_threshold:
                anomalies.append(Anomaly(
                    entity_id=entity_id,
                    timestamp=t,
                    observed_watts=watts,
                    expected_watts=baseline.mean[key],
                    z_score=z,
                ))
        return anomalies


# --------------------------------------------------------------------------
# demand-response planning


@dataclass(frozen=True)
class SheddingAction:
    """One planned actuation with its estimated effect."""

    device: ResolvedDevice
    entity_id: str
    current_setpoint: float
    new_setpoint: float
    estimated_savings_watts: float


@dataclass
class SheddingPlan:
    """An ordered set of actions meeting (or approaching) the target."""

    target_watts: float
    actions: List[SheddingAction] = field(default_factory=list)

    @property
    def estimated_savings_watts(self) -> float:
        return sum(a.estimated_savings_watts for a in self.actions)

    @property
    def meets_target(self) -> bool:
        return self.estimated_savings_watts >= self.target_watts


class DemandResponsePlanner:
    """Plans HVAC setpoint reductions to shave a given load target.

    Savings per degree are estimated purely from observed data: a heat
    pump holding setpoint ``sp`` against outdoor temperature ``T_out``
    draws ``P ~ k (sp - T_out)``, so one degree of setpoint reduction
    saves about ``P / (sp - T_out)`` watts.
    """

    def __init__(self, outdoor_temperature: float,
                 max_reduction_degrees: float = 3.0,
                 min_setpoint: float = 16.0):
        if max_reduction_degrees <= 0:
            raise QueryError("reduction must be positive")
        self.outdoor_temperature = outdoor_temperature
        self.max_reduction_degrees = max_reduction_degrees
        self.min_setpoint = min_setpoint

    def _candidates(self, model: IntegratedModel
                    ) -> List[Tuple[ResolvedDevice, str, float, float]]:
        out = []
        for entity in model.entities.values():
            for device in entity.devices:
                if not device.is_actuator or \
                        "setpoint" not in device.quantities or \
                        "power" not in device.quantities:
                    continue
                power = entity.samples(device.device_id, "power")
                setpoint = entity.samples(device.device_id, "setpoint")
                if not power or not setpoint:
                    continue
                out.append((device, entity.entity_id, power[-1][1],
                            setpoint[-1][1]))
        return out

    def savings_per_degree(self, power_watts: float,
                           setpoint: float) -> float:
        """Estimated watts saved per degree of setpoint reduction."""
        gap = setpoint - self.outdoor_temperature
        if gap <= 0.5 or power_watts <= 0:
            return 0.0
        return power_watts / gap

    def plan(self, model: IntegratedModel, target_watts: float
             ) -> SheddingPlan:
        """Greedy plan: biggest savers first, until the target is met."""
        if target_watts <= 0:
            raise QueryError("shaving target must be positive")
        candidates = []
        for device, entity_id, power, setpoint in self._candidates(model):
            per_degree = self.savings_per_degree(power, setpoint)
            if per_degree <= 0:
                continue
            reduction = min(self.max_reduction_degrees,
                            max(setpoint - self.min_setpoint, 0.0))
            if reduction <= 0:
                continue
            candidates.append(SheddingAction(
                device=device,
                entity_id=entity_id,
                current_setpoint=setpoint,
                new_setpoint=setpoint - reduction,
                estimated_savings_watts=per_degree * reduction,
            ))
        candidates.sort(key=lambda a: -a.estimated_savings_watts)
        plan = SheddingPlan(target_watts=target_watts)
        for action in candidates:
            if plan.estimated_savings_watts >= target_watts:
                break
            plan.actions.append(action)
        return plan

    def execute(self, plan: SheddingPlan, client,
                on_result=None) -> int:
        """Dispatch every action through the client; returns the count."""
        for action in plan.actions:
            client.actuate(action.device, "setpoint",
                           action.new_setpoint, on_result=on_result)
        return len(plan.actions)
