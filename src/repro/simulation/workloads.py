"""Query workloads for the experiment harness.

Generates reproducible streams of area queries — whole-district,
random sub-areas (bounding boxes over the street grid), single-building
and quantity-filtered — and drives a client through them while
recording simulated latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.client import DistrictClient
from repro.datasources.geometry import BoundingBox
from repro.errors import ConfigurationError
from repro.observability.metrics import MetricsRegistry
from repro.ontology.queries import AreaQuery
from repro.simulation.scenario import DeployedDistrict


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    queries: int
    entities_returned: int
    devices_returned: int
    metrics: MetricsRegistry


def whole_district_query(deployment: DeployedDistrict) -> AreaQuery:
    """The coarsest query: everything in the district."""
    return AreaQuery(district_id=deployment.district_id)


def random_area_queries(deployment: DeployedDistrict, count: int,
                        seed: int = 0, fraction: float = 0.4
                        ) -> List[AreaQuery]:
    """Random bounding-box queries covering ~*fraction* of the district."""
    if count < 1:
        raise ConfigurationError("workload needs at least one query")
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError("fraction must be in (0, 1]")
    rng = np.random.RandomState(seed)
    bounds = deployment.dataset.gis.district_bounds()
    width = (bounds.max_x - bounds.min_x) * fraction
    height = (bounds.max_y - bounds.min_y) * fraction
    queries = []
    for _ in range(count):
        x0 = rng.uniform(bounds.min_x, max(bounds.max_x - width,
                                           bounds.min_x))
        y0 = rng.uniform(bounds.min_y, max(bounds.max_y - height,
                                           bounds.min_y))
        queries.append(AreaQuery(
            district_id=deployment.district_id,
            bbox=BoundingBox(x0, y0, x0 + width, y0 + height),
        ))
    return queries


def single_building_queries(deployment: DeployedDistrict,
                            count: Optional[int] = None, seed: int = 0
                            ) -> List[AreaQuery]:
    """One query per (randomly chosen) building."""
    rng = np.random.RandomState(seed)
    buildings = deployment.dataset.buildings
    chosen = buildings if count is None else [
        buildings[int(rng.randint(0, len(buildings)))] for _ in range(count)
    ]
    return [
        AreaQuery(district_id=deployment.district_id,
                  entity_ids=(b.entity_id,))
        for b in chosen
    ]


def quantity_queries(deployment: DeployedDistrict, quantity: str = "power"
                     ) -> List[AreaQuery]:
    """District-wide query filtered to one sensed quantity."""
    return [AreaQuery(district_id=deployment.district_id,
                      quantity=quantity)]


def run_resolution_workload(client: DistrictClient,
                            deployment: DeployedDistrict,
                            queries: List[AreaQuery]) -> WorkloadResult:
    """Resolve each query, recording master resolution latency."""
    metrics = MetricsRegistry()
    entities = devices = 0
    for query in queries:
        with metrics.simulated("resolve", deployment.scheduler):
            resolved = client.resolve(query)
        entities += len(resolved.entities)
        devices += resolved.device_count
    return WorkloadResult(len(queries), entities, devices, metrics)


def run_integration_workload(client: DistrictClient,
                             deployment: DeployedDistrict,
                             queries: List[AreaQuery],
                             with_data: bool = False,
                             data_bucket: Optional[float] = 900.0
                             ) -> WorkloadResult:
    """Run the full resolve-fetch-integrate workflow per query."""
    metrics = MetricsRegistry()
    entities = devices = 0
    for query in queries:
        with metrics.simulated("integrate", deployment.scheduler):
            model = client.build_area_model(
                query, with_data=with_data, data_bucket=data_bucket
            )
        entities += len(model.entities)
        devices += model.device_count
    return WorkloadResult(len(queries), entities, devices, metrics)
