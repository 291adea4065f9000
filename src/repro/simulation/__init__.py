"""Scenario deployment, workloads and metrics for experiments."""

from repro.simulation.faults import FaultInjector
from repro.simulation.metrics import resilience_counters
from repro.simulation.scenario import (
    DeployedDistrict,
    Federation,
    ScenarioConfig,
    build_device,
    deploy,
    deploy_federation,
    deploy_into,
)
from repro.simulation.soak import SoakConfig, SoakResult, run_soak
from repro.simulation.workloads import (
    WorkloadResult,
    quantity_queries,
    random_area_queries,
    run_integration_workload,
    run_resolution_workload,
    single_building_queries,
    whole_district_query,
)

__all__ = [
    "DeployedDistrict",
    "FaultInjector",
    "Federation",
    "ScenarioConfig",
    "SoakConfig",
    "SoakResult",
    "WorkloadResult",
    "build_device",
    "deploy",
    "deploy_federation",
    "deploy_into",
    "quantity_queries",
    "random_area_queries",
    "resilience_counters",
    "run_integration_workload",
    "run_resolution_workload",
    "run_soak",
    "single_building_queries",
    "whole_district_query",
]
