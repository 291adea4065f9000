"""The paper's primary contribution: master node, client, integration.

* :class:`MasterNode` — unique entry point, ontology, redirect-only
  query resolution;
* :class:`DistrictClient` — the end-user application workflow
  (resolve -> fetch from proxies -> integrate);
* :func:`integrate` / :class:`IntegratedModel` — client-side merging of
  heterogeneous source models with conflict detection;
* :class:`ConsumptionProfiler` / :func:`awareness_report` — the energy
  profiling and user-awareness products built on top;
* :func:`replicate` / :class:`ReplicationGroup` — high availability
  for the stateful hubs: replicated nodes with epoch-fenced failover
  (see :mod:`repro.core.replication`).
"""

from repro.core.analytics import (
    Anomaly,
    AnomalyDetector,
    DemandResponsePlanner,
    SheddingPlan,
)
from repro.core.client import DistrictClient
from repro.core.integration import (
    IntegratedEntity,
    IntegratedModel,
    PropertyConflict,
    integrate,
)
from repro.core.master import MasterNode
from repro.core.monitoring import (
    AwarenessReport,
    BuildingAwareness,
    ConsumptionProfiler,
    awareness_report,
)
from repro.core.relay import RelayingMaster
from repro.core.replication import (
    ReplicatedNode,
    ReplicationConfig,
    ReplicationGroup,
    replicate,
)

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "AwarenessReport",
    "BuildingAwareness",
    "ConsumptionProfiler",
    "DemandResponsePlanner",
    "DistrictClient",
    "IntegratedEntity",
    "IntegratedModel",
    "MasterNode",
    "PropertyConflict",
    "RelayingMaster",
    "ReplicatedNode",
    "ReplicationConfig",
    "ReplicationGroup",
    "SheddingPlan",
    "awareness_report",
    "integrate",
    "replicate",
]
