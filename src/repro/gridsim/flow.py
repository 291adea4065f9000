"""Distribution-network flow analysis on SIM models.

The paper's introduction motivates the infrastructure with "tracing
energy consumption at different levels of detail is crucial to increase
distribution networks efficiency".  This module closes that loop: given
a network's SIM export and the measured building demands retrieved
through the framework, it computes per-segment flows, losses,
utilisation and the network's delivery efficiency.

The model is a radial (tree) network: each consumer's demand is routed
along its unique path to the plant; segment losses are quadratic in
utilisation (I²R-like for cables, friction-like for pipes)::

    loss_kw = loss_coeff * (length_m / 1000) * rating * utilisation²

A one-pass solve (no loss feedback into flows) keeps results exact for
the reported quantities and is standard for screening studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.integration import IntegratedModel
from repro.datasources.sim import NODE_CONSUMER, SimStore
from repro.errors import IntegrationError, QueryError, UnknownEntityError


@dataclass(frozen=True)
class SegmentFlow:
    """Computed state of one network segment."""

    edge_id: str
    source: str
    target: str
    flow_kw: float
    rating_kw: float
    loss_kw: float

    @property
    def utilisation(self) -> float:
        """Flow as a fraction of the segment rating."""
        if self.rating_kw <= 0:
            return 0.0
        return self.flow_kw / self.rating_kw

    @property
    def overloaded(self) -> bool:
        return self.utilisation > 1.0


@dataclass
class NetworkState:
    """Solved flow state of one distribution network."""

    network_name: str
    demands_kw: Dict[str, float]
    segments: Dict[str, SegmentFlow] = field(default_factory=dict)

    @property
    def delivered_kw(self) -> float:
        """Total demand served at the consumers."""
        return sum(self.demands_kw.values())

    @property
    def losses_kw(self) -> float:
        """Total segment losses."""
        return sum(s.loss_kw for s in self.segments.values())

    @property
    def injected_kw(self) -> float:
        """Power the plant must inject (demand plus losses)."""
        return self.delivered_kw + self.losses_kw

    @property
    def efficiency(self) -> float:
        """Delivered over injected; 1.0 for a lossless or idle network."""
        injected = self.injected_kw
        if injected <= 0:
            return 1.0
        return self.delivered_kw / injected

    @property
    def overloaded_segments(self) -> List[SegmentFlow]:
        """Segments above rating, worst first."""
        return sorted(
            (s for s in self.segments.values() if s.overloaded),
            key=lambda s: -s.utilisation,
        )

    def worst_segments(self, count: int = 3) -> List[SegmentFlow]:
        """Highest-utilisation segments, for reinforcement planning."""
        return sorted(self.segments.values(),
                      key=lambda s: -s.utilisation)[:count]


class FlowSolver:
    """Routes consumer demands to the plant over a radial SIM network."""

    def __init__(self, sim: SimStore):
        self.sim = sim
        self._edge_rows = {e["edge_id"]: e for e in sim.edges()}

    def solve(self, demands_kw: Dict[str, float]) -> NetworkState:
        """Compute segment flows and losses for the given demands.

        *demands_kw* maps consumer node ids to their demand; unknown
        nodes raise, negative demands (distributed generation at a
        service point) are allowed and reduce upstream flow.
        """
        flows: Dict[str, float] = {e: 0.0 for e in self._edge_rows}
        for consumer, demand in demands_kw.items():
            node = self.sim.node(consumer)
            if node["kind"] != NODE_CONSUMER:
                raise QueryError(
                    f"{consumer!r} is not a consumer node"
                )
            path = self.sim.path_to_plant(consumer)
            for upstream, downstream in zip(path[1:], path[:-1]):
                edge = self._edge_between(upstream, downstream)
                flows[edge] += demand
        state = NetworkState(self.sim.network_name, dict(demands_kw))
        for edge_id, flow in flows.items():
            row = self._edge_rows[edge_id]
            rating = float(row["rating"])
            utilisation = abs(flow) / rating if rating > 0 else 0.0
            loss = (float(row["loss_coeff"])
                    * (float(row["length_m"]) / 1000.0)
                    * rating * utilisation ** 2)
            state.segments[edge_id] = SegmentFlow(
                edge_id=edge_id,
                source=row["source"],
                target=row["target"],
                flow_kw=flow,
                rating_kw=rating,
                loss_kw=loss,
            )
        return state

    def _edge_between(self, a: str, b: str) -> str:
        for edge in self.sim.edges_at(a):
            if edge["source"] in (a, b) and edge["target"] in (a, b):
                return edge["edge_id"]
        raise QueryError(f"no edge between {a!r} and {b!r}")


def demands_from_model(model: IntegratedModel, network_id: str,
                       sim: SimStore,
                       load_fraction: float = 1.0
                       ) -> Dict[str, float]:
    """Derive consumer demands from an integrated model's measurements.

    Each building's latest feeder power (the device sensing both power
    and energy) becomes the demand at the consumer node serving its
    cadastral parcel; *load_fraction* scales electrical load to the
    network's commodity (e.g. the thermal share on a heat network).
    """
    if not 0.0 < load_fraction <= 1.0:
        raise QueryError("load fraction must be in (0, 1]")
    model.entity(network_id)  # validates the network is in the model
    demands: Dict[str, float] = {}
    for building in model.buildings:
        cadastral = building.properties.get("cadastral_id")
        if not cadastral:
            continue
        try:
            consumer = sim.consumer_for_parcel(str(cadastral))
        except UnknownEntityError:
            continue  # this network does not serve the parcel
        watts: Optional[float] = None
        for device in building.devices:
            if "power" in device.quantities and \
                    "energy" in device.quantities:
                samples = building.samples(device.device_id, "power")
                if samples:
                    watts = samples[-1][1]
                break
        if watts is None:
            continue
        demands[consumer] = demands.get(consumer, 0.0) + \
            watts / 1000.0 * load_fraction
    if not demands:
        raise IntegrationError(
            f"no measured demands found for network {network_id!r}"
        )
    return demands
