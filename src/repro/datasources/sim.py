"""SIM database: one System Information Model per distribution network.

Figure 1(a) places one database per "distribution network (System
Information Model, SIM)".  The native schema is relational-tabular: a
node table, an edge table and a service-point table, as a utility's
asset-management export would be.  Buildings are referenced by
*cadastral parcel id* — not by BIM GlobalIds or framework entity ids —
so integrating SIM data with building models requires the GIS join the
ontology encodes, exactly the heterogeneity the paper calls out
("conflicting values across different databases").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, UnknownEntityError

COMMODITY_HEAT = "heat"
COMMODITY_ELECTRICITY = "electricity"
COMMODITIES = (COMMODITY_HEAT, COMMODITY_ELECTRICITY)

NODE_PLANT = "plant"
NODE_JUNCTION = "junction"
NODE_CONSUMER = "consumer"
_NODE_KINDS = (NODE_PLANT, NODE_JUNCTION, NODE_CONSUMER)


class SimStore:
    """A distribution network's SIM export in its native table schema.

    :attr:`version` moves with every ``add_*`` call (see
    :class:`~repro.datasources.bim.BimStore`).
    """

    def __init__(self, network_name: str, commodity: str):
        if commodity not in COMMODITIES:
            raise ConfigurationError(f"unknown commodity {commodity!r}")
        self.network_name = network_name
        self.commodity = commodity
        self.version = 0
        # node table: node id -> row
        self._nodes: Dict[str, Dict] = {}
        # edge table: edge id -> row
        self._edges: Dict[str, Dict] = {}
        # service point table: consumer node -> cadastral parcel id
        self._service_points: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._nodes) + len(self._edges)

    # -- construction ----------------------------------------------------

    def add_node(self, node_id: str, kind: str, x: float, y: float,
                 capacity_kw: float = 0.0) -> None:
        """Insert a node row."""
        if kind not in _NODE_KINDS:
            raise ConfigurationError(f"unknown node kind {kind!r}")
        if node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node_id!r}")
        self._nodes[node_id] = {
            "node_id": node_id, "kind": kind, "x": x, "y": y,
            "capacity_kw": capacity_kw,
        }
        self.version += 1

    def add_edge(self, edge_id: str, source: str, target: str,
                 length_m: float, rating: float, loss_coeff: float = 0.01
                 ) -> None:
        """Insert an edge row (pipe segment or feeder cable)."""
        for node in (source, target):
            if node not in self._nodes:
                raise ConfigurationError(f"edge references missing node "
                                         f"{node!r}")
        if edge_id in self._edges:
            raise ConfigurationError(f"duplicate edge id {edge_id!r}")
        if length_m <= 0:
            raise ConfigurationError("edge length must be positive")
        self._edges[edge_id] = {
            "edge_id": edge_id, "source": source, "target": target,
            "length_m": length_m, "rating": rating,
            "loss_coeff": loss_coeff,
        }
        self.version += 1

    def add_service_point(self, consumer_node: str, cadastral_id: str
                          ) -> None:
        """Bind a consumer node to the cadastral parcel it serves."""
        node = self.node(consumer_node)
        if node["kind"] != NODE_CONSUMER:
            raise ConfigurationError(
                f"service point on non-consumer node {consumer_node!r}"
            )
        self._service_points[consumer_node] = cadastral_id
        self.version += 1

    # -- native queries -----------------------------------------------------

    def node(self, node_id: str) -> Dict:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownEntityError(f"no SIM node {node_id!r}") from None

    def nodes(self, kind: Optional[str] = None) -> List[Dict]:
        """Node rows, optionally filtered by kind."""
        rows = list(self._nodes.values())
        if kind is None:
            return rows
        return [r for r in rows if r["kind"] == kind]

    def edges(self) -> List[Dict]:
        """All edge rows."""
        return list(self._edges.values())

    def edges_at(self, node_id: str) -> List[Dict]:
        """Edges incident to *node_id*."""
        self.node(node_id)
        return [
            e for e in self._edges.values()
            if e["source"] == node_id or e["target"] == node_id
        ]

    def service_points(self) -> Dict[str, str]:
        """Mapping consumer node id -> cadastral parcel id."""
        return dict(self._service_points)

    def consumer_for_parcel(self, cadastral_id: str) -> str:
        """The consumer node feeding a parcel; raises if none."""
        for node_id, parcel in self._service_points.items():
            if parcel == cadastral_id:
                return node_id
        raise UnknownEntityError(
            f"network {self.network_name!r} has no service point for "
            f"parcel {cadastral_id!r}"
        )

    def total_length_m(self) -> float:
        """Total route length of the network."""
        return sum(e["length_m"] for e in self._edges.values())

    def path_to_plant(self, consumer_node: str) -> List[str]:
        """Node path from a consumer to the nearest plant (BFS).

        Used by clients tracing which plant feeds a building; raises
        :class:`UnknownEntityError` when the network is disconnected.
        """
        self.node(consumer_node)
        frontier: List[Tuple[str, List[str]]] = [(consumer_node,
                                                  [consumer_node])]
        seen = {consumer_node}
        while frontier:
            current, path = frontier.pop(0)
            if self._nodes[current]["kind"] == NODE_PLANT:
                return path
            for edge in self.edges_at(current):
                neighbour = (edge["target"] if edge["source"] == current
                             else edge["source"])
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append((neighbour, path + [neighbour]))
        raise UnknownEntityError(
            f"no plant reachable from {consumer_node!r}"
        )
