"""Centralized baseline: the monolithic union database.

The paper argues that "the union of different databases into a single
one is usually not feasible, because of data format heterogeneity and
conflicting values across different databases".  This baseline builds
that union anyway, so the benchmarks can quantify the comparison:

* every BIM/SIM/GIS source is bulk-imported into one
  :class:`CentralDatabase` with a flattened union schema — conflicting
  property values are silently overwritten (the ``conflicts_overwritten``
  counter records the information loss);
* imports happen on a sync schedule, so source changes are invisible
  until the next re-import (*staleness*, measured by bench C3);
* device gateways relay every sample to the central server over HTTP
  (no pub/sub, no local buffering) — the central host becomes the
  funnel for all ingest traffic;
* clients ask the central server for areas and receive *data*, not
  URIs: the server performs the join and ships everything back itself
  (relay architecture, the opposite of the paper's redirect design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.cdf import Measurement
from repro.datasources.generators import DistrictDataset
from repro.datasources.geometry import BoundingBox
from repro.devices.base import SimulatedDevice
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.errors import (
    FrameDecodeError,
    NetworkError,
    QueryError,
    SerializationError,
    SeriesNotFoundError,
    UnitError,
)
from repro.network.scheduler import Scheduler
from repro.network.transport import Host, LatencyModel, Network
from repro.network.webservice import (
    GET,
    POST,
    HttpClient,
    Request,
    Response,
    WebService,
    error,
    ok,
)
from repro.protocols.base import ProtocolAdapter, RawReading, make_adapter
from repro.proxies.translators import (
    translate_bim,
    translate_gis_feature,
    translate_sim,
)
from repro.storage.localdb import LocalDatabase
from repro.storage.query import RangeQuery


class CentralDatabase:
    """The union store: flattened entity rows plus one measurement table."""

    def __init__(self) -> None:
        self.entities: Dict[str, Dict] = {}
        self.measurements = LocalDatabase(retention=None)
        self.conflicts_overwritten = 0
        self.imports = 0
        self.last_sync_at: float = float("-inf")

    def upsert_entity(self, entity_id: str, entity_type: str,
                      properties: Dict, geometry: Optional[Dict] = None
                      ) -> None:
        """Merge one source's view of an entity into its union row.

        Union semantics: same-key disagreements are overwritten by the
        latest import and counted — the information the per-source
        proxies would have preserved.
        """
        row = self.entities.setdefault(entity_id, {
            "entity_id": entity_id,
            "entity_type": entity_type,
            "properties": {},
            "geometry": None,
        })
        for key, value in properties.items():
            if value is None:
                continue
            existing = row["properties"].get(key)
            if existing is not None and existing != value:
                self.conflicts_overwritten += 1
            row["properties"][key] = value
        if geometry is not None:
            row["geometry"] = dict(geometry)
        self.imports += 1

    def entities_in(self, bbox: Optional[BoundingBox]) -> List[Dict]:
        """Entity rows, optionally filtered by geometry bounds."""
        rows = list(self.entities.values())
        if bbox is None:
            return rows
        out = []
        for row in rows:
            geometry = row.get("geometry")
            if not geometry or "bounds" not in geometry:
                continue
            if bbox.intersects(BoundingBox.from_list(geometry["bounds"])):
                out.append(row)
        return out


class CentralServer:
    """The single server of the centralized architecture."""

    def __init__(self, host: Host):
        self.host = host
        self.database = CentralDatabase()
        self.ingests = 0
        self.service = WebService(host, processing_delay=2e-4)
        self.service.add_route(POST, "/ingest", self._ingest_route)
        self.service.add_route(GET, "/area", self._area_route)
        self.service.add_route(GET, "/entity/{entity_id}",
                               self._entity_route)
        self.service.add_route(GET, "/measurements",
                               self._measurements_route)

    @property
    def uri(self) -> str:
        return self.service.base_uri

    def _ingest_route(self, request: Request) -> Response:
        try:
            measurement = Measurement.from_dict(request.body or {})
        except (SerializationError, UnitError, ValueError, TypeError) as exc:
            return error(400, f"bad measurement: {exc}")
        self.database.measurements.insert(measurement)
        self.ingests += 1
        return ok({"stored": True})

    def _area_route(self, request: Request) -> Response:
        bbox_raw = request.params.get("bbox")
        bbox = None
        if bbox_raw:
            try:
                bbox = BoundingBox.from_list(
                    [float(v) for v in bbox_raw.split(",")]
                )
            except (ValueError, QueryError) as exc:
                return error(400, f"bad bbox: {exc}")
        rows = self.database.entities_in(bbox)
        with_data = request.params.get("with_data") == "1"
        response_rows = []
        for row in rows:
            out = dict(row)
            if with_data:
                samples = {}
                for device_id in self.database.measurements.devices():
                    for quantity in \
                            self.database.measurements.quantities(device_id):
                        series = self.database.measurements.series(
                            device_id, quantity
                        )
                        owner = row["properties"].get("device_ids", [])
                        if device_id in owner:
                            samples[f"{device_id}/{quantity}"] = \
                                series.to_pairs()
                out["samples"] = samples
            response_rows.append(out)
        return ok({"entities": response_rows})

    def _entity_route(self, request: Request) -> Response:
        entity_id = request.path_params["entity_id"]
        row = self.database.entities.get(entity_id)
        if row is None:
            return error(404, f"no entity {entity_id!r}")
        return ok(row)

    def _measurements_route(self, request: Request) -> Response:
        try:
            query = RangeQuery.from_params(request.params)
            samples = self.database.measurements.query(query)
        except QueryError as exc:
            return error(400, str(exc))
        except SeriesNotFoundError as exc:
            return error(404, str(exc))
        return ok({"samples": [[t, v] for t, v in samples]})


class CentralGateway:
    """Protocol gateway that relays every sample to the central server.

    Unlike the Device-proxy it keeps no local database and publishes
    nothing: each decoded reading becomes one HTTP POST to the central
    ``/ingest`` endpoint.
    """

    def __init__(self, host: Host, adapter: ProtocolAdapter,
                 central_uri: str):
        self.host = host
        self.adapter = adapter
        self.central_uri = central_uri.rstrip("/")
        self.http = HttpClient(host)
        self.relayed = 0
        self.failed = 0
        self.frames_rejected = 0
        self._by_address: Dict[str, Tuple[str, str]] = {}

    def attach_device(self, device: SimulatedDevice, link: RadioLink
                      ) -> None:
        self._by_address[device.address] = (device.device_id,
                                            device.entity_id)
        link.attach_gateway(self._on_frame)

    def _on_frame(self, frame: bytes) -> None:
        now = self.host.network.scheduler.now
        try:
            readings = self.adapter.decode_frame(frame, received_at=now)
        except FrameDecodeError:
            self.frames_rejected += 1
            return
        for reading in readings:
            self._relay(reading)

    def _relay(self, reading: RawReading) -> None:
        owner = self._by_address.get(reading.device_address)
        if owner is None:
            self.frames_rejected += 1
            return
        device_id, entity_id = owner
        measurement = Measurement(
            device_id=device_id,
            entity_id=entity_id,
            quantity=reading.quantity,
            value=reading.value,
            timestamp=reading.timestamp,
            source=self.host.name,
        )
        future = self.http.request(self.central_uri + "/ingest",
                                   method=POST, body=measurement.to_dict())
        self.relayed += 1

        def check(f):
            try:
                response = f.result()
            except NetworkError:
                self.failed += 1
                return
            if not response.ok:
                self.failed += 1

        future.add_done_callback(check)


@dataclass
class CentralizedDeployment:
    """A running centralized deployment (the C3 comparison system)."""

    dataset: DistrictDataset
    scheduler: Scheduler
    network: Network
    server: CentralServer
    sync_period: Optional[float]
    gateways: List[CentralGateway] = field(default_factory=list)
    firmwares: List[DeviceFirmware] = field(default_factory=list)

    def run(self, duration: float) -> None:
        self.scheduler.run_for(duration)

    def sync_models(self) -> None:
        """Bulk re-import every source into the union database (the ETL).

        This is what keeps the central store fresh; anything changed in
        a source since the last sync is invisible until this runs.
        """
        dataset = self.dataset
        db = self.server.database
        for building in dataset.buildings:
            bim_model = translate_bim(building.bim, building.entity_id)
            db.upsert_entity(building.entity_id, "building",
                             bim_model.properties)
            feature = dataset.gis.feature(building.feature_id)
            gis_model = translate_gis_feature(feature, building.entity_id)
            db.upsert_entity(building.entity_id, "building",
                             gis_model.properties, gis_model.geometry)
            db.upsert_entity(building.entity_id, "building", {
                "device_ids": [d.device_id for d in building.devices],
            })
        for network_spec in dataset.networks:
            sim_model = translate_sim(network_spec.sim,
                                      network_spec.entity_id)
            db.upsert_entity(network_spec.entity_id, "network",
                             sim_model.properties)
            db.upsert_entity(network_spec.entity_id, "network", {
                "device_ids": [d.device_id for d in network_spec.devices],
            })
        db.last_sync_at = self.scheduler.now

    def client_host(self, name: str = "central-user") -> HttpClient:
        return HttpClient(self.network.add_host(name))


def deploy_centralized(dataset: DistrictDataset,
                       seed: int = 0,
                       radio_latency: float = 0.01,
                       net_jitter: float = 0.1,
                       sync_period: Optional[float] = 3600.0
                       ) -> CentralizedDeployment:
    """Deploy the same district on the centralized architecture."""
    from repro.simulation.scenario import build_device

    scheduler = Scheduler()
    network = Network(
        scheduler,
        latency=LatencyModel(jitter=net_jitter, seed=seed),
        seed=seed,
    )
    server = CentralServer(network.add_host("central"))
    deployment = CentralizedDeployment(
        dataset=dataset,
        scheduler=scheduler,
        network=network,
        server=server,
        sync_period=sync_period,
    )
    groups: Dict[Tuple[str, str], List] = {}
    for spec in dataset.devices:
        groups.setdefault((spec.entity_id, spec.protocol), []).append(spec)
    for (entity_id, protocol), specs in sorted(groups.items()):
        gateway = CentralGateway(
            network.add_host(f"gw-{entity_id}-{protocol}"),
            make_adapter(protocol),
            server.uri,
        )
        for spec in specs:
            device = build_device(spec, dataset)
            link = RadioLink(scheduler, latency=radio_latency,
                             seed=seed + len(deployment.firmwares))
            gateway.attach_device(device, link)
            firmware = DeviceFirmware(device, make_adapter(protocol), link,
                                      scheduler)
            firmware.start()
            deployment.firmwares.append(firmware)
        deployment.gateways.append(gateway)
    deployment.sync_models()
    if sync_period is not None:
        scheduler.every(sync_period, deployment.sync_models)
    return deployment
