"""Scenario builder: deploy a synthetic district onto the infrastructure.

Takes a :class:`~repro.datasources.generators.DistrictDataset` and
stands up the whole Figure 1(a) architecture on one simulated network:
master node, middleware broker, global measurement database, one GIS
proxy, one BIM proxy per building, one SIM proxy per network, one
Device-proxy per (entity, protocol) pair with its device fleet wired
over radio links, every proxy registered on the master.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.client import DistrictClient
from repro.core.master import MasterNode
from repro.core.replication import ReplicationGroup, hub_group
from repro.datasources.generators import (
    DeviceSpec,
    DistrictDataset,
    synthesize_district,
)
from repro.devices import catalog
from repro.devices.base import SimulatedDevice
from repro.devices.energy import FleetEnergyRow, fleet_energy_report
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.errors import ConfigurationError
from repro.middleware.broker import Broker, BrokerOverloadConfig
from repro.network.resilience import FailoverSet, ResiliencePolicy
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.observability.collector import FleetMonitor, FleetMonitorConfig
from repro.protocols.base import make_adapter
from repro.proxies.database_proxy import BimProxy, GisProxy, SimProxy
from repro.proxies.device_proxy import BatchConfig, DeviceProxy
from repro.storage.blocks import TsdbConfig
from repro.storage.durability import DurabilityConfig, HubConfig
from repro.storage.measurementdb import MeasurementDatabase

#: a registration lease lasts this many heartbeat periods
LEASE_FACTOR = 3.0


@dataclass
class ScenarioConfig:
    """Parameters of a deployed scenario."""

    seed: int = 0
    n_buildings: int = 8
    devices_per_building: int = 5
    n_networks: int = 1
    net_jitter: float = 0.1
    retention: Optional[float] = 7 * 86400.0
    office_fraction: float = 0.5
    #: when set, every proxy renews its registration with this period
    #: (simulated s) under a lease of :data:`LEASE_FACTOR` periods, and
    #: the master evicts proxies whose lease expires — the resilience
    #: layer's registration heartbeat.  None keeps legacy permanent
    #: registrations.
    heartbeat_period: Optional[float] = None
    #: bounded per-peer publication buffer (events) — device proxies
    #: buffer publications while the broker is unreachable and flush on
    #: reconnect.  None disables acks/buffering (legacy behaviour).
    publish_buffer: Optional[int] = None
    #: period of the peers' subscription keepalive (re-subscribe after a
    #: broker crash-restart); None disables it.
    peer_keepalive: Optional[float] = None
    #: install the tracer (see :func:`repro.observability.install`) on
    #: the network at deploy time.  The default keeps it disabled: zero
    #: tracing overhead.
    observability: bool = False
    #: install the DES hot-loop profiler (see
    #: :func:`repro.observability.profiler.install_profiler`) at deploy
    #: time.  The default keeps it off: the hot loop pays one None
    #: check per event.
    profile: bool = False
    #: where the master's state lives and who follows it (see
    #: :class:`~repro.storage.durability.HubConfig`): a
    #: ``snapshot_path`` makes a restarted master recover its ontology
    #: and leases, ``standbys`` deploy a replicated master group that
    #: clients and proxy registrations use as a whole.  None keeps the
    #: paper's single volatile master.
    master: Optional[HubConfig] = None
    #: the same for the middleware broker: ``wal_path`` /
    #: ``snapshot_path`` make its state crash-safe, ``standbys`` deploy
    #: a replicated broker group every peer rotates across.  None keeps
    #: the single volatile broker.
    broker: Optional[HubConfig] = None
    #: deploy an in-sim fleet monitor (metrics collector + SLO engine +
    #: alert manager, see :mod:`repro.observability.collector`) that
    #: scrapes every node of this district through the transport layer.
    #: None (the default) deploys nothing: zero scrape traffic.
    fleet_monitor: Optional[FleetMonitorConfig] = None
    #: durability of the measurement DB (WAL + snapshots + consumer
    #: acks + ingest-queue bounds, see
    #: :class:`~repro.storage.durability.DurabilityConfig`).  None means
    #: volatile: no WAL, no snapshot, no delivery acks on the wire;
    #: ingest is idempotent either way.
    mdb_durability: Optional[DurabilityConfig] = None
    #: broker backpressure (watermarks + per-publisher fairness, see
    #: :class:`~repro.middleware.broker.BrokerOverloadConfig`).  None
    #: disables shedding entirely.
    broker_overload: Optional[BrokerOverloadConfig] = None
    #: block geometry of the measurement DB's columnar engine (block
    #: size, compaction target and period, see
    #: :class:`~repro.storage.blocks.TsdbConfig`).  None means the
    #: ``TsdbConfig()`` defaults.
    mdb_tsdb: Optional[TsdbConfig] = None
    #: batch device-proxy publications into line-protocol frames (see
    #: :class:`~repro.proxies.device_proxy.BatchConfig`).  None keeps
    #: one envelope per sample.
    proxy_batching: Optional[BatchConfig] = None


@dataclass
class DeployedDistrict:
    """A running deployment plus handles to every component."""

    config: ScenarioConfig
    dataset: DistrictDataset
    scheduler: Scheduler
    network: Network
    master: MasterNode
    broker: Broker
    measurement_db: MeasurementDatabase
    gis_proxy: GisProxy
    #: the group serving the master: its replicas, or the one node
    replication: ReplicationGroup
    #: the group serving the broker: its replicas, or the one node
    broker_replication: ReplicationGroup
    bim_proxies: Dict[str, BimProxy] = field(default_factory=dict)
    sim_proxies: Dict[str, SimProxy] = field(default_factory=dict)
    device_proxies: Dict[Tuple[str, str], DeviceProxy] = \
        field(default_factory=dict)
    firmwares: List[DeviceFirmware] = field(default_factory=list)
    devices: Dict[str, SimulatedDevice] = field(default_factory=dict)
    #: the deployed fleet monitor, None unless configured
    fleet: Optional[FleetMonitor] = None

    @property
    def district_id(self) -> str:
        return self.dataset.district_id

    @property
    def master_uris(self) -> List[str]:
        """Every master URI, seniority first (one entry when unreplicated)."""
        return self.replication.uris()

    @property
    def broker_hosts(self) -> List[str]:
        """Every broker host, seniority first (one when unreplicated)."""
        return self.broker_replication.hosts()

    @property
    def tracer(self):
        """The network's tracer, or None when tracing is not installed."""
        return self.network.tracer

    @property
    def profiler(self):
        """The network's hot-loop profiler, or None when not installed."""
        return self.network.profiler

    def energy_report(self) -> List[FleetEnergyRow]:
        """Fleet energy standing, shortest projected lifetime first."""
        return fleet_energy_report(self.firmwares, self.scheduler.now)

    def run(self, duration: float) -> None:
        """Advance the whole deployment by *duration* simulated seconds."""
        self.scheduler.run_for(duration)

    def client(self, name: str = "user", with_broker: bool = True,
               policy: Optional["ResiliencePolicy"] = None,
               resolve_cache_ttl: float = 0.0
               ) -> DistrictClient:
        """Create an end-user application host + client.

        *policy* opts the client's HTTP layer into retries and circuit
        breaking (see :mod:`repro.network.resilience`).  Repeated area
        answers are always revalidated against the master's ontology
        epoch; a *resolve_cache_ttl* > 0 also serves them from memory,
        without the round trip, for that many simulated seconds.
        """
        host = self.network.add_host(name)
        return DistrictClient(
            host, self.master_uris,
            broker_host=self.broker_hosts if with_broker else None,
            policy=policy,
            resolve_cache_ttl=resolve_cache_ttl,
        )

    def stop_devices(self) -> None:
        """Halt every device's sampling loop."""
        for firmware in self.firmwares:
            firmware.stop()


def build_device(spec: DeviceSpec, dataset: DistrictDataset
                 ) -> SimulatedDevice:
    """Instantiate the simulated device a :class:`DeviceSpec` describes."""
    seed = int(spec.params.get("seed", 0))
    common = dict(device_id=spec.device_id, protocol=spec.protocol,
                  address=spec.address, entity_id=spec.entity_id,
                  location=spec.location)
    if spec.kind == "power_meter":
        building = dataset.building(spec.entity_id)
        return catalog.power_meter(load=building.load_profile, **common)
    if spec.kind == "environment_sensor":
        return catalog.environment_sensor(seed=seed, **common)
    if spec.kind == "occupancy_sensor":
        return catalog.occupancy_sensor(**common)
    if spec.kind == "smart_plug":
        return catalog.smart_plug(**common)
    if spec.kind == "hvac_controller":
        return catalog.hvac_controller(weather=dataset.weather, **common)
    if spec.kind == "dimmable_light":
        return catalog.dimmable_light(**common)
    if spec.kind == "pv_inverter":
        return catalog.pv_inverter(seed=seed, **common)
    if spec.kind == "heat_flow_meter":
        return catalog.heat_flow_meter(seed=seed, **common)
    raise ConfigurationError(f"unknown device kind {spec.kind!r}")


def deploy(config: Optional[ScenarioConfig] = None,
           dataset: Optional[DistrictDataset] = None) -> DeployedDistrict:
    """Deploy a district; generates the dataset from *config* if absent."""
    config = config or ScenarioConfig()
    return deploy_into(_deploy_hubs(config), config, dataset)


def _deploy_hubs(config: ScenarioConfig) -> Federation:
    """The shared part of a deployment, as a federation of no districts.

    Scheduler, network, instruments, broker and master of *config*,
    with their durability and standbys; :func:`deploy` puts its one
    district on them and :func:`deploy_federation` several.
    """
    network = Network(
        Scheduler(),
        latency=LatencyModel(jitter=config.net_jitter, seed=config.seed),
        seed=config.seed,
    )
    if config.observability:
        from repro.observability import install

        install(network)
    if config.profile:
        from repro.observability.profiler import install_profiler

        install_profiler(network)
    broker = Broker(network.add_host("broker"),
                    overload=config.broker_overload,
                    durability=config.broker)
    master = MasterNode(network.add_host("master"),
                        durability=config.master)
    # master standbys first: host creation order is part of a run's
    # fingerprint
    return Federation(scheduler=network.scheduler, network=network,
                      master=master, broker=broker,
                      replication=hub_group(master, config.master),
                      broker_replication=hub_group(broker, config.broker))


def register(node, master_uris: List[str],
             heartbeat: Optional[float]) -> None:
    """Register *node* on the master set; renew its lease if configured.

    Registration and heartbeat share one
    :class:`~repro.network.resilience.FailoverSet`, so renewals go to
    the replica that accepted the registration.
    """
    masters = FailoverSet(master_uris)
    lease = heartbeat * LEASE_FACTOR if heartbeat else None
    node.register_with(masters, lease=lease)
    if heartbeat:
        node.start_heartbeat(masters, heartbeat, lease=lease)


def deploy_into(hubs: Federation, config: ScenarioConfig,
                dataset: Optional[DistrictDataset] = None,
                district_index: int = 1,
                prefix: str = "") -> DeployedDistrict:
    """Deploy one district onto the shared *hubs*.

    The building block of multi-district federations: every host name
    starts with *prefix*, so several districts coexist on one
    simulated network.  Every proxy registers against the whole master
    set (failing over to the replica that answers) and every peer
    rotates across the whole broker set.
    """
    network = hubs.network
    if dataset is None:
        dataset = synthesize_district(
            seed=config.seed,
            n_buildings=config.n_buildings,
            devices_per_building=config.devices_per_building,
            n_networks=config.n_networks,
            district_index=district_index,
            office_fraction=config.office_fraction,
        )
    heartbeat = config.heartbeat_period
    master_uris = hubs.master_uris
    if heartbeat:
        # every replica sweeps leases: a promoted standby must keep
        # evicting dead proxies without operator intervention
        for member in hubs.replication.nodes():
            member.start_lease_sweeper(heartbeat)

    measurement_db = MeasurementDatabase(
        network.add_host(f"{prefix}mdb"), hubs.broker_hosts,
        dataset.district_id,
        peer_keepalive=config.peer_keepalive,
        durability=config.mdb_durability,
        tsdb=config.mdb_tsdb,
    )
    # the third hub goes through the same wiring: today that attaches
    # nothing and refuses ``standbys`` (it has no ``standby()`` yet)
    hub_group(measurement_db, config.mdb_durability)
    register(measurement_db, master_uris, heartbeat)

    gis_proxy = GisProxy(network.add_host(f"{prefix}proxy-gis"),
                         dataset.gis, dataset.district_id)
    register(gis_proxy, master_uris, heartbeat)

    deployment = DeployedDistrict(
        config=config,
        dataset=dataset,
        scheduler=network.scheduler,
        network=network,
        master=hubs.master,
        broker=hubs.broker,
        measurement_db=measurement_db,
        gis_proxy=gis_proxy,
        replication=hubs.replication,
        broker_replication=hubs.broker_replication,
    )

    for building in dataset.buildings:
        feature = dataset.gis.feature(building.feature_id)
        proxy = BimProxy(
            network.add_host(f"{prefix}proxy-bim-{building.entity_id}"),
            building.bim,
            entity_id=building.entity_id,
            district_id=dataset.district_id,
            name=building.name,
            gis_feature_id=building.feature_id,
            bounds=feature.geometry.bounds(),
        )
        register(proxy, master_uris, heartbeat)
        deployment.bim_proxies[building.entity_id] = proxy

    for network_spec in dataset.networks:
        proxy = SimProxy(
            network.add_host(f"{prefix}proxy-sim-{network_spec.entity_id}"),
            network_spec.sim,
            entity_id=network_spec.entity_id,
            district_id=dataset.district_id,
        )
        register(proxy, master_uris, heartbeat)
        deployment.sim_proxies[network_spec.entity_id] = proxy

    _deploy_devices(deployment, prefix)
    if config.fleet_monitor is not None:
        deployment.fleet = _deploy_fleet_monitor(deployment, prefix)
    return deployment


def _deploy_fleet_monitor(deployment: DeployedDistrict,
                          prefix: str) -> FleetMonitor:
    """Stand up the fleet monitor node and register every scrape target."""
    monitor = FleetMonitor(
        deployment.network.add_host(f"{prefix}fleet-monitor"),
        deployment.config.fleet_monitor,
    )
    for member in deployment.replication.nodes():
        monitor.watch(member.host.name, member.uri, "master")
    for member in deployment.broker_replication.nodes():
        monitor.watch(member.name, member.uri, "broker")
    monitor.watch(deployment.measurement_db.host.name,
                  deployment.measurement_db.uri, "measurement")
    monitor.watch(deployment.gis_proxy.name, deployment.gis_proxy.uri,
                  "gis")
    for _, proxy in sorted(deployment.bim_proxies.items()):
        monitor.watch(proxy.name, proxy.uri, "bim")
    for _, proxy in sorted(deployment.sim_proxies.items()):
        monitor.watch(proxy.name, proxy.uri, "sim")
    for _, proxy in sorted(deployment.device_proxies.items()):
        monitor.watch(proxy.name, proxy.uri, "device")
    monitor.start()
    return monitor


@dataclass
class Federation:
    """Several districts sharing one master, broker and network."""

    scheduler: Scheduler
    network: Network
    master: MasterNode
    broker: Broker
    #: the group serving the shared master: its replicas, or the one node
    replication: ReplicationGroup
    #: the group serving the shared broker: its replicas, or the one node
    broker_replication: ReplicationGroup
    districts: Dict[str, DeployedDistrict] = field(default_factory=dict)

    @property
    def master_uris(self) -> List[str]:
        """Every shared master URI, seniority first."""
        return self.replication.uris()

    @property
    def broker_hosts(self) -> List[str]:
        """Every shared broker host, seniority first."""
        return self.broker_replication.hosts()

    def run(self, duration: float) -> None:
        """Advance the whole federation by *duration* simulated seconds."""
        self.scheduler.run_for(duration)

    def district(self, district_id: str) -> DeployedDistrict:
        try:
            return self.districts[district_id]
        except KeyError:
            raise ConfigurationError(
                f"no district {district_id!r} in federation"
            ) from None

    def client(self, name: str = "fed-user", with_broker: bool = True,
               policy: Optional[ResiliencePolicy] = None
               ) -> DistrictClient:
        """A client that can query any district through the one master."""
        host = self.network.add_host(name)
        return DistrictClient(
            host, self.master_uris,
            broker_host=self.broker_hosts if with_broker else None,
            policy=policy,
        )


def deploy_federation(configs) -> Federation:
    """Deploy several districts onto one shared master and broker.

    Each config gets its own generated district (district ids
    ``dst-0001``, ``dst-0002``, ...) and host-name prefix (``d1-``,
    ``d2-``, ...); the shared hubs — network, instruments, master and
    broker with their standbys and durability — come from the first
    config; a later one that asks for different ones is an error.
    """
    configs = list(configs)
    if not configs:
        raise ConfigurationError("federation needs at least one district")
    for config in configs[1:]:
        for hub in ("master", "broker", "broker_overload"):
            asked = getattr(config, hub)
            if asked is not None and asked != getattr(configs[0], hub):
                raise ConfigurationError(
                    f"the shared hubs come from the first config: a later "
                    f"district cannot ask for a different {hub!r}")
    federation = _deploy_hubs(configs[0])
    for index, config in enumerate(configs, start=1):
        deployment = deploy_into(federation, config, district_index=index,
                                 prefix=f"d{index}-")
        federation.districts[deployment.district_id] = deployment
    return federation


def _deploy_devices(deployment: DeployedDistrict, prefix: str) -> None:
    config = deployment.config
    dataset = deployment.dataset
    groups: Dict[Tuple[str, str], List[DeviceSpec]] = {}
    for spec in dataset.devices:
        groups.setdefault((spec.entity_id, spec.protocol), []).append(spec)
    for (entity_id, protocol), specs in sorted(groups.items()):
        host = deployment.network.add_host(
            f"{prefix}proxy-dev-{entity_id}-{protocol}"
        )
        proxy = DeviceProxy(
            host,
            adapter=make_adapter(protocol),
            broker_host=deployment.broker_hosts,
            district_id=dataset.district_id,
            retention=config.retention,
            publish_buffer=config.publish_buffer,
            peer_keepalive=config.peer_keepalive,
            batching=config.proxy_batching,
        )
        for spec in specs:
            device = build_device(spec, dataset)
            link = RadioLink(
                deployment.scheduler,
                seed=config.seed + len(deployment.firmwares),
            )
            proxy.attach_device(device, link)
            firmware = DeviceFirmware(device, make_adapter(protocol), link,
                                      deployment.scheduler)
            firmware.start()
            deployment.firmwares.append(firmware)
            deployment.devices[spec.device_id] = device
        register(proxy, deployment.master_uris, config.heartbeat_period)
        deployment.device_proxies[(entity_id, protocol)] = proxy
