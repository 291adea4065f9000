"""Robustness tests: failure injection and recovery."""

import pytest

from repro.core.replication import ReplicationConfig
from repro.errors import ConfigurationError, RequestTimeoutError
from repro.network.transport import estimate_size
from repro.ontology import AreaQuery
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig


@pytest.fixture
def deployment():
    d = deploy(ScenarioConfig(seed=21, n_buildings=3,
                              devices_per_building=3, n_networks=1,
                              net_jitter=0.0))
    d.run(300.0)
    return d


@pytest.fixture
def injector(deployment):
    return FaultInjector(deployment)


class TestBrokerOutage:
    def test_ingestion_stops_and_resumes(self, deployment, injector):
        before = deployment.measurement_db.ingested
        assert before > 0
        injector.kill_broker()
        deployment.run(300.0)
        during = deployment.measurement_db.ingested
        assert during <= before + 2  # at most in-flight stragglers
        injector.restore_broker()
        deployment.run(300.0)
        assert deployment.measurement_db.ingested > during

    def test_queries_survive_broker_outage(self, deployment, injector):
        # the request/response plane is independent of the middleware
        injector.kill_broker()
        client = deployment.client("fault-user", with_broker=False)
        model = client.build_area_model(
            AreaQuery(district_id=deployment.district_id)
        )
        assert len(model.buildings) == 3


class TestProxyOutage:
    def test_strict_client_raises_on_dark_proxy(self, deployment,
                                                injector):
        entity = deployment.dataset.buildings[0].entity_id
        injector.kill_bim_proxy(entity)
        client = deployment.client("strict-user", with_broker=False)
        client.http.timeout = 0.5
        with pytest.raises(RequestTimeoutError):
            client.build_area_model(
                AreaQuery(district_id=deployment.district_id,
                          entity_ids=(entity,))
            )

    def test_lenient_client_degrades(self, deployment, injector):
        entity = deployment.dataset.buildings[0].entity_id
        injector.kill_bim_proxy(entity)
        client = deployment.client("lenient-user", with_broker=False)
        client.http.timeout = 0.5
        model = client.build_area_model(
            AreaQuery(district_id=deployment.district_id),
            strict=False,
        )
        degraded = model.entity(entity)
        assert "bim" not in degraded.sources
        assert "gis" in degraded.sources  # the GIS proxy is still up
        assert client.fetch_failures == 1
        # the other buildings are complete
        others = [e for e in model.buildings if e.entity_id != entity]
        assert all("bim" in e.sources for e in others)

    def test_restored_proxy_serves_again(self, deployment, injector):
        entity = deployment.dataset.buildings[0].entity_id
        injector.kill_bim_proxy(entity)
        injector.restore_all()
        client = deployment.client("recovered-user", with_broker=False)
        model = client.build_area_model(
            AreaQuery(district_id=deployment.district_id,
                      entity_ids=(entity,))
        )
        assert "bim" in model.entity(entity).sources

    def test_device_proxy_outage_stops_its_ingest(self, deployment,
                                                  injector):
        spec = deployment.dataset.buildings[0].devices[0]
        host = injector.kill_device_proxy(spec.entity_id, spec.protocol)
        deployment.run(2.0)  # drain in-flight
        proxy = deployment.device_proxies[(spec.entity_id, spec.protocol)]
        frames_before = proxy.frames_received
        deployment.run(300.0)
        assert proxy.frames_received == frames_before
        assert host in injector.offline_hosts

    def test_unknown_targets_rejected(self, deployment, injector):
        with pytest.raises(ConfigurationError):
            injector.kill_bim_proxy("bld-9999")
        with pytest.raises(ConfigurationError):
            injector.kill_device_proxy("bld-0001", "lorawan")
        with pytest.raises(ConfigurationError):
            injector.take_offline("ghost-host")


class TestMasterRestart:
    def test_restart_loses_ontology(self, deployment, injector):
        injector.restart_master()
        client = deployment.client("post-crash-user", with_broker=False)
        from repro.errors import ServiceError
        with pytest.raises(ServiceError) as exc:
            client.resolve(AreaQuery(district_id=deployment.district_id))
        assert exc.value.status == 404

    def test_reregistration_rebuilds_ontology(self, deployment, injector):
        before = deployment.master.ontology.node_count()
        injector.restart_master()
        assert deployment.master.ontology.node_count() == 0
        injector.reregister_all()
        assert deployment.master.ontology.node_count() == before
        client = deployment.client("rebuilt-user", with_broker=False)
        model = client.build_area_model(
            AreaQuery(district_id=deployment.district_id), with_data=True,
        )
        assert len(model.buildings) == 3
        assert model.device_count == len(deployment.dataset.devices)


class TestPartition:
    def test_partitioned_building_unreachable_others_fine(self, deployment,
                                                          injector):
        target = deployment.dataset.buildings[1]
        hosts = [f"proxy-bim-{target.entity_id}"]
        hosts += [
            proxy.host.name
            for (entity, _p), proxy in deployment.device_proxies.items()
            if entity == target.entity_id
        ]
        injector.partition(hosts)
        client = deployment.client("partition-user", with_broker=False)
        client.http.timeout = 0.5
        model = client.build_area_model(
            AreaQuery(district_id=deployment.district_id),
            strict=False,
        )
        assert "bim" not in model.entity(target.entity_id).sources
        intact = [b for b in model.buildings
                  if b.entity_id != target.entity_id]
        assert all("bim" in b.sources for b in intact)
        # a partition is a link cut, not a crash: no host is offline
        assert injector.offline_hosts == []
        master = deployment.master.host.name
        assert deployment.network.partition_blocks(hosts[0], master)
        injector.heal_partition()
        assert not deployment.network.partition_blocks(hosts[0], master)
        healed = client.build_area_model(
            AreaQuery(district_id=deployment.district_id),
            strict=False,
        )
        assert "bim" in healed.entity(target.entity_id).sources

    def test_partition_blocks_both_directions(self, deployment, injector):
        net = deployment.network
        injector.partition(["proxy-gis"])
        assert net.partition_blocks("proxy-gis", "master")
        assert net.partition_blocks("master", "proxy-gis")
        # hosts on the same side of the cut keep talking
        assert not net.partition_blocks("master", "mdb")
        injector.heal_partition()
        assert not net.partition_blocks("proxy-gis", "master")

    def test_isolated_hosts_still_reach_each_other(self, deployment,
                                                   injector):
        injector.partition(["proxy-gis", "mdb"])
        assert not deployment.network.partition_blocks("proxy-gis", "mdb")
        assert deployment.network.partition_blocks("proxy-gis", "master")
        injector.heal_partition()

    def test_partition_drops_are_counted(self, deployment, injector):
        net = deployment.network
        net.stats.reset()
        injector.partition(["broker"])
        deployment.run(120.0)  # device proxies keep publishing into it
        assert net.stats.messages_dropped_partition > 0
        assert net.stats.messages_dropped >= \
            net.stats.messages_dropped_partition
        injector.heal_partition()

    def test_partition_master_isolates_the_single_master(self, deployment,
                                                         injector):
        isolated = injector.partition_master()
        assert isolated == "master"
        client = deployment.client("cut-user", with_broker=False)
        client.http.timeout = 0.5
        with pytest.raises(RequestTimeoutError):
            client.resolve(AreaQuery(district_id=deployment.district_id))
        injector.heal_partition()
        resolved = client.resolve(
            AreaQuery(district_id=deployment.district_id)
        )
        assert len(resolved.entities) > 0


class TestMasterSnapshotRecovery:
    def test_restart_recovers_from_snapshot(self, tmp_path):
        path = str(tmp_path / "master.json")
        d = deploy(ScenarioConfig(
            seed=23, n_buildings=2, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=30.0,
            master=HubConfig(snapshot_path=path, snapshot_period=60.0),
        ))
        d.run(300.0)
        injector = FaultInjector(d)
        before_nodes = d.master.ontology.node_count()
        before_leases = d.master.active_leases
        assert before_nodes > 0 and before_leases > 0
        recovered = injector.restart_master()
        assert recovered
        # no reregister_all needed: ontology AND leases are back
        assert d.master.ontology.node_count() == before_nodes
        assert d.master.active_leases == before_leases
        client = d.client("recovered-user", with_broker=False)
        resolved = client.resolve(AreaQuery(district_id=d.district_id))
        assert len(resolved.entities) == 3  # 2 buildings + 1 network

    def test_restart_without_recovery_stays_empty(self, tmp_path):
        path = str(tmp_path / "master.json")
        d = deploy(ScenarioConfig(
            seed=23, n_buildings=2, devices_per_building=2,
            net_jitter=0.0,
            master=HubConfig(snapshot_path=path, snapshot_period=60.0),
        ))
        d.run(300.0)
        injector = FaultInjector(d)
        assert not injector.restart_master(recover=False)
        assert d.master.ontology.node_count() == 0

    def test_restart_without_snapshot_config_recovers_nothing(
            self, deployment, injector):
        assert not injector.restart_master()
        assert deployment.master.ontology.node_count() == 0


class TestMeasurementDbRegistrationFailover:
    """The measurement DB registers through the proxies' code path."""

    REPLICATION = ReplicationConfig(heartbeat_period=1.0,
                                    fencing_timeout=3.0,
                                    failover_timeout=5.0,
                                    promotion_stagger=3.0)

    def deploy_replicated(self):
        d = deploy(ScenarioConfig(
            seed=11, n_buildings=1, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
            master=HubConfig(standbys=2, replication=self.REPLICATION),
        ))
        d.run(30.0)
        return d

    def test_restart_registers_with_the_promoted_master(self):
        # the seniority-first master is dead and master-r1 promoted: a
        # restarting measurement DB must rotate over the master set like
        # any proxy does, not give up on the first (dead) URI
        d = self.deploy_replicated()
        injector = FaultInjector(d)
        injector.take_offline("master")
        d.run(20.0)
        assert d.replication.primary.name == "master-r1"
        mdb = d.measurement_db
        bim = next(iter(d.bim_proxies.values()))
        bim.register_with(d.master_uris)  # the proxies always could
        injector.restart_measurement_db()
        assert mdb.registered
        promoted = d.replication.primary.node
        assert mdb.uri in promoted.ontology.district(d.district_id) \
            .measurement_uris
        sent = mdb.heartbeats_sent
        d.run(30.0)
        assert mdb.heartbeats_sent > sent  # and the renewal loop follows

    def test_heartbeat_ships_only_the_renewal(self):
        # sharing the proxies' heartbeat: once registered, the body on
        # the wire is the renewal record and nothing else
        d = self.deploy_replicated()
        mdb = d.measurement_db
        bodies = []
        real_request = mdb._client.request

        def spy(url, method, body=None, **kwargs):
            bodies.append(body)
            return real_request(url, method, body=body, **kwargs)

        mdb._client.request = spy
        d.run(30.0)
        assert len(bodies) == 3
        for body in bodies:
            assert body == {"uri": mdb.uri, "lease": 30.0,
                            "token": mdb.registration_token()}
        assert estimate_size(bodies[0]) < 80


class TestProxyTokensCarryNoIncarnation:
    """A Device-proxy's ``/data`` token is the bare
    ``str(database.inserts)`` and a Database-proxy's the bare
    ``str(store.version)``: neither names the object that counted it.
    That is safe only while no fault verb rebuilds a proxy, or its
    database or store, at an existing URI.  This pins it for every
    verb that touches a proxy; the first verb that rebuilds one must put
    an incarnation into both tokens."""

    def test_no_verb_rebuilds_a_proxy_or_lowers_its_token(
            self, deployment, injector):
        d = deployment
        device_key = next(iter(d.device_proxies))
        building = next(iter(d.bim_proxies))

        def sources():
            """uri -> (proxy, the object its token counts, the count)"""
            found = {proxy.uri: (proxy, proxy.database,
                                 proxy.database.inserts)
                     for proxy in d.device_proxies.values()}
            found.update({proxy.uri: (proxy, proxy.store, proxy.store.version)
                          for proxy in (d.gis_proxy, *d.bim_proxies.values(),
                                        *d.sim_proxies.values())})
            return found

        def kill_and_restore(kill, *args):
            host = kill(*args)
            d.run(120.0)
            injector.restore(host)

        def partition_and_heal():
            injector.partition([d.device_proxies[device_key].host.name,
                                d.bim_proxies[building].host.name])
            d.run(120.0)
            injector.heal_partition()

        verbs = {
            "kill_device_proxy": lambda: kill_and_restore(
                injector.kill_device_proxy, *device_key),
            "kill_bim_proxy": lambda: kill_and_restore(
                injector.kill_bim_proxy, building),
            "partition": partition_and_heal,
            "restart_master": injector.restart_master,
            "reregister_all": injector.reregister_all,
        }
        held = sources()
        assert held[d.device_proxies[device_key].uri][2] > 0
        for verb, act in verbs.items():
            act()
            d.run(120.0)
            now = sources()
            assert now.keys() == held.keys(), verb
            for uri, (proxy, source, count) in held.items():
                assert now[uri][0] is proxy and now[uri][1] is source, \
                    (verb, uri)
                assert now[uri][2] >= count, (verb, uri)
            held = now
