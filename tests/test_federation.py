"""Tests for multi-district federations on one master.

The paper: "The ontology depicts the structure of one or more
districts, each one structured as a tree."
"""

from dataclasses import replace

import pytest

from repro.core.replication import ReplicationConfig
from repro.errors import ConfigurationError
from repro.middleware.broker import BrokerOverloadConfig
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy_federation
from repro.storage.durability import HubConfig


@pytest.fixture(scope="module")
def federation():
    fed = deploy_federation([
        ScenarioConfig(seed=1, n_buildings=3, devices_per_building=3,
                       n_networks=1, net_jitter=0.0),
        ScenarioConfig(seed=2, n_buildings=2, devices_per_building=2,
                       n_networks=0, net_jitter=0.0),
    ])
    fed.run(600.0)
    return fed


class TestFederation:
    def test_two_district_trees_on_one_master(self, federation):
        districts = federation.master.ontology.districts()
        assert {d.district_id for d in districts} == \
            {"dst-0001", "dst-0002"}

    def test_each_district_resolves_independently(self, federation):
        client = federation.client("fed-user-1")
        first = client.resolve(AreaQuery(district_id="dst-0001"))
        second = client.resolve(AreaQuery(district_id="dst-0002"))
        assert len(first.entities) == 4   # 3 buildings + 1 network
        assert len(second.entities) == 2  # 2 buildings

    def test_measurements_stay_in_their_district(self, federation):
        first = federation.district("dst-0001")
        second = federation.district("dst-0002")
        assert first.measurement_db.ingested > 0
        assert second.measurement_db.ingested > 0
        # each global DB only holds its own district's devices
        first_devices = set(first.measurement_db.store.devices())
        expected_first = {d.device_id for d in first.dataset.devices}
        assert first_devices <= expected_first

    def test_integration_per_district(self, federation):
        client = federation.client("fed-user-2")
        model = client.build_area_model(
            AreaQuery(district_id="dst-0002"), with_data=True,
        )
        assert len(model.buildings) == 2
        assert model.district_id == "dst-0002"
        for building in model.buildings:
            assert "bim" in building.source_kinds

    def test_shared_broker_scopes_topics(self, federation):
        client = federation.client("fed-sub")
        events = []
        client.subscribe_measurements(events.append,
                                      district_id="dst-0002")
        federation.run(120.0)
        assert events
        assert all(e.topic.startswith("district/dst-0002/")
                   for e in events)

    def test_unknown_district_lookup(self, federation):
        with pytest.raises(ConfigurationError):
            federation.district("dst-0404")

    def test_empty_federation_rejected(self):
        with pytest.raises(ConfigurationError):
            deploy_federation([])

    def test_shared_hubs_honour_the_first_configs_master_ha(self, tmp_path):
        # regression: deploy_federation spelt its own hub set-up and
        # silently dropped the master's standbys / replication / snapshots
        timing = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=3.0,
                                   failover_timeout=5.0,
                                   promotion_stagger=3.0)
        snapshot = tmp_path / "master.snap"
        fed = deploy_federation([
            ScenarioConfig(seed=1, n_buildings=2, devices_per_building=2,
                           net_jitter=0.0, heartbeat_period=10.0,
                           master=HubConfig(
                               snapshot_path=str(snapshot),
                               snapshot_period=30.0,
                               standbys=1, replication=timing)),
            ScenarioConfig(seed=2, n_buildings=1, devices_per_building=2,
                           n_networks=0, net_jitter=0.0,
                           heartbeat_period=10.0),
        ])
        fed.run(60.0)
        assert fed.replication is not None and len(fed.master_uris) == 2
        assert fed.replication.primary.config is timing
        assert snapshot.exists()
        for district in fed.districts.values():
            assert district.master_uris == fed.master_uris
        # the proxies of both districts registered against the whole
        # set: with the primary dead their renewals reach the standby
        fed.network.set_host_online("master", False)
        client = fed.client("ha-user", with_broker=False)
        client.http.timeout = 1.0
        for district_id, entities in (("dst-0001", 3), ("dst-0002", 1)):
            area = client.resolve(AreaQuery(district_id=district_id))
            assert len(area.entities) == entities
        fed.run(5.0 + 3.0 + 2.0 + 30.0)
        promoted = fed.replication.primary
        assert promoted.name == "master-r1"
        assert promoted.counters["writes_accepted"] > 0

    @pytest.mark.parametrize("field, asked", [
        pytest.param("master", HubConfig(standbys=1), id="master"),
        pytest.param("broker", HubConfig(standbys=1), id="broker"),
        pytest.param("broker_overload",
                     BrokerOverloadConfig(high_watermark=8, low_watermark=4),
                     id="broker_overload"),
    ])
    def test_member_asking_for_different_hubs_is_rejected(self, field,
                                                          asked):
        # regression: the shared hubs come from the first config, and a
        # later one asking for standbys got an unreplicated hub, silently
        def config(seed, **hubs):
            return ScenarioConfig(seed=seed, n_buildings=1,
                                  devices_per_building=1, **hubs)

        with pytest.raises(ConfigurationError, match=field):
            deploy_federation([config(1), config(2, **{field: asked})])
        # asking for the hubs the federation has is not a difference
        fed = deploy_federation([config(1, **{field: asked}),
                                 config(2, **{field: replace(asked)})])
        assert len(fed.districts) == 2
