"""Tests for the resolve fast path: filters, epochs and caches.

Covers:

* resolve's filters (entity type, sensed quantity, bounding box),
  which follow registrations, re-registrations and evictions;
* the master's ontology epoch — moved by a mutation of the forest,
  never by a heartbeat that only renews a lease — and the
  conditional-GET 304 path it validates (the master itself holds no
  answers), with the safety invariant *equal token => equal answer* as
  a property;
* the client's revalidate-by-default cache (and the optional TTL on
  top of it), and its interaction with lease evictions, snapshot
  restores and standby promotion.

It also carries the regression tests for the staleness sweep: a device
proxy re-registering with fewer devices must prune the vanished leaves,
and an eviction that hollows out an entity must prune the entity node.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import DistrictClient
from repro.core.master import MasterNode
from repro.core.replication import ReplicationConfig
from repro.datasources.geometry import BoundingBox
from repro.errors import RegistrationError, ReproError
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.observability import install
from repro.observability.tracing import SERVER
from repro.ontology.queries import AreaQuery, ResolvedArea
from repro.simulation import ScenarioConfig, deploy
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import LEASE_FACTOR
from repro.storage.durability import HubConfig


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def master(net):
    return MasterNode(net.add_host("master"))


def bim_payload(entity="bld-0001", uri="svc://proxy-bim-1/",
                bounds=(0.0, 0.0, 50.0, 50.0)):
    return {"proxy_kind": "database", "source_kind": "bim",
            "district_id": "dst-0001", "entity_id": entity, "uri": uri,
            "entity_type": "building", "name": f"Building {entity}",
            "bounds": list(bounds), "gis_feature_id": "ft-00001"}


def sim_payload(entity="net-0001", uri="svc://proxy-sim-1/"):
    return {"proxy_kind": "database", "source_kind": "sim",
            "district_id": "dst-0001", "entity_id": entity, "uri": uri,
            "entity_type": "network", "name": "Heat 1",
            "commodity": "heat"}


def device_payload(uri="svc://proxy-dev-1/", entity="bld-0001",
                   device_ids=("dev-0101",), quantity="power"):
    return {
        "proxy_kind": "device", "district_id": "dst-0001", "uri": uri,
        "protocol": "zigbee",
        "devices": [{
            "record": "device", "device_id": device_id,
            "protocol": "zigbee", "entity_id": entity,
            "sensors": [{"quantity": quantity, "sample_period": 60.0}],
            "actuators": [],
        } for device_id in device_ids],
    }


def whole_district():
    return AreaQuery(district_id="dst-0001")


class TestSecondaryIndexes:
    def populate(self, master):
        master.register(bim_payload("bld-0001", "svc://bim-1/",
                                    bounds=(0.0, 0.0, 50.0, 50.0)))
        master.register(bim_payload("bld-0002", "svc://bim-2/",
                                    bounds=(500.0, 500.0, 550.0, 550.0)))
        master.register(sim_payload("net-0001", "svc://sim-1/"))
        master.register(device_payload("svc://dev-1/", "bld-0001",
                                       ("dev-0101",), "power"))
        master.register(device_payload("svc://dev-2/", "bld-0002",
                                       ("dev-0201",), "temperature"))

    def ids(self, master, **filters):
        return master.resolve_area(
            AreaQuery("dst-0001", **filters)).entity_ids

    def test_type_index_tracks_registrations(self, master):
        self.populate(master)
        assert self.ids(master, entity_type="building") == \
            ["bld-0001", "bld-0002"]
        assert self.ids(master, entity_type="network") == ["net-0001"]

    def test_quantity_index_is_refcounted(self, master):
        self.populate(master)
        assert self.ids(master, quantity="power") == ["bld-0001"]
        # a second power device on the same entity, then a re-registration
        # that drops the first: the entity still matches while any power
        # device remains
        master.register(device_payload("svc://dev-1/", "bld-0001",
                                       ("dev-0101", "dev-0102"), "power"))
        master.register(device_payload("svc://dev-1/", "bld-0001",
                                       ("dev-0102",), "power"))
        assert self.ids(master, quantity="power") == ["bld-0001"]
        # a re-registration listing neither power device prunes both
        master.register(device_payload("svc://dev-1/", "bld-0001",
                                       ("dev-0103",), "temperature"))
        assert self.ids(master, quantity="power") == []
        assert self.ids(master, quantity="temperature") == \
            ["bld-0001", "bld-0002"]

    def test_grid_index_prunes_bbox_candidates(self, master):
        self.populate(master)
        assert self.ids(master, bbox=BoundingBox(0.0, 0.0, 60.0, 60.0)) \
            == ["bld-0001"]
        assert self.ids(
            master, bbox=BoundingBox(400.0, 400.0, 600.0, 600.0)) == \
            ["bld-0002"]
        assert self.ids(
            master, bbox=BoundingBox(200.0, 200.0, 300.0, 300.0)) == []

    def test_indexed_resolve_matches_predicates(self, master):
        self.populate(master)
        q_type = AreaQuery("dst-0001", entity_type="building")
        resolved = master.resolve_area(q_type)
        assert {e.entity_id for e in resolved.entities} == \
            {"bld-0001", "bld-0002"}
        q_quantity = AreaQuery("dst-0001", quantity="temperature")
        resolved = master.resolve_area(q_quantity)
        assert {e.entity_id for e in resolved.entities} == {"bld-0002"}
        q_bbox = AreaQuery(
            "dst-0001", bbox=BoundingBox(400.0, 400.0, 600.0, 600.0))
        resolved = master.resolve_area(q_bbox)
        assert {e.entity_id for e in resolved.entities} == {"bld-0002"}

    def test_indexes_follow_eviction(self, master):
        self.populate(master)
        master._evict_uri("svc://dev-2/")
        master._evict_uri("svc://bim-2/")
        assert self.ids(master, entity_type="building") == ["bld-0001"]
        assert self.ids(master, quantity="temperature") == []
        assert self.ids(
            master, bbox=BoundingBox(400.0, 400.0, 600.0, 600.0)) == []


class TestOntologyEpoch:
    def test_registration_bumps_epoch(self, master):
        before = master.ontology_epoch
        master.register(bim_payload())
        assert master.ontology_epoch == before + 1
        # an identical heartbeat refresh changes nothing a resolve can
        # return: the epoch stays, every cached answer stays valid
        master.register(bim_payload())
        assert master.ontology_epoch == before + 1
        # a changed one (the entity moved) does move it
        master.register(bim_payload(bounds=(5.0, 5.0, 55.0, 55.0)))
        assert master.ontology_epoch == before + 2

    @pytest.mark.parametrize("payload", [
        bim_payload(), sim_payload(), device_payload(),
        {"proxy_kind": "database", "source_kind": "gis",
         "district_id": "dst-0001", "uri": "svc://gis/", "name": "D"},
        {"proxy_kind": "measurement", "district_id": "dst-0001",
         "uri": "svc://mdb/"},
    ], ids=["bim", "sim", "device", "gis", "measurement"])
    def test_lease_only_change_renews_without_bump(self, net, master,
                                                   payload):
        master.register({**payload, "lease": 30.0})
        epoch = master.ontology_epoch
        net.scheduler.run_for(20.0)
        master.register({**payload, "lease": 90.0})
        assert master.ontology_epoch == epoch
        assert master.registrations == 2
        net.scheduler.run_for(60.0)  # past the first lease, inside the second
        assert master.expire_leases() == []
        net.scheduler.run_for(40.0)
        assert master.expire_leases() == [payload["uri"]]
        assert master.ontology_epoch == epoch + 1

    def test_contested_slot_moves_epoch_on_identical_payload(self, net,
                                                             master):
        """Two proxies contest one (entity, source_kind) slot: A's
        heartbeat is byte-identical to its last one, yet it flips the
        slot back — "payload equals this URI's last payload" is not
        "unchanged"."""
        a = bim_payload(uri="svc://bim-a/")
        b = bim_payload(uri="svc://bim-b/")
        client = DistrictClient(net.add_host("user"), master.uri)

        def bim_uri():
            return client.resolve(whole_district()) \
                .entities[0].proxy_uris["bim"]

        master.register(a)
        assert bim_uri() == "svc://bim-a/"
        master.register(b)
        assert bim_uri() == "svc://bim-b/"
        epoch = master.ontology_epoch
        master.register(a)
        assert master.ontology_epoch == epoch + 1
        assert bim_uri() == "svc://bim-a/"
        assert client.not_modified == 0

    def test_rejected_registration_still_moves_epoch(self, master):
        """A registration rejected half-way has already attached the
        leaves before the conflicting one: no token minted before it may
        survive."""
        master.register(device_payload("svc://dev-1/",
                                       device_ids=("dev-0101",)))
        epoch = master.ontology_epoch
        with pytest.raises(RegistrationError):
            master.register(device_payload(
                "svc://dev-2/", device_ids=("dev-0102", "dev-0101")))
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert "dev-0102" in entity.devices
        assert master.ontology_epoch > epoch

    def test_eviction_bumps_epoch_only_on_change(self, master):
        master.register(bim_payload())
        before = master.ontology_epoch
        master._evict_uri("svc://nobody-registered-this/")
        assert master.ontology_epoch == before
        master._evict_uri("svc://proxy-bim-1/")
        assert master.ontology_epoch == before + 1

    def test_reset_and_restore_keep_epoch_monotone(self, master):
        master.register(bim_payload())
        snapshot = master.snapshot()
        epoch_at_snapshot = master.ontology_epoch
        master.register(sim_payload())
        before_restore = master.ontology_epoch
        master.restore(snapshot)
        # the restored forest is older, but the epoch never goes back
        assert master.ontology_epoch > before_restore
        assert master.ontology_epoch > epoch_at_snapshot
        before_reset = master.ontology_epoch
        master.reset()
        assert master.ontology_epoch == before_reset + 1

    def test_token_names_the_serving_member(self, net):
        a = MasterNode(net.add_host("master-a"))
        b = MasterNode(net.add_host("master-b"))
        a.register(bim_payload())
        b.register(bim_payload())
        # equal counters on different members must never compare equal
        assert a.ontology_epoch == b.ontology_epoch
        assert a.epoch_token() != b.epoch_token()


class TestServerResolveCache:
    def resolve(self, net, master, params=None):
        client = HttpClient(net.add_host("probe")) \
            if not hasattr(self, "_probe") else self._probe
        self._probe = client
        return client.call(
            master.uri.rstrip("/") + "/resolve",
            params=params or {"district_id": "dst-0001"}, check=False,
        )

    def test_repeat_resolve_hits_cache(self, net, master):
        """The master holds no answers: an unconditional repeat is walked
        again and gets an equal body under the current token."""
        master.register(bim_payload())
        first = self.resolve(net, master)
        second = self.resolve(net, master)
        assert first.status == 200 and second.status == 200
        assert master.resolves_served == 2
        assert second.body == first.body
        assert second.body["token"] == master.epoch_token()

    def test_registration_invalidates_cached_answer(self, net, master):
        master.register(bim_payload())
        first = self.resolve(net, master)
        master.register(sim_payload())
        second = self.resolve(net, master)
        assert second.body["token"] != first.body["token"]
        assert len(second.body["entities"]) == \
            len(first.body["entities"]) + 1

    def test_eviction_invalidates_cached_answer(self, net, master):
        master.register(bim_payload())
        master.register(device_payload("svc://dev-1/"))
        before = self.resolve(net, master)
        assert "svc://dev-1/" in proxy_uris_of(
            ResolvedArea.from_dict(before.body))
        master._evict_uri("svc://dev-1/")
        answer = self.resolve(net, master)
        uris = proxy_uris_of(ResolvedArea.from_dict(answer.body))
        assert "svc://dev-1/" not in uris

    def test_conditional_get_earns_304(self, net, master):
        master.register(bim_payload())
        first = self.resolve(net, master)
        token = first.body["token"]
        reply = self.resolve(net, master, params={
            "district_id": "dst-0001", "if_none_match": token,
        })
        assert reply.status == 304
        assert reply.body is None
        assert master.resolve_not_modified == 1
        # a stale token gets the full answer instead
        master.register(sim_payload())
        reply = self.resolve(net, master, params={
            "district_id": "dst-0001", "if_none_match": token,
        })
        assert reply.status == 200
        assert reply.body["token"] != token

    def test_304_event_is_named_after_its_counter(self, net, master):
        tracer = install(net)
        master.register(bim_payload())
        first = self.resolve(net, master)
        self.resolve(net, master, params={
            "district_id": "dst-0001",
            "if_none_match": first.body["token"],
        })
        served = [s for s in tracer.spans(name="GET /resolve")
                  if s.kind == SERVER and s.attributes["status"] == 304]
        assert len(served) == master.resolve_not_modified == 1

    def test_304_counts_as_served_not_failed(self, net, master):
        master.register(bim_payload())
        first = self.resolve(net, master)
        failed_before = master.service.requests_failed
        self.resolve(net, master, params={
            "district_id": "dst-0001",
            "if_none_match": first.body["token"],
        })
        # 304 must not burn the resolve-availability SLO
        assert master.service.requests_failed == failed_before

    def test_cache_stays_bounded(self, net, master):
        """Two distinct queries each answer only their own entity."""
        master.register(bim_payload("bld-0001"))
        master.register(bim_payload("bld-0002", "svc://bim-2/"))
        for entity in ("bld-0001", "bld-0002", "bld-0001"):
            answer = self.resolve(net, master, params={
                "district_id": "dst-0001", "entity_ids": entity})
            assert [e["entity_id"] for e in answer.body["entities"]] == \
                [entity]

    def test_cached_answer_size_matches_full_estimate(self, net, master):
        """Every reply is charged exactly the estimate of what it
        carries (sizes feed latency)."""
        from repro.network.transport import estimate_size

        master.register(bim_payload())
        master.register(device_payload())
        replies = []
        original_deliver = net._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            if isinstance(payload, dict) and "status" in payload:
                replies.append((payload, size))
            original_deliver(sender, recipient, port, payload, size, sent_at)

        net._deliver = spy
        bodies = [self.resolve(net, master).body for _ in range(3)]
        assert master.resolves_served == 3
        assert bodies[0] == bodies[1] == bodies[2]
        assert len(replies) == 3
        for payload, size in replies:
            assert size == estimate_size(payload)

    def test_metrics_expose_cache_counters(self, net, master):
        master.register(bim_payload())
        self.resolve(net, master)
        self.resolve(net, master)
        metrics = self._probe.get(master.uri + "metrics").body["component"]
        assert metrics["resolves_served"] == 2
        assert metrics["resolve_not_modified"] == 0
        assert metrics["ontology_epoch"] == master.ontology_epoch
        assert not [key for key in metrics
                    if key.startswith("resolve_cache_")]


class TestClientResolveCache:
    def make_client(self, net, master, ttl=60.0):
        return DistrictClient(net.add_host("user"), master.uri,
                              resolve_cache_ttl=ttl)

    def test_fresh_hit_sends_no_traffic(self, net, master):
        master.register(bim_payload())
        client = self.make_client(net, master)
        first = client.resolve(whole_district())
        sent = client.http.requests_sent
        second = client.resolve(whole_district())
        assert client.http.requests_sent == sent  # served from memory
        assert client.held_hits == 1
        assert second is first

    def test_stale_entry_revalidates_with_304(self, net, master):
        master.register(bim_payload())
        client = self.make_client(net, master, ttl=10.0)
        first = client.resolve(whole_district())
        net.scheduler.run_for(15.0)  # past the TTL, ontology unchanged
        second = client.resolve(whole_district())
        assert second is first  # the 304 kept the cached object
        assert client.revalidations == 1
        assert client.not_modified == 1
        # the 304 refreshed the TTL: the next resolve is a memory hit
        client.resolve(whole_district())
        assert client.held_hits == 1

    def test_epoch_change_forces_full_refresh(self, net, master):
        master.register(bim_payload())
        client = self.make_client(net, master, ttl=10.0)
        first = client.resolve(whole_district())
        master.register(sim_payload())
        net.scheduler.run_for(15.0)
        second = client.resolve(whole_district())
        assert client.not_modified == 0
        assert len(second.entities) == len(first.entities) + 1

    def test_use_cache_false_bypasses_cache(self, net, master):
        master.register(bim_payload())
        client = self.make_client(net, master)
        client.resolve(whole_district())
        sent = client.http.requests_sent
        client.resolve(whole_district(), use_cache=False)
        assert client.http.requests_sent == sent + 1

    def test_no_ttl_keeps_legacy_behaviour(self, net, master):
        """The default client (no TTL) still asks the master every time
        — zero added staleness — but asks conditionally: the second
        resolve is answered 304 and returns the held answer."""
        master.register(bim_payload())
        client = DistrictClient(net.add_host("user"), master.uri)
        first = client.resolve(whole_district())
        second = client.resolve(whole_district())
        assert client.held_hits == 0
        assert client.http.requests_sent == 2
        assert client.revalidations == 1
        assert client.not_modified == 1
        assert master.resolve_not_modified == 1
        assert master.resolves_served == 2  # a 304 is a served resolve
        assert second is first

    def test_304_is_not_an_exception_nor_a_failure(self, net, master):
        """The conditional GET's 304 reaches the client as a response to
        branch on: it feeds the breaker as a success and rotates no
        replica."""
        from repro.network.resilience import default_policy

        master.register(bim_payload())
        client = DistrictClient(net.add_host("user"), master.uri,
                                policy=default_policy(seed=1))
        for _ in range(10):
            client.resolve(whole_district())
        assert client.not_modified == 9
        assert client.master_failovers == 0
        assert client.http.policy.breaker.state("master") == "closed"
        assert client.http.policy.retries == 0
        assert master.service.requests_failed == 0

    def test_restore_snapshot_invalidates_client_cache(self, net, master):
        master.register(bim_payload())
        snapshot = master.snapshot()
        client = self.make_client(net, master, ttl=10.0)
        client.resolve(whole_district())
        master.restore(snapshot)
        net.scheduler.run_for(15.0)
        client.resolve(whole_district())
        # the restore bumped the epoch, so revalidation cannot 304
        assert client.revalidations == 1
        assert client.not_modified == 0


QUERIES = (
    AreaQuery("dst-0001"),
    AreaQuery("dst-0001", entity_ids=("bld-0001",)),
    AreaQuery("dst-0001", quantity="power"),
)

_entities = st.sampled_from(["bld-0001", "bld-0002"])
_leases = st.sampled_from([None, 20.0, 45.0])
_uris = st.sampled_from(["svc://a/", "svc://b/"])
_operations = st.one_of(
    st.tuples(st.just("bim"), _entities, _uris, _leases,
              st.sampled_from([(0.0, 0.0, 50.0, 50.0),
                               (10.0, 10.0, 60.0, 60.0)])),
    st.tuples(st.just("sim"), _uris, _leases),
    st.tuples(st.just("gis"), _uris, _leases, st.sampled_from(["", "D"])),
    st.tuples(st.just("measurement"), _uris, _leases),
    st.tuples(st.just("device"), st.sampled_from(["svc://c/", "svc://d/"]),
              _entities, _leases,
              st.sets(st.sampled_from(["dev-0101", "dev-0102", "dev-0103"]),
                      min_size=1),
              st.sampled_from(["power", "temperature"])),
    st.tuples(st.just("advance"), st.sampled_from([5.0, 25.0, 50.0])),
    st.tuples(st.just("evict"),
              st.sampled_from(["svc://a/", "svc://b/", "svc://c/"])),
    st.tuples(st.sampled_from(["reset", "snapshot", "restore", "promote"])),
)


def apply_operation(master, operation, snapshots):
    kind, *args = operation
    if kind == "bim":
        entity, uri, lease, bounds = args
        payload = bim_payload(entity, uri, bounds)
    elif kind == "sim":
        uri, lease = args
        payload = sim_payload(uri=uri)
    elif kind == "gis":
        uri, lease, name = args
        payload = {"proxy_kind": "database", "source_kind": "gis",
                   "district_id": "dst-0001", "uri": uri, "name": name}
    elif kind == "measurement":
        uri, lease = args
        payload = {"proxy_kind": "measurement",
                   "district_id": "dst-0001", "uri": uri}
    elif kind == "device":
        uri, entity, lease, device_ids, quantity = args
        payload = device_payload(uri, entity, sorted(device_ids), quantity)
    elif kind == "advance":
        master.host.network.scheduler.run_for(args[0])
        return
    elif kind == "evict":
        master._evict_uri(args[0])
        return
    elif kind == "snapshot":
        snapshots.append(master.snapshot())
        return
    elif kind == "restore":
        if snapshots:
            master.restore(snapshots[-1])
        return
    else:
        master.reset() if kind == "reset" else master.activate()
        return
    try:
        master.register(payload if lease is None
                        else {**payload, "lease": lease})
    except RegistrationError:
        pass  # a device contested by another proxy: rejected half-way


def outcome_of(resolve, query):
    try:
        return resolve(query).to_dict()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


class TestEpochTokenIsPrecise:
    """The safety invariant of the one resolve path.

    Token equal => nothing a resolve can return has changed, across
    every way the forest can move; so a revalidated (possibly 304)
    client answer always equals a full one.
    """

    @settings(max_examples=250, deadline=None)
    @given(st.lists(_operations, min_size=1, max_size=14))
    def test_equal_token_means_equal_answers(self, operations):
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        master = MasterNode(net.add_host("master"))
        warm = DistrictClient(net.add_host("warm"), master.uri)
        cold = DistrictClient(net.add_host("cold"), master.uri)
        snapshots = []
        previous = None
        for operation in operations:
            apply_operation(master, operation, snapshots)
            # the sweep (run by the route before it reads the token)
            # evicts exactly what is due: its expiry bound delays nothing
            due = {uri for uri, expiry in master._leases.items()
                   if expiry <= net.scheduler.now}
            assert set(master.expire_leases()) == due
            for query in QUERIES:
                assert outcome_of(warm.resolve, query) == outcome_of(
                    lambda q: cold.resolve(q, use_cache=False), query)
            observed = (master.ontology.to_dict(),
                        [outcome_of(master.resolve_area, query)
                         for query in QUERIES])
            token = master.epoch_token()
            if previous is not None and previous[0] == token:
                assert observed == previous[1], operation
            previous = (token, observed)


class TestSteadyState:
    def test_idle_district_answers_every_poll_with_a_304(self):
        """600 s of nothing but heartbeats: the forest does not move, so
        neither does the epoch, and a default client polling every 5 s
        pays one full body, then 119 bodyless revalidations."""
        d = deploy(ScenarioConfig(
            seed=7, n_buildings=3, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
        ))
        d.run(30.0)
        client = d.client("dashboard", with_broker=False)
        received = []
        deliver = d.network._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            if recipient == "dashboard":
                received[-1] += size
            deliver(sender, recipient, port, payload, size, sent_at)

        d.network._deliver = spy
        epoch = d.master.ontology_epoch
        registrations = d.master.registrations
        renewals = d.master.lease_renewals
        first = None
        for _ in range(120):
            received.append(0)
            area = client.resolve(whole_district_of(d))
            first = first or area
            assert area is first
            d.run(5.0)
        assert d.master.lease_renewals > renewals + 100  # heartbeats ran
        assert d.master.registrations == registrations  # as renewals only
        assert d.master.ontology_epoch == epoch
        assert d.master.lease_evictions == 0
        assert client.revalidations == client.not_modified == 119
        assert received[0] > 1024
        assert max(received[1:]) < 1024
        metrics = client.http.get(d.master.uri + "metrics").body["component"]
        assert metrics["resolve_not_modified"] == \
            client.not_modified


class TestCacheUnderChurn:
    def test_default_client_never_serves_an_evicted_uri(self):
        """No TTL to wait out: the first resolve after the lease ran out
        is a full 200 without the dead proxy."""
        d = deploy(ScenarioConfig(
            seed=7, n_buildings=2, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
        ))
        d.run(30.0)
        client = d.client("default-user", with_broker=False)
        entity_id = d.dataset.buildings[0].entity_id
        protocol = next(protocol for (e_id, protocol)
                        in d.device_proxies if e_id == entity_id)
        dead_uri = d.device_proxies[(entity_id, protocol)].service.base_uri
        assert dead_uri in proxy_uris_of(client.resolve(whole_district_of(d)))
        FaultInjector(d).kill_device_proxy(entity_id, protocol)
        lease = 10.0 * LEASE_FACTOR
        stale = 0
        for elapsed in range(0, int(lease) + 20, 5):
            area = client.resolve(whole_district_of(d))
            if elapsed > lease and dead_uri in proxy_uris_of(area):
                stale += 1
            d.run(5.0)
        assert stale == 0
        assert d.master.lease_evictions == 1
        assert dead_uri not in proxy_uris_of(
            client.resolve(whole_district_of(d)))
        # one full body for the eviction, 304s on either side of it
        assert client.revalidations - client.not_modified \
            == 1

    def test_lease_eviction_mid_ttl_is_bounded_staleness(self):
        d = deploy(ScenarioConfig(
            seed=7, n_buildings=2, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
        ))
        d.run(30.0)
        client = d.client("cache-user", with_broker=False,
                          resolve_cache_ttl=20.0)
        entity_id = d.dataset.buildings[0].entity_id
        protocol = next(protocol for (e_id, protocol)
                        in d.device_proxies if e_id == entity_id)
        dead_uri = d.device_proxies[(entity_id, protocol)].service.base_uri
        first = client.resolve(whole_district_of(d))
        assert dead_uri in proxy_uris_of(first)
        FaultInjector(d).kill_device_proxy(entity_id, protocol)
        # within the TTL the client may keep serving the dead proxy —
        # that staleness is the documented bound of the fast path
        d.run(10.0)
        stale = client.resolve(whole_district_of(d))
        assert stale is first
        # past the TTL the lease has expired server-side: revalidation
        # must notice the epoch bump and drop the evicted URI
        d.run(31.0)
        fresh = client.resolve(whole_district_of(d))
        assert client.revalidations >= 1
        assert dead_uri not in proxy_uris_of(fresh)
        assert d.master.lease_evictions >= 1

    def test_promotion_invalidates_tokens_across_failover(self):
        config = ReplicationConfig(heartbeat_period=1.0,
                                   fencing_timeout=3.0,
                                   failover_timeout=5.0,
                                   promotion_stagger=3.0)
        d = deploy(ScenarioConfig(
            seed=7, n_buildings=2, devices_per_building=1,
            net_jitter=0.0, heartbeat_period=10.0,
            master=HubConfig(standbys=1, replication=config),
        ))
        d.run(30.0)
        client = d.client("ha-user", with_broker=False,
                          resolve_cache_ttl=5.0)
        client.http.timeout = 1.0
        first = client.resolve(whole_district_of(d))
        standby = d.replication.member("master-r1").node
        epoch_before = standby.ontology_epoch
        FaultInjector(d).take_offline("master")
        d.run(20.0)  # failover: the standby promotes itself
        assert d.replication.primary.name == "master-r1"
        # promotion bumps the promoted ontology epoch (monotone token)
        assert standby.ontology_epoch > epoch_before
        second = client.resolve(whole_district_of(d))
        # the new member's token can never 304-match the old answer
        assert client.not_modified == 0
        assert proxy_uris_of(second) == proxy_uris_of(first)


def whole_district_of(d):
    return AreaQuery(district_id=d.district_id)


def proxy_uris_of(area):
    return {device.proxy_uri for entity in area.entities
            for device in entity.devices}


class TestStalenessRegressions:
    def test_shrunken_reregistration_prunes_vanished_devices(self, master):
        master.register(device_payload(
            "svc://dev-1/", device_ids=("dev-0101", "dev-0102")))
        master.register(device_payload(
            "svc://dev-1/", device_ids=("dev-0101",)))
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert set(entity.devices) == {"dev-0101"}
        resolved = master.resolve_area(whole_district())
        device_ids = {dev.device_id for e in resolved.entities
                      for dev in e.devices}
        assert device_ids == {"dev-0101"}

    def test_shrunken_reregistration_spares_other_proxies(self, master):
        master.register(device_payload("svc://dev-1/",
                                       device_ids=("dev-0101",)))
        other = device_payload("svc://dev-2/", device_ids=("dev-0103",))
        other["protocol"] = "modbus"
        other["devices"][0]["protocol"] = "modbus"
        master.register(other)
        # dev-1 re-registers with a different list; dev-2's leaf stays
        master.register(device_payload("svc://dev-1/",
                                       device_ids=("dev-0102",)))
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert set(entity.devices) == {"dev-0102", "dev-0103"}

    def test_eviction_prunes_hollow_entities(self, master):
        # a device-only skeleton entity: eviction leaves it with no
        # proxy URIs and no devices, so the node must go away entirely
        master.register(device_payload("svc://dev-1/"))
        nodes_before = master.ontology.node_count()
        master._evict_uri("svc://dev-1/")
        district = master.ontology.district("dst-0001")
        assert "bld-0001" not in district.entities
        assert master.ontology.node_count() < nodes_before
        resolved = master.resolve_area(whole_district())
        assert resolved.entities == ()

    def test_eviction_keeps_entities_with_other_sources(self, master):
        master.register(bim_payload())
        master.register(device_payload("svc://dev-1/"))
        master._evict_uri("svc://dev-1/")
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert entity.proxy_uris == {"bim": "svc://proxy-bim-1/"}
        assert entity.devices == {}
