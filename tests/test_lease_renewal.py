"""Heartbeats renew a lease by validator; they do not re-ship the descriptor.

The protocol (full registration + token, renewal ``{uri, lease, token}``,
412 refusal answered by a full registration inside the same heartbeat),
its fault paths (master reset, failover, partition past the lease,
pre-renewal snapshots) and its invariant: *equal token => equal held
descriptor* — a renewal is only ever accepted while the master's leaves
for that URI are exactly what the proxy would have re-shipped.
"""

import json

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.master import MasterNode
from repro.core.replication import ReplicationConfig, replicate
from repro.devices.catalog import power_meter
from repro.devices.firmware import RadioLink
from repro.devices.profiles import ConstantProfile
from repro.errors import RegistrationError, UnknownRegistrationError
from repro.middleware.broker import Broker
from repro.network.resilience import FailoverSet
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.ontology import AreaQuery
from repro.protocols import make_adapter
from repro.proxies.device_proxy import DeviceProxy
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig, load_state, save_state

PERIOD = 10.0
LEASE = 30.0
REPLICATION = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=3.0,
                                failover_timeout=5.0, promotion_stagger=3.0)


@pytest.fixture
def net():
    network = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(network.add_host("broker"))
    return network


@pytest.fixture
def master(net):
    return MasterNode(net.add_host("master"))


def make_proxy(net, name="proxy-dev-1", devices=1):
    proxy = DeviceProxy(net.add_host(name), adapter=make_adapter("zigbee"),
                        broker_host="broker", district_id="dst-0001")
    for _ in range(devices):
        attach(net, proxy)
    return proxy


def attach(net, proxy):
    """Attach one more meter; ids are unique per proxy host."""
    index = proxy._devices_rev
    host = sum(map(ord, proxy.name)) % 256
    device = power_meter(
        f"dev-{host:02x}{index:02x}", "zigbee",
        f"00:12:4b:00:00:00:{host:02x}:{index:02x}", "bld-0001",
        ConstantProfile(100.0))
    proxy.attach_device(device, RadioLink(net.scheduler))
    return device


def leaves_of(node, uri):
    """Device ids the master *node* holds for one proxy URI."""
    return {device_id
            for district in node.ontology.districts()
            for entity in district.entities.values()
            for device_id, leaf in entity.devices.items()
            if leaf.proxy_uri == uri}


def device_ids(proxy):
    return {device.device_id for device in proxy.devices()}


def record_bodies(proxy):
    """Spy on the bodies *proxy* POSTs from now on."""
    bodies = []
    real_request = proxy._client.request

    def spy(*args, body=None, **kwargs):
        bodies.append(body)
        return real_request(*args, body=body, **kwargs)

    proxy._client.request = spy
    return bodies


class TestProtocol:
    def test_descriptor_travels_once_then_renewals(self, net, master):
        proxy = make_proxy(net, devices=2)
        bodies = record_bodies(proxy)
        proxy.register_with(master.uri, lease=LEASE)
        proxy.start_heartbeat(master.uri, PERIOD, lease=LEASE)
        net.scheduler.run_for(3.5 * PERIOD)
        full, *renewals = bodies
        assert full["proxy_kind"] == "device" and len(full["devices"]) == 2
        assert full["token"] == proxy.registration_token()
        assert renewals == [{"uri": proxy.uri, "lease": LEASE,
                             "token": proxy.registration_token()}] * 3
        assert (master.registrations, master.lease_renewals,
                master.renewals_refused) == (1, 3, 0)
        assert proxy.heartbeats_sent == 3
        assert master.expire_leases() == []  # the renewals held the lease

    def test_changed_descriptor_ships_in_full_in_the_next_heartbeat(
            self, net, master):
        proxy = make_proxy(net)
        proxy.register_with(master.uri, lease=LEASE)
        proxy.start_heartbeat(master.uri, PERIOD, lease=LEASE)
        net.scheduler.run_for(1.5 * PERIOD)
        token, epoch = proxy.registration_token(), master.ontology_epoch
        attach(net, proxy)
        assert proxy.registration_token() != token
        bodies = record_bodies(proxy)
        net.scheduler.run_for(2 * PERIOD)
        assert "devices" in bodies[0] and "devices" not in bodies[1]
        assert leaves_of(master, proxy.uri) == device_ids(proxy)
        assert master.ontology_epoch == epoch + 1
        assert master.registrations == 2
        proxy.detach_device(sorted(device_ids(proxy))[0])
        net.scheduler.run_for(PERIOD)
        assert leaves_of(master, proxy.uri) == device_ids(proxy)
        assert len(device_ids(proxy)) == 1

    def test_token_is_a_content_digest_computed_once_per_revision(
            self, net, master, monkeypatch):
        proxy, twin = make_proxy(net), make_proxy(net, "proxy-dev-2")
        assert proxy.registration_token() != twin.registration_token()
        dumps, real_dumps = [], json.dumps
        monkeypatch.setattr("repro.proxies.base.json.dumps",
                            lambda *a, **kw: dumps.append(a) or
                            real_dumps(*a, **kw))
        proxy.register_with(master.uri, lease=LEASE)
        proxy.start_heartbeat(master.uri, PERIOD, lease=LEASE)
        net.scheduler.run_for(5.5 * PERIOD)
        assert dumps == []  # digested before the patch, never again
        attach(net, proxy)
        net.scheduler.run_for(3 * PERIOD)
        assert len(dumps) == 1

    def test_renewal_never_moves_the_epoch_nor_the_forest(self, net, master):
        proxy = make_proxy(net, devices=3)
        proxy.register_with(master.uri, lease=LEASE)
        epoch, forest = master.ontology_epoch, master.ontology.to_dict()
        for _ in range(5):
            net.scheduler.run_for(PERIOD)
            assert master.register({"uri": proxy.uri, "lease": LEASE,
                                    "token": proxy.registration_token()}) \
                == {"renewed": True}
        assert master.ontology_epoch == epoch
        assert master.ontology.to_dict() == forest
        assert master.active_leases == 1

    def test_renewal_refused_for_unknown_stale_and_evicted(self, net,
                                                           master):
        proxy = make_proxy(net)
        token = proxy.registration_token()
        renewal = {"uri": proxy.uri, "lease": LEASE, "token": token}
        with pytest.raises(UnknownRegistrationError):
            master.register(renewal)  # never registered
        proxy.register_with(master.uri, lease=LEASE)
        with pytest.raises(UnknownRegistrationError):
            master.register({**renewal, "token": "0" * 16})
        with pytest.raises(UnknownRegistrationError):
            master.register({**renewal, "uri": "svc://somebody-else/"})
        master.register(renewal)
        net.scheduler.run_for(LEASE + 1.0)  # lapses: nobody swept yet
        with pytest.raises(UnknownRegistrationError):
            master.register(renewal)
        assert master.lease_evictions == 1
        assert leaves_of(master, proxy.uri) == set()
        assert master.renewals_refused == 4

    def test_refusal_is_412_on_the_wire_and_a_bad_payload_stays_400(
            self, net, master):
        client = HttpClient(net.add_host("anyone"))
        refused = client.call(master.uri + "register", method="POST",
                              body={"uri": "svc://x/", "token": "t"},
                              check=False)
        assert refused.status == UnknownRegistrationError.status == 412
        bad = client.call(master.uri + "register", method="POST",
                          body={"uri": "svc://x/"}, check=False)
        assert bad.status == 400

    def test_identical_full_reregistration_is_recognised_by_token(
            self, net, master):
        proxy = make_proxy(net, devices=2)
        first = proxy.register_with(master.uri, lease=LEASE)
        assert first["device_ids"] == sorted(device_ids(proxy))
        epoch = master.ontology_epoch
        net.scheduler.run_for(20.0)
        assert proxy.register_with(master.uri, lease=LEASE) == \
            {"attached": "unchanged"}
        assert master.ontology_epoch == epoch
        assert master.registrations == 2
        net.scheduler.run_for(LEASE - 1.0)  # the lease was renewed too
        assert master.expire_leases() == []

    def test_contested_slot_ends_the_losers_registration(self, net, master):
        def bim(uri, token):
            return {"proxy_kind": "database", "source_kind": "bim",
                    "district_id": "dst-0001", "entity_id": "bld-0001",
                    "uri": uri, "token": token, "lease": LEASE}

        master.register(bim("svc://bim-a/", "token-a"))
        master.register(bim("svc://bim-b/", "token-b"))
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert entity.proxy_uris["bim"] == "svc://bim-b/"
        # A's token no longer names what the forest holds: refused, so
        # A re-registers in full and takes the slot back, as before
        with pytest.raises(UnknownRegistrationError):
            master.register({"uri": "svc://bim-a/", "token": "token-a"})
        master.register(bim("svc://bim-a/", "token-a"))
        assert entity.proxy_uris["bim"] == "svc://bim-a/"

    def test_rejected_registration_forfeits_the_token(self, net, master):
        owner, thief = make_proxy(net), make_proxy(net, "proxy-dev-2")
        owner.register_with(master.uri, lease=LEASE)
        thief.register_with(master.uri, lease=LEASE)
        stolen = owner.devices()[0]
        thief.attach_device(power_meter(
            stolen.device_id, "zigbee", "00:12:4b:00:00:00:ff:ff",
            "bld-0001", ConstantProfile(1.0)), RadioLink(net.scheduler))
        with pytest.raises(RegistrationError):
            thief.register_with(master.uri, lease=LEASE)
        # the thief's half-applied descriptor is held under no token
        assert thief.uri not in master._tokens
        master.register({"uri": owner.uri, "lease": LEASE,
                         "token": owner.registration_token()})


class TestHeartbeatOutcomes:
    def two_masters(self, net):
        masters = [MasterNode(net.add_host(f"master-{i}")) for i in "ab"]
        return masters, FailoverSet([m.uri for m in masters])

    def test_a_4xx_heartbeat_does_not_rotate_away_from_the_primary(
            self, net):
        (primary, _), masters = self.two_masters(net)
        proxy = make_proxy(net, devices=0)  # "registered without devices"
        proxy.start_heartbeat(masters, PERIOD, lease=LEASE)
        net.scheduler.run_for(3.5 * PERIOD)
        assert proxy.heartbeats_failed == 3 and proxy.heartbeats_sent == 0
        assert primary.service.requests_failed == 3
        assert masters.failovers == 0
        assert masters.current == primary.uri.rstrip("/")

    def test_a_5xx_or_a_timeout_does_rotate(self, net):
        master = MasterNode(net.add_host("master"))
        group = replicate(master, 1, REPLICATION)
        masters = FailoverSet(list(reversed(group.uris())))  # standby first
        proxy = make_proxy(net)
        proxy.start_heartbeat(masters, PERIOD, lease=LEASE)
        net.scheduler.run_for(1.5 * PERIOD)  # 503 from the standby
        assert (proxy.heartbeats_failed, masters.failovers) == (1, 1)
        net.scheduler.run_for(PERIOD)  # full registration on the primary
        assert proxy.registered and master.registrations == 1
        net.set_host_online("master", False)
        net.scheduler.run_for(PERIOD)  # timeout
        assert masters.failovers == 2

    def test_refused_renewal_recovers_inside_the_same_heartbeat(self, net,
                                                                master):
        proxy = make_proxy(net, devices=2)
        proxy.register_with(master.uri, lease=LEASE)
        proxy.start_heartbeat(master.uri, PERIOD, lease=LEASE)
        net.scheduler.run_for(1.5 * PERIOD)
        master.reset()
        bodies = record_bodies(proxy)
        net.scheduler.run_for(0.5 * PERIOD + 0.1)  # the tick + two RTTs
        assert ["devices" in body for body in bodies] == [False, True]
        assert master.renewals_refused == 1
        assert leaves_of(master, proxy.uri) == device_ids(proxy)
        assert proxy.registered
        assert (proxy.heartbeats_sent, proxy.heartbeats_failed) == (2, 0)


def whole(d):
    return AreaQuery(district_id=d.district_id)


def registrants(d):
    return [d.measurement_db, d.gis_proxy, *d.bim_proxies.values(),
            *d.sim_proxies.values(), *d.device_proxies.values()]


def resolved_uris(area):
    uris = set(area.gis_uris) | set(area.measurement_uris)
    for entity in area.entities:
        uris.update(entity.proxy_uris.values())
        uris.update(device.proxy_uri for device in entity.devices)
    return uris


class TestFaultPaths:
    def test_master_reset_heals_within_one_period_and_one_rtt(self):
        d = deploy(ScenarioConfig(seed=5, n_buildings=3,
                                  devices_per_building=3, net_jitter=0.0,
                                  heartbeat_period=PERIOD))
        d.run(25.0)
        client = d.client("user", with_broker=False)
        before = client.resolve(whole(d), use_cache=False)
        d.master.reset()
        d.run(PERIOD + 0.1)
        after = client.resolve(whole(d), use_cache=False)
        assert resolved_uris(after) == resolved_uris(before) \
            == {r.uri for r in registrants(d)}
        assert after.to_dict()["entities"] == before.to_dict()["entities"]
        assert d.master.renewals_refused == len(registrants(d))
        assert all(r.registered for r in registrants(d))

    def test_failover_needs_no_reregistration_and_evicts_nobody(self):
        d = deploy(ScenarioConfig(
            seed=7, n_buildings=2, devices_per_building=2, net_jitter=0.0,
            heartbeat_period=PERIOD,
            master=HubConfig(standbys=1, replication=REPLICATION),
        ))
        d.run(35.0)
        standby = d.replication.member("master-r1").node
        assert standby._tokens == d.master._tokens  # streamed, not shipped
        assert standby.registrations == d.master.registrations
        faults = FaultInjector(d)
        faults.take_offline("master")
        d.run(12.0)  # promotion; the proxies' next heartbeat rotates
        assert d.replication.primary.node is standby
        # the deposed primary rejoins as the standby whose acks keep the
        # new primary unfenced (a lone survivor refuses every write)
        faults.restore("master")
        d.run(50.0)  # several renewal rounds on the promoted master
        assert d.replication.primary.node is standby
        assert standby.registrations == d.master.registrations
        assert standby.lease_renewals > len(registrants(d))
        assert standby.renewals_refused == 0
        assert standby.lease_evictions == 0
        assert standby.active_leases == len(registrants(d))
        client = d.client("user", with_broker=False)
        client.http.timeout = 1.0
        assert resolved_uris(client.resolve(whole(d))) == \
            {r.uri for r in registrants(d)}

    def test_standby_extends_leases_without_seeing_the_descriptor(self):
        d = deploy(ScenarioConfig(
            seed=7, n_buildings=1, devices_per_building=2, net_jitter=0.0,
            heartbeat_period=PERIOD,
            master=HubConfig(standbys=2, replication=REPLICATION),
        ))
        d.run(15.0)
        standby = d.replication.member("master-r2").node
        applied = []
        real_apply = standby.apply
        standby.apply = lambda record: applied.append(record) or \
            real_apply(record)
        d.run(3 * PERIOD)
        assert len(applied) == 3 * len(registrants(d))
        assert all(set(record) == {"uri", "lease", "token"}
                   for record in applied)
        assert standby.expire_leases() == []
        assert min(standby._leases.values()) > d.scheduler.now + PERIOD

    def test_partition_past_the_lease_heals_in_the_first_tick(self):
        d = deploy(ScenarioConfig(seed=5, n_buildings=2,
                                  devices_per_building=2, net_jitter=0.0,
                                  heartbeat_period=PERIOD))
        d.run(15.0)
        proxy = next(iter(d.device_proxies.values()))
        mdb = d.measurement_db
        faults = FaultInjector(d)
        faults.partition([proxy.host.name, mdb.host.name])
        d.run(LEASE + PERIOD)  # both leases run out on the master
        assert d.master.lease_evictions == 2
        assert leaves_of(d.master, proxy.uri) == set()
        faults.heal_partition()
        registrations = d.master.registrations
        bodies = record_bodies(proxy)
        d.run(PERIOD)  # exactly one heartbeat tick each
        assert ["devices" in body for body in bodies] == [False, True]
        assert d.master.renewals_refused == 2
        assert d.master.registrations == registrations + 2
        assert leaves_of(d.master, proxy.uri) == device_ids(proxy)
        # PR 14's regression: the measurement DB comes back the same way
        district = d.master.ontology.district(d.district_id)
        assert mdb.uri in district.measurement_uris and mdb.registered

    def test_snapshot_written_before_renewals_existed_still_loads(
            self, tmp_path):
        path = str(tmp_path / "master.json")
        d = deploy(ScenarioConfig(
            seed=5, n_buildings=2, devices_per_building=2, net_jitter=0.0,
            heartbeat_period=PERIOD,
            master=HubConfig(snapshot_path=path, snapshot_period=PERIOD),
        ))
        d.run(25.0)
        journal = d.master.journal
        state = load_state(path, journal.format, journal.version)
        assert state.pop("tokens")  # today's snapshots carry the table
        save_state(path, journal.format, journal.version, state)
        nodes = d.master.ontology.node_count()
        assert FaultInjector(d).restart_master() == nodes
        assert d.master._tokens == {}
        registrations = d.master.registrations
        d.run(PERIOD)
        assert d.master.renewals_refused == len(registrants(d))
        assert d.master.registrations == registrations + len(registrants(d))
        assert d.master.lease_evictions == 0
        refused = d.master.renewals_refused
        d.run(PERIOD)  # and from then on renewals again
        assert d.master.renewals_refused == refused

    def test_recovered_snapshot_keeps_accepting_renewals(self, tmp_path):
        d = deploy(ScenarioConfig(
            seed=5, n_buildings=2, devices_per_building=2, net_jitter=0.0,
            heartbeat_period=PERIOD,
            master=HubConfig(snapshot_path=str(tmp_path / "master.json"),
                             snapshot_period=PERIOD),
        ))
        d.run(25.0)
        registrations = d.master.registrations
        assert FaultInjector(d).restart_master()
        d.run(2 * PERIOD)
        assert d.master.renewals_refused == 0
        assert d.master.registrations == registrations


class RegistrationMachine(RuleBasedStateMachine):
    """Two Device-proxies against a master + standby under churn.

    Every ``_renew`` on either replica is wrapped: an accepted renewal
    must find the replica holding exactly the devices of the descriptor
    the token digests (equal token => equal held descriptor), for a URI
    that is registered, and must leave the ontology epoch where the
    lease sweep left it.
    """

    def __init__(self):
        super().__init__()
        self.net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        Broker(self.net.add_host("broker"))
        master = MasterNode(self.net.add_host("master"))
        self.group = replicate(master, 1, REPLICATION)
        self.masters = FailoverSet(self.group.uris())
        self.proxies = [make_proxy(self.net, f"proxy-dev-{i}")
                        for i in (1, 2)]
        #: token -> the device ids of the descriptor it digests
        self.described = {}
        self.snapshot = None
        for node in self.group.nodes():
            self.watch(node)
        for proxy in self.proxies:
            self.describe(proxy)
            proxy.register_with(self.masters, lease=LEASE)

    def describe(self, proxy):
        self.described[proxy.registration_token()] = device_ids(proxy)

    def watch(self, node):
        renew = node._renew

        def checked(uri, lease, token):
            node.expire_leases()
            epoch = node.ontology_epoch
            answer = renew(uri, lease, token)  # raises when refused
            assert node.ontology_epoch == epoch
            assert leaves_of(node, uri) == self.described[token] != set()
            assert uri in node._leases
            return answer

        node._renew = checked

    @property
    def primary(self):
        return self.group.primary.node

    @rule(index=st.integers(0, 1))
    def attach_device(self, index):
        if len(self.proxies[index].devices()) < 4:
            attach(self.net, self.proxies[index])
            self.describe(self.proxies[index])

    @rule(index=st.integers(0, 1))
    def detach_device(self, index):
        proxy = self.proxies[index]
        if len(proxy.devices()) > 1:
            proxy.detach_device(proxy.devices()[0].device_id)
            self.describe(proxy)

    @rule(index=st.integers(0, 1))
    def heartbeat(self, index):
        proxy = self.proxies[index]
        sent = proxy.heartbeats_sent
        proxy._heartbeat(self.masters, LEASE)
        self.net.scheduler.run_for(1.0)
        if proxy.heartbeats_sent > sent:  # completed (else: rotated)
            assert proxy.registered
            assert leaves_of(self.primary, proxy.uri) == device_ids(proxy)
            assert self.primary._tokens[proxy.uri] == \
                proxy.registration_token()

    @rule(seconds=st.sampled_from([2.0, 9.0, LEASE + 1.0]))
    def advance(self, seconds):
        self.net.scheduler.run_for(seconds)

    @rule()
    def reset_master(self):
        self.primary.reset()

    @rule()
    def take_snapshot(self):
        self.snapshot = self.primary.snapshot()

    @precondition(lambda self: self.snapshot is not None)
    @rule()
    def restore_snapshot(self):
        self.primary.restore(self.snapshot)

    @rule()
    def failover(self):
        dead = self.group.primary.name
        self.net.set_host_online(dead, False)
        self.net.scheduler.run_for(12.0)
        self.net.set_host_online(dead, True)
        self.net.scheduler.run_for(3.0)

    @rule(index=st.integers(0, 1), stale=st.booleans())
    def rogue_renewal(self, index, stale):
        """A renewal for an unregistered URI, or under a token the
        master does not hold, is refused on every replica."""
        proxy = self.proxies[index]
        uri = proxy.uri if stale else "svc://nobody/"
        for node in self.group.nodes():
            if stale and node._tokens.get(uri) == "0" * 16:
                continue
            with pytest.raises(UnknownRegistrationError):
                node.apply({"uri": uri, "lease": LEASE, "token": "0" * 16})

    @invariant()
    def tokens_only_for_held_registrations(self):
        for node in self.group.nodes():
            for uri in node._tokens:
                assert leaves_of(node, uri) != set()


RegistrationMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestRegistrationMachine = RegistrationMachine.TestCase
