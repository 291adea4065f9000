"""Tests for the end-to-end resilience layer.

Covers the retry/backoff policy, the per-host circuit breaker, the
registration-lease eviction path, broker-restart re-subscription and
the offline publication buffer — each both in isolation and wired into
a deployed district.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    RegistrationError,
    RequestTimeoutError,
    ServiceError,
)
from repro.middleware.broker import Broker
from repro.middleware.peer import MiddlewarePeer
from repro.network.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    default_policy,
)
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import GET, HttpClient, WebService, error, ok
from repro.ontology import AreaQuery
from repro.simulation.faults import FaultInjector
from repro.simulation.metrics import resilience_counters
from repro.simulation.scenario import ScenarioConfig, deploy


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(9) == pytest.approx(0.5)

    def test_jitter_stays_in_bounds_and_is_deterministic(self):
        first = RetryPolicy(base_delay=0.1, jitter=0.3, seed=7)
        again = RetryPolicy(base_delay=0.1, jitter=0.3, seed=7)
        waits = [first.backoff(n) for n in (1, 1, 1, 1)]
        assert waits == [again.backoff(n) for n in (1, 1, 1, 1)]
        assert all(0.07 <= w <= 0.13 for w in waits)
        assert len(set(waits)) > 1  # jitter actually varies

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff(0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_timeout=10.0)
        for _ in range(2):
            breaker.record_failure("h", now=0.0)
        assert breaker.state("h") == CLOSED
        breaker.record_failure("h", now=0.0)
        assert breaker.state("h") == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("h", now=0.0)
        breaker.record_success("h")
        breaker.record_failure("h", now=0.0)
        assert breaker.state("h") == CLOSED

    def test_open_rejects_until_recovery_timeout(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0)
        breaker.record_failure("h", now=0.0)
        assert not breaker.allow("h", now=1.0)
        assert breaker.rejections == 1
        assert breaker.allow("h", now=5.0)  # half-open probe admitted
        assert breaker.state("h") == HALF_OPEN

    def test_half_open_success_closes_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0)
        breaker.record_failure("h", now=0.0)
        assert breaker.allow("h", now=6.0)
        breaker.record_success("h")
        assert breaker.state("h") == CLOSED

        breaker.record_failure("h", now=7.0)
        assert breaker.allow("h", now=13.0)
        breaker.record_failure("h", now=13.0)
        assert breaker.state("h") == OPEN
        assert breaker.trips == 3

    def test_half_open_probe_budget(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=1.0,
                                 half_open_probes=1)
        breaker.record_failure("h", now=0.0)
        assert breaker.allow("h", now=2.0)
        assert not breaker.allow("h", now=2.0)  # probe budget spent

    def test_targets_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("bad", now=0.0)
        assert breaker.state("bad") == OPEN
        assert breaker.state("good") == CLOSED
        assert breaker.allow("good", now=0.0)


class TestHttpClientRetries:
    def _flaky_service(self, net, failures: int):
        svc = WebService(net.add_host("server"))
        seen = {"calls": 0}

        @svc.route(GET, "/thing")
        def thing(request):
            seen["calls"] += 1
            if seen["calls"] <= failures:
                return error(503, "warming up")
            return ok({"answer": 42})

        return svc, seen

    def test_5xx_retried_until_success(self, net):
        _svc, seen = self._flaky_service(net, failures=2)
        policy = ResiliencePolicy(retry=RetryPolicy(
            max_attempts=4, base_delay=0.05, jitter=0.0))
        client = HttpClient(net.add_host("client"), policy=policy)
        response = client.get("svc://server/thing")
        assert response.body == {"answer": 42}
        assert seen["calls"] == 3
        assert policy.retries == 2
        assert policy.exhausted == 0
        # the two backoff waits were spent on the simulated clock
        assert net.scheduler.now >= 0.05 + 0.1

    def test_retries_exhausted_surfaces_the_error(self, net):
        self._flaky_service(net, failures=99)
        policy = ResiliencePolicy(retry=RetryPolicy(
            max_attempts=3, base_delay=0.01, jitter=0.0))
        client = HttpClient(net.add_host("client"), policy=policy)
        with pytest.raises(ServiceError) as exc:
            client.get("svc://server/thing")
        assert exc.value.status == 503
        assert policy.retries == 2
        assert policy.exhausted == 1

    def test_timeouts_retried_then_raised(self, net):
        net.add_host("server")  # host exists but runs no service
        policy = ResiliencePolicy(retry=RetryPolicy(
            max_attempts=3, base_delay=0.01, jitter=0.0))
        client = HttpClient(net.add_host("client"), timeout=0.2,
                            policy=policy)
        with pytest.raises(RequestTimeoutError):
            client.get("svc://server/thing")
        assert policy.retries == 2
        assert policy.exhausted == 1

    def test_without_policy_behaviour_is_single_shot(self, net):
        _svc, seen = self._flaky_service(net, failures=1)
        client = HttpClient(net.add_host("client"))
        with pytest.raises(ServiceError):
            client.get("svc://server/thing")
        assert seen["calls"] == 1


class TestHttpClientBreaker:
    def test_open_circuit_fast_fails_without_traffic(self, net):
        net.add_host("server")  # dark host: every request times out
        policy = ResiliencePolicy(breaker=CircuitBreaker(
            failure_threshold=2, recovery_timeout=60.0))
        client = HttpClient(net.add_host("client"), timeout=0.2,
                            policy=policy)
        for _ in range(2):
            with pytest.raises(RequestTimeoutError):
                client.get("svc://server/x")
        assert policy.breaker.state("server") == OPEN
        sent_before = client.requests_sent
        clock_before = net.scheduler.now
        with pytest.raises(CircuitOpenError):
            client.get("svc://server/x")
        assert client.requests_sent == sent_before  # no wire traffic
        assert net.scheduler.now == clock_before    # no timeout paid
        assert policy.breaker.rejections == 1

    def test_half_open_probe_recovers_service(self, net):
        host = net.add_host("server")
        policy = ResiliencePolicy(breaker=CircuitBreaker(
            failure_threshold=1, recovery_timeout=5.0))
        client = HttpClient(net.add_host("client"), timeout=0.2,
                            policy=policy)
        with pytest.raises(RequestTimeoutError):
            client.get("svc://server/ping")
        assert policy.breaker.state("server") == OPEN

        svc = WebService(host)  # service comes up during the open window
        svc.add_route(GET, "/ping", lambda r: ok("pong"))
        net.scheduler.run_for(6.0)
        response = client.get("svc://server/ping")
        assert response.body == "pong"
        assert policy.breaker.state("server") == CLOSED

    def test_default_policy_bundles_both(self):
        policy = default_policy(seed=3)
        assert policy.retry is not None
        assert policy.breaker is not None
        counters = policy.counters()
        assert counters == {"retries": 0, "retry_exhausted": 0,
                            "breaker_trips": 0, "breaker_rejections": 0}


@pytest.fixture
def leased():
    d = deploy(ScenarioConfig(seed=5, n_buildings=2,
                              devices_per_building=2, n_networks=1,
                              net_jitter=0.0, heartbeat_period=30.0))
    d.run(120.0)
    return d


class TestRegistrationLeases:
    def test_heartbeats_keep_registrations_alive(self, leased):
        assert leased.master.active_leases > 0
        evicted = leased.master.expire_leases()
        assert evicted == []
        proxy = next(iter(leased.device_proxies.values()))
        assert proxy.heartbeats_sent > 0

    def test_dead_proxy_evicted_after_lease_expiry(self, leased):
        injector = FaultInjector(leased)
        spec = leased.dataset.buildings[0].devices[0]
        proxy = leased.device_proxies[(spec.entity_id, spec.protocol)]
        dead_uri = proxy.uri
        injector.kill_device_proxy(spec.entity_id, spec.protocol)

        client = leased.client("lease-user", with_broker=False)
        resolved = client.resolve(
            AreaQuery(district_id=leased.district_id,
                      entity_ids=(spec.entity_id,))
        )
        uris = {d.proxy_uri for e in resolved.entities for d in e.devices}
        assert dead_uri in uris  # lease not expired yet

        leased.run(120.0)  # > one lease (3 * 30 s) past the last heartbeat
        resolved = client.resolve(
            AreaQuery(district_id=leased.district_id,
                      entity_ids=(spec.entity_id,))
        )
        uris = {d.proxy_uri for e in resolved.entities for d in e.devices}
        assert dead_uri not in uris
        assert leased.master.lease_evictions >= 1

    def test_strict_query_succeeds_after_eviction_without_manual_help(
            self, leased):
        injector = FaultInjector(leased)
        spec = leased.dataset.buildings[0].devices[0]
        injector.kill_device_proxy(spec.entity_id, spec.protocol)
        leased.run(120.0)
        client = leased.client("evicted-user", with_broker=False)
        # no reregister_all(): the lease layer healed the ontology alone
        model = client.build_area_model(
            AreaQuery(district_id=leased.district_id), with_data=True,
        )
        assert len(model.buildings) == 2

    def test_restored_proxy_reappears_via_heartbeat(self, leased):
        injector = FaultInjector(leased)
        spec = leased.dataset.buildings[0].devices[0]
        proxy = leased.device_proxies[(spec.entity_id, spec.protocol)]
        injector.kill_device_proxy(spec.entity_id, spec.protocol)
        leased.run(120.0)
        assert leased.master.lease_evictions >= 1

        injector.restore_all()
        leased.run(60.0)  # at least one heartbeat round-trip
        client = leased.client("healed-user", with_broker=False)
        resolved = client.resolve(
            AreaQuery(district_id=leased.district_id,
                      entity_ids=(spec.entity_id,))
        )
        uris = {d.proxy_uri for e in resolved.entities for d in e.devices}
        assert proxy.uri in uris

    def test_lease_must_be_positive(self, leased):
        with pytest.raises(RegistrationError, match="bad lease"):
            leased.gis_proxy.register_with(leased.master.uri, lease=-1.0)


class TestBrokerRecovery:
    def test_resubscribe_after_broker_restart(self, net):
        broker = Broker(net.add_host("broker"))
        peer = MiddlewarePeer(net.add_host("peer"), "broker")
        got = []
        peer.subscribe("alerts/#", got.append)
        net.scheduler.run_for(1.0)
        assert broker.subscription_count() == 1

        broker.reset()  # crash-restart: subscription table lost
        assert broker.subscription_count() == 0
        assert peer.resubscribe_all() == 1
        net.scheduler.run_for(1.0)

        publisher = MiddlewarePeer(net.add_host("pub"), "broker")
        publisher.publish("alerts/fire", {"zone": 3})
        net.scheduler.run_for(1.0)
        assert [e.payload for e in got] == [{"zone": 3}]

    def test_keepalive_is_a_noop_on_a_healthy_broker(self, net):
        broker = Broker(net.add_host("broker"))
        peer = MiddlewarePeer(net.add_host("peer"), "broker",
                              keepalive=10.0)
        peer.subscribe("alerts/#", lambda e: None)
        net.scheduler.run_for(35.0)  # three keepalive rounds
        assert broker.subscription_count() == 1
        assert broker.stats.duplicate_subscriptions_ignored >= 3
        peer.close()

    def test_keepalive_repopulates_restarted_broker(self):
        d = deploy(ScenarioConfig(seed=9, n_buildings=2,
                                  devices_per_building=2, n_networks=1,
                                  net_jitter=0.0, peer_keepalive=30.0))
        d.run(60.0)
        injector = FaultInjector(d)
        subs_before = d.broker.subscription_count()
        assert subs_before > 0
        injector.restart_broker()
        assert d.broker.subscription_count() == 0
        ingested = d.measurement_db.ingested
        d.run(120.0)  # keepalives repopulate, ingestion resumes
        assert d.broker.subscription_count() >= 1
        assert d.measurement_db.ingested > ingested

    def test_publications_buffered_and_flushed_across_outage(self):
        d = deploy(ScenarioConfig(seed=11, n_buildings=2,
                                  devices_per_building=2, n_networks=1,
                                  net_jitter=0.0, publish_buffer=256))
        d.run(120.0)
        injector = FaultInjector(d)
        injector.kill_broker()
        d.run(120.0)
        buffered = sum(p.peer.buffered
                       for p in d.device_proxies.values())
        assert buffered > 0
        assert any(p.peer.broker_suspect
                   for p in d.device_proxies.values())

        ingested = d.measurement_db.ingested
        injector.restore_broker()
        d.run(120.0)
        counters = resilience_counters(d)
        assert counters["publications_flushed"] > 0
        assert d.measurement_db.ingested > ingested
        assert not any(p.peer.broker_suspect
                       for p in d.device_proxies.values())

    def test_bounded_buffer_drops_oldest(self, net):
        net.add_host("broker")  # dark host, never acks
        peer = MiddlewarePeer(net.add_host("peer"), "broker",
                              publish_buffer=3, ack_timeout=0.5)
        for n in range(6):
            peer.publish("alerts/n", {"n": n})
            net.scheduler.run_for(1.0)
        assert peer.buffered == 3
        assert peer.publications_dropped > 0
        assert [e["payload"]["n"] for e in peer._buffer] == [3, 4, 5]
        peer.close()


class TestFlakyLinks:
    def test_flaky_drops_and_spikes_are_counted(self):
        d = deploy(ScenarioConfig(seed=13, n_buildings=2,
                                  devices_per_building=2, n_networks=1,
                                  net_jitter=0.0))
        injector = FaultInjector(d)
        injector.flaky("mdb", drop_probability=0.5,
                       latency_spike=0.05, spike_probability=0.5)
        d.run(300.0)
        assert d.network.stats.messages_dropped_flaky > 0
        assert d.network.stats.latency_spikes > 0
        assert list(d.network.flaky_hosts()) == ["mdb"]

        injector.heal()
        assert d.network.flaky_hosts() == {}
        dropped = d.network.stats.messages_dropped_flaky
        d.run(300.0)
        assert d.network.stats.messages_dropped_flaky == dropped

    def test_flaky_unknown_host_rejected(self):
        d = deploy(ScenarioConfig(seed=13, n_buildings=2,
                                  devices_per_building=2, n_networks=1,
                                  net_jitter=0.0))
        injector = FaultInjector(d)
        with pytest.raises(ConfigurationError):
            injector.flaky("ghost", drop_probability=0.5)

    def test_retries_ride_through_a_lossy_link(self):
        d = deploy(ScenarioConfig(seed=17, n_buildings=2,
                                  devices_per_building=2, n_networks=1,
                                  net_jitter=0.0))
        d.run(60.0)
        injector = FaultInjector(d)
        policy = ResiliencePolicy(retry=RetryPolicy(
            max_attempts=6, base_delay=0.05, jitter=0.1, seed=17))
        client = d.client("flaky-user", with_broker=False, policy=policy)
        client.http.timeout = 0.5
        injector.flaky("master", drop_probability=0.4)
        model = client.build_area_model(
            AreaQuery(district_id=d.district_id)
        )
        assert len(model.buildings) == 2


class TestHealthEndpoints:
    def test_master_and_proxy_health(self, leased):
        client = leased.client("health-user", with_broker=False)
        master = client.http.get(
            leased.master.uri.rstrip("/") + "/metrics").body["component"]
        assert master["active_leases"] == leased.master.active_leases

        proxy = next(iter(leased.device_proxies.values()))
        info = client.http.get(
            proxy.uri.rstrip("/") + "/metrics").body["component"]
        assert info["heartbeats_sent"] > 0
        assert info["frames_received"] > 0
        assert proxy.registered is True
        assert proxy.online is True

    def test_measurement_db_health(self, leased):
        client = leased.client("health-user-2", with_broker=False)
        info = client.http.get(
            leased.measurement_db.uri.rstrip("/") + "/metrics").body
        # the larger body is on the wire while the store keeps ingesting
        assert 0 < info["component"]["ingested"] \
            <= leased.measurement_db.ingested


class TestActuationSubscriptionLifecycle:
    def test_actuate_callback_unsubscribes_after_result(self):
        d = deploy(ScenarioConfig(seed=19, n_buildings=2,
                                  devices_per_building=4, n_networks=1,
                                  net_jitter=0.0))
        d.run(60.0)
        client = d.client("actuating-user")
        resolved = client.resolve(AreaQuery(district_id=d.district_id))
        actuator = next(
            dev for e in resolved.entities for dev in e.devices
            if dev.is_actuator and "setpoint" in dev.quantities
        )
        subs_before = d.broker.subscription_count()
        results = []
        for _ in range(3):
            client.actuate(actuator, "setpoint", 24.0,
                           on_result=results.append)
            d.run(30.0)
        assert len(results) == 3
        # one-shot callbacks: no subscription leak across repeated calls
        assert d.broker.subscription_count() == subs_before
