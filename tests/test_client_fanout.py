"""The area query's fetch stage is one concurrent round.

After ``/resolve`` the client issues every model request and ONE data
request per Device-proxy at once (``HttpClient.gather``) and waits for
the slowest.  These tests pin what that round must keep from the
sequential client it replaced — the same model, the same ``strict`` /
``fetch_failures`` semantics, the same retry and breaker decisions per
request, the same trace tree — and what it must gain: latency of the
slowest hop, one ``/data`` message pair per proxy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cdf import Measurement
from repro.core.client import DistrictClient
from repro.core.integration import integrate
from repro.errors import CircuitOpenError, RequestTimeoutError
from repro.middleware.broker import Broker
from repro.network.resilience import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import (
    GET,
    HttpClient,
    Request,
    Response,
    WebService,
    error,
    ok,
)
from repro.observability.tracing import CLIENT, SERVER
from repro.ontology import AreaQuery
from repro.ontology.queries import ResolvedDevice
from repro.protocols import make_adapter
from repro.proxies.device_proxy import DeviceProxy
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig

HISTORY_S = 1200.0


def quiet_district(**overrides):
    """A seeded small district with history, then no background traffic:
    devices stopped and in-flight messages drained, so the only messages
    on the network are the client's own."""
    config = dict(seed=13, n_buildings=3, devices_per_building=4,
                  n_networks=1, net_jitter=0.0)
    config.update(overrides)
    district = deploy(ScenarioConfig(**config))
    district.run(HISTORY_S)
    district.stop_devices()
    district.run(30.0)
    return district


@pytest.fixture
def district():
    return quiet_district()


def timed(district, call):
    """(result, simulated seconds, messages delivered) of one call."""
    stats = district.network.stats
    started, delivered = district.scheduler.now, stats.messages_delivered
    result = call()
    return (result, district.scheduler.now - started,
            stats.messages_delivered - delivered)


def device_proxy_uris(entities):
    return {device.proxy_uri for entity in entities
            for device in entity.devices}


class TestSameModelAsPerItemCalls:
    def test_round_equals_public_per_item_fetches(self, district):
        """(a) entities, provenance, conflicts and every sample list
        equal a model assembled one request at a time."""
        client = district.client("round-user", with_broker=False)
        query = AreaQuery(district_id=district.district_id)
        model = client.build_area_model(query, with_data=True,
                                        data_bucket=300.0)

        resolved = client.resolve(query)
        models, measurements = {}, {}
        for entity in resolved.entities:
            models[entity.entity_id] = client.fetch_entity_models(
                entity, resolved.gis_uris)
            measurements[entity.entity_id] = {
                (device.device_id, quantity): client.fetch_device_data(
                    device, quantity, bucket=300.0)
                for device in entity.devices
                for quantity in device.quantities
            }
        reference = integrate(resolved, models, measurements)

        assert model == reference
        assert model.device_count == sum(
            len(entity.devices) for entity in resolved.entities)
        sampled = [samples for entity in model.entities.values()
                   for samples in entity.measurements.values() if samples]
        assert sampled, "the district collected no data to compare"
        assert any(entity.provenance for entity in model.entities.values())

    def test_data_requests_counts_one_per_device_proxy(self, district):
        client = district.client("count-user", with_broker=False)
        query = AreaQuery(district_id=district.district_id)
        resolved = client.resolve(query)
        client.build_area_model(query, with_data=True)
        assert client.data_requests == \
            len(device_proxy_uris(resolved.entities))


class TestRoundCostsItsSlowestRequest:
    def test_latency_and_message_count_of_one_building(self, district):
        """(b) one building: latency < resolve + 3 x slowest single
        fetch; messages == 2 x (resolve + models + Device-proxies)."""
        building = district.dataset.buildings[0].entity_id
        query = AreaQuery(district_id=district.district_id,
                          entity_ids=(building,))
        probe = district.client("probe-user", with_broker=False)
        resolved, resolve_s, _ = timed(district,
                                       lambda: probe.resolve(query))
        entity, = resolved.entities
        fetches = [lambda: probe.fetch_entity_models(entity,
                                                     resolved.gis_uris)]
        fetches += [
            lambda d=device, q=quantity: probe.fetch_device_data(d, q)
            for device in entity.devices for quantity in device.quantities
        ]
        slowest_s = max(timed(district, fetch)[1] for fetch in fetches)
        n_models = probe.models_fetched

        client = district.client("round-user", with_broker=False)
        model, integrate_s, messages = timed(
            district,
            lambda: client.build_area_model(query, with_data=True))
        assert len(model.entities) == 1
        assert integrate_s < resolve_s + 3 * slowest_s
        assert messages == 2 * (
            1 + n_models + len(device_proxy_uris(resolved.entities)))
        # the sequential client paid one round trip per request: with
        # this many requests it could not have met the bound above
        assert len(fetches) + n_models - 1 > 3


def issued_rounds(client):
    """Every round *client* issues from now on, as its list of calls."""
    rounds = []
    issue = client.http.issue

    def spy(calls):
        rounds.append(list(calls))
        return issue(calls)

    client.http.issue = spy
    return rounds


class TestWarmRoundOverlapsTheResolve:
    """A client that holds the area sends the fetches of the held answer
    in the resolve's round; the fresh answer decides which it keeps."""

    def test_a_warm_build_is_one_round_of_the_same_requests(self, district):
        query = AreaQuery(district_id=district.district_id)
        client = district.client("warm-user", with_broker=False)
        cold, cold_s, cold_messages = timed(district, lambda: (
            client.build_area_model(query, with_data=True)))
        rounds = issued_rounds(client)
        warm, warm_s, warm_messages = timed(district, lambda: (
            client.build_area_model(query, with_data=True)))
        assert warm == cold
        early, late = rounds
        assert late == []  # a 304 resolve: every fetch was already sent
        assert early[0]["uri"].endswith("/resolve")
        assert warm_messages == cold_messages == 2 * len(early)
        # one round trip where the cold build paid two
        assert warm_s < 0.75 * cold_s

    def test_an_evicted_dark_device_proxy_is_not_waited_for(self, district):
        spec = district.dataset.buildings[0].devices[0]
        proxy = district.device_proxies[(spec.entity_id, spec.protocol)]
        query = AreaQuery(district_id=district.district_id,
                          entity_ids=(spec.entity_id,))
        client = district.client("evicted-user", with_broker=False,
                                 policy=ResiliencePolicy(
                                     retry=RetryPolicy(seed=1)))
        client.build_area_model(query, with_data=True)
        district.master._evict_uri(proxy.uri)
        FaultInjector(district).kill_device_proxy(spec.entity_id,
                                                  spec.protocol)
        rounds = issued_rounds(client)
        model, elapsed, _ = timed(district, lambda: (
            client.build_area_model(query, with_data=True)))
        # its /data went out beside the resolve, which no longer names it
        assert proxy.uri.rstrip("/") + "/data" in \
            [call["uri"] for call in rounds[0]]
        assert elapsed < 0.1 * client.http.timeout
        assert client.fetch_failures == 0
        entity, = model.entities.values()
        assert proxy.uri not in {device.proxy_uri
                                 for device in entity.devices}
        # the dropped request times out unheeded: no retry, no failure
        district.run(2 * client.http.timeout)
        assert client.http.policy.retries == 0
        assert client.fetch_failures == 0

    def test_a_changed_resolve_sends_only_what_it_newly_names(
            self, district):
        spec = district.dataset.buildings[0].devices[0]
        proxy = district.device_proxies[(spec.entity_id, spec.protocol)]
        query = AreaQuery(district_id=district.district_id)
        client = district.client("changed-user", with_broker=False)
        district.master._evict_uri(proxy.uri)
        client.build_area_model(query, with_data=True)
        district.master.register(proxy._registration(None, full=True))
        rounds = issued_rounds(client)
        not_modified = client.not_modified
        model = client.build_area_model(query, with_data=True)
        early, late = rounds
        assert [call["uri"] for call in late] == \
            [proxy.uri.rstrip("/") + "/data"]
        # the resolve answered 200, every fetch sent beside it a 304
        assert client.not_modified - not_modified == len(early) - 1
        assert client.fetch_failures == 0
        fresh = district.client("fresh-user", with_broker=False)
        assert model == fresh.build_area_model(query, with_data=True)

    def test_a_master_timeout_on_the_early_resolve_rotates(self):
        district = quiet_district(master=HubConfig(standbys=1),
                                  observability=True)
        query = AreaQuery(district_id=district.district_id)
        warm = district.client("warm-user", with_broker=False)
        plain = district.client("plain-user", with_broker=False)
        warm.build_area_model(query, with_data=True)
        plain.resolve(query)
        primary, standby = (uri.rstrip("/") for uri in district.master_uris)
        FaultInjector(district).take_offline(district.master.host.name)
        district.tracer.clear()
        resolved, plain_s, _ = timed(district, lambda: plain.resolve(query))
        rounds = issued_rounds(warm)
        model, warm_s, _ = timed(district, lambda: (
            warm.build_area_model(query, with_data=True)))
        failovers = [event.attributes for event
                     in district.tracer.events("failover")]
        assert [(event["client"], event["failed"], event["next"])
                for event in failovers] == [
            ("plain-user", primary, standby),
            ("warm-user", primary, standby)]
        assert warm.master_failovers == plain.master_failovers == 1
        assert warm.masters.current == plain.masters.current == standby
        # the early round, the second attempt, nothing left to send
        early, second, late = rounds
        assert early[0]["uri"] == primary + "/resolve"
        assert [call["uri"] for call in second] == [standby + "/resolve"]
        assert late == []
        assert plain_s <= warm_s < plain_s + 0.1 * warm.http.timeout
        assert model.entities.keys() == {entity.entity_id
                                         for entity in resolved.entities}


class TestStrictAndLenient:
    def dark_proxy(self, district):
        spec = district.dataset.buildings[0].devices[0]
        FaultInjector(district).kill_device_proxy(spec.entity_id,
                                                  spec.protocol)
        proxy = district.device_proxies[(spec.entity_id, spec.protocol)]
        return spec.entity_id, proxy.uri

    def test_strict_raises_the_same_error_type(self, district):
        """(c) a dark proxy still surfaces as RequestTimeoutError."""
        self.dark_proxy(district)
        client = district.client("strict-user", with_broker=False)
        client.http.timeout = 0.5
        with pytest.raises(RequestTimeoutError):
            client.build_area_model(
                AreaQuery(district_id=district.district_id),
                with_data=True)

    def test_lenient_counts_failed_requests_and_keeps_the_rest(
            self, district):
        """(c) strict=False: fetch_failures == failed requests (one per
        dark proxy, however many series it carried); the other series
        are the ones a healthy district returns."""
        query = AreaQuery(district_id=district.district_id)
        healthy = district.client("healthy-user", with_broker=False) \
            .build_area_model(query, with_data=True, data_bucket=300.0)
        entity_id, dark_uri = self.dark_proxy(district)
        client = district.client("lenient-user", with_broker=False)
        client.http.timeout = 0.5
        model = client.build_area_model(query, with_data=True,
                                        data_bucket=300.0, strict=False)
        assert client.fetch_failures == 1
        lost = {(device.device_id, quantity)
                for device in model.entity(entity_id).devices
                if device.proxy_uri == dark_uri
                for quantity in device.quantities}
        assert len(lost) >= 1
        for entity in model.entities.values():
            expected = healthy.entity(entity.entity_id)
            assert entity.sources == expected.sources
            for key, samples in entity.measurements.items():
                assert samples == (
                    [] if key in lost else expected.measurements[key])

    def test_errors_surface_in_request_order(self, district):
        """Whichever proxy fails first on the clock, strict raises the
        first failure in request order: models before data."""
        building = district.dataset.buildings[0]
        injector = FaultInjector(district)
        injector.kill_bim_proxy(building.entity_id)
        spec = building.devices[0]
        injector.kill_device_proxy(spec.entity_id, spec.protocol)
        client = district.client("order-user", with_broker=False)
        client.http.timeout = 0.5
        with pytest.raises(RequestTimeoutError) as raised:
            client.build_area_model(
                AreaQuery(district_id=district.district_id,
                          entity_ids=(building.entity_id,)),
                with_data=True)
        assert "/model" in str(raised.value)

    def test_404_means_empty_not_failed(self):
        """A Device-proxy asked for a series it never collected answers
        ``[]``, not a 404, so the client counts nothing as failed."""
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        Broker(net.add_host("broker"))
        DeviceProxy(net.add_host("gateway"), adapter=make_adapter("zigbee"),
                    broker_host="broker", district_id="dst-0001")
        client = DistrictClient(net.add_host("user"), "svc://master/")
        device = ResolvedDevice("dev-0001", "svc://gateway/", "zigbee",
                                ("power",), False)
        assert client.fetch_device_data(device, "power", strict=False) == []
        assert client.fetch_failures == 0


# -- (d) one retry state machine ------------------------------------------


class ScriptedHosts:
    """Hosts that fail by script, so two runs see the same failures.

    ``script[host]`` lists the answers of successive attempts (an int
    status); once the script runs out the host answers 200.  A host
    whose script holds None is silent: it takes every request and never
    answers, so each attempt ends in the client's timeout.
    """

    def __init__(self, script):
        self.net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        self.script = script
        #: host -> arrival time of every attempt that reached it
        self.attempts = {host: [] for host in script}
        for host, answers in script.items():
            node = self.net.add_host(host)
            if None in answers:
                node.bind("http", lambda message, h=host: self._arrive(h))
                continue
            WebService(node).add_route(
                GET, "/x", lambda request, h=host: self._answer(h))
        self.policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.2,
                              seed=5),
            breaker=CircuitBreaker(failure_threshold=3,
                                   recovery_timeout=30.0),
        )
        self.client = HttpClient(self.net.add_host("user"), timeout=0.5,
                                 policy=self.policy)
        self.transitions = []
        self.client._breaker_event = \
            lambda host, before, after: self.transitions.append(
                (host, before, after))

    def _arrive(self, host):
        self.attempts[host].append(self.net.scheduler.now)

    def _answer(self, host):
        self._arrive(host)
        answers, index = self.script[host], len(self.attempts[host]) - 1
        status = answers[index] if index < len(answers) else 200
        if status == 429:
            return Response(429, {"retry_after": 0.3}, "busy")
        return ok(host) if status == 200 else error(status, "scripted")

    def summary(self, outcomes):
        return {
            "outcomes": [outcome.status if isinstance(outcome, Response)
                         else type(outcome).__name__
                         for outcome in outcomes],
            "retries": self.policy.retries,
            "exhausted": self.policy.exhausted,
            "trips": self.policy.breaker.trips,
            "rejections": self.policy.breaker.rejections,
            "transitions": sorted(self.transitions),
            "attempt_counts": {host: len(times)
                               for host, times in self.attempts.items()},
        }


SCRIPT = {
    "steady": [],                          # answers at once
    "wobbly": [503, 503],                  # two 5xx, then fine
    # the 429 is not a breaker failure, so four attempts are spent
    "stubborn": [500, 500, 429, 500],
    "busy": [429],                         # advised retry_after
    # the third timeout trips the breaker: attempt four is a fast-fail
    "silent": [None, None, None, None],
}


class TestOneRetryStateMachine:
    def run_sequential(self):
        hosts = ScriptedHosts(SCRIPT)
        outcomes = []
        for host in SCRIPT:
            try:
                outcomes.append(hosts.client.call(f"svc://{host}/x",
                                                  check=False))
            except (RequestTimeoutError, CircuitOpenError) as exc:
                outcomes.append(exc)
        return hosts, hosts.summary(outcomes)

    def run_gathered(self):
        hosts = ScriptedHosts(SCRIPT)
        outcomes = hosts.client.gather(
            [{"uri": f"svc://{host}/x"} for host in SCRIPT])
        return hosts, hosts.summary(outcomes)

    def test_gather_decides_like_call_for_the_same_failures(self):
        """(d) retries, exhaustion, breaker transitions and the final
        outcome of every request match the one-at-a-time client."""
        _, sequential = self.run_sequential()
        hosts, gathered = self.run_gathered()
        assert gathered == sequential
        assert gathered["outcomes"] == [200, 200, 500, 200,
                                        "CircuitOpenError"]
        assert gathered["retries"] == 2 + 3 + 1 + 3   # wobbly .. silent
        assert gathered["exhausted"] == 1             # stubborn only
        assert gathered["transitions"] == [("silent", CLOSED, OPEN)]
        assert gathered["attempt_counts"] == {
            "steady": 1, "wobbly": 3, "stubborn": 4, "busy": 2,
            "silent": 3}
        assert hosts.policy.breaker.state("silent") == OPEN

    def test_backoff_of_a_request_is_not_stretched_by_the_others(self):
        """Each request backs off on its own timers: the 429's second
        attempt lands retry_after after its first, while the other
        requests of the round are still retrying."""
        hosts, _ = self.run_gathered()
        first, second = hosts.attempts["busy"]
        assert second - first == pytest.approx(0.3, abs=0.02)
        one, two, three = hosts.attempts["wobbly"]
        # base 0.1 then 0.2, each within the +-20 % jitter
        assert 0.08 <= two - one <= 0.13
        assert 0.16 <= three - two <= 0.25

    def test_open_circuit_sends_no_traffic(self):
        hosts, _ = self.run_gathered()
        stats = hosts.net.stats
        sent = stats.messages_sent
        rejections = hosts.policy.breaker.rejections
        outcomes = hosts.client.gather(
            [{"uri": "svc://silent/x"}, {"uri": "svc://steady/x"}])
        assert isinstance(outcomes[0], CircuitOpenError)
        assert outcomes[1].status == 200
        assert hosts.policy.breaker.rejections == rejections + 1
        # only the steady request and its reply travelled
        assert stats.messages_sent == sent + 2


# -- (e) the multi-series /data answer ------------------------------------


def stocked_proxy():
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(net.add_host("broker"))
    proxy = DeviceProxy(net.add_host("proxy"), adapter=make_adapter("zigbee"),
                        broker_host="broker", district_id="dst-0001",
                        retention=None)
    for device_id, quantity, scale in (("dev-0001", "power", 100.0),
                                       ("dev-0001", "energy", 1.0),
                                       ("dev-0002", "temperature", 20.0)):
        for step in range(12):
            proxy.database.insert(Measurement(
                device_id=device_id, entity_id="bld-0001",
                quantity=quantity, value=scale + step,
                timestamp=60.0 * step))
    return proxy


PROXY = stocked_proxy()
KNOWN = [("dev-0001", "power"), ("dev-0001", "energy"),
         ("dev-0002", "temperature")]
UNKNOWN = [("dev-0001", "temperature"), ("dev-0404", "power")]

windows = st.fixed_dictionaries({}, optional={
    "start": st.sampled_from(["0.0", "120.0", "600.0"]),
    "end": st.sampled_from(["300.0", "660.0", "1e9"]),
    "bucket": st.sampled_from(["120.0", "300.0"]),
    "agg": st.sampled_from(["mean", "max", "sum"]),
}).filter(lambda w: float(w.get("start", 0)) <= float(w.get("end", 1e9)))


def data(params):
    return PROXY.service.router.dispatch(Request(GET, "/data", params))


class TestMultiSeriesData:
    @settings(max_examples=60, deadline=None)
    @given(series=st.lists(st.sampled_from(KNOWN + UNKNOWN), min_size=1,
                           max_size=6),
           window=windows)
    def test_answer_is_the_list_of_single_series_answers(self, series,
                                                         window):
        """(e) one request for many series == the single-series GETs,
        an unknown series being an empty list where the GET says 404."""
        singles = []
        for device_id, quantity in series:
            single = data({**window, "device_id": device_id,
                           "quantity": quantity})
            if (device_id, quantity) in KNOWN:
                assert single.status == 200
                singles.append(single.body["samples"])
            else:
                assert single.status == 404
                singles.append([])
        listed = data({**window, "series": ",".join(
            f"{device_id}/{quantity}" for device_id, quantity in series)})
        assert listed.status == 200
        assert listed.body["series"] == singles
        assert listed.body["token"] == str(PROXY.database.inserts)

    @settings(max_examples=30, deadline=None)
    @given(series=st.lists(st.sampled_from(KNOWN), max_size=3),
           bad=st.sampled_from(["", "dev-0001", "/power", "dev-0001/"]),
           position=st.integers(min_value=0, max_value=3))
    def test_one_malformed_entry_fails_the_whole_request(self, series, bad,
                                                         position):
        entries = [f"{device_id}/{quantity}"
                   for device_id, quantity in series]
        entries.insert(min(position, len(entries)), bad)
        assert data({"series": ",".join(entries)}).status == 400

    def test_bad_window_fails_the_whole_request(self):
        assert data({"series": "dev-0001/power", "bucket": "-1"}) \
            .status == 400
        assert data({"series": "dev-0001/power", "agg": "median?"}) \
            .status == 400


class TestNonFiniteWindowIsA400:
    """Through the deployed route (handler, catch-all, wire): a bucket
    that is NaN, infinite or too small to floor-align is the client's
    error, not ``nan`` bucket starts in a 200 body."""

    @pytest.fixture(scope="class")
    def http(self):
        return HttpClient(PROXY.host.network.add_host("nan-user"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("form", [
        {"device_id": "dev-0001", "quantity": "power"},
        {"series": "dev-0001/power,dev-0002/temperature"},
        {"series": "dev-0404/power,dev-0001/power"},
    ])
    @pytest.mark.parametrize("window", [
        {"bucket": "nan"}, {"bucket": "inf"}, {"bucket": "1e-320"},
        {"start": "nan"}, {"end": "nan", "bucket": "60.0"},
    ])
    def test_data(self, http, form, window):
        reply = http.get(PROXY.uri.rstrip("/") + "/data",
                         params={**form, **window}, check=False)
        assert reply.status == 400
        assert "bucket" in reply.reason or "NaN" in reply.reason

    def test_infinite_bounds_stay_an_open_window(self, http):
        form = {"device_id": "dev-0001", "quantity": "power",
                "bucket": "300.0"}
        uri = PROXY.uri.rstrip("/") + "/data"
        assert http.get(uri, params={**form, "start": "-inf",
                                     "end": "inf"}).body == \
            http.get(uri, params=form).body


# -- (f) the trace tree, (g) determinism ----------------------------------


class TestTraceTree:
    def test_every_client_span_hangs_off_the_root(self):
        """(f) client spans are children of build_area_model, each with
        the server span of the host that answered."""
        district = quiet_district(observability=True)
        tracer = district.tracer
        tracer.clear()
        client = district.client("trace-user", with_broker=False)
        query = AreaQuery(district_id=district.district_id)
        client.build_area_model(query, with_data=True)

        root, = tracer.spans(name="build_area_model")
        assert root.finished and root.parent_id is None
        client_spans = [span for span in tracer.spans()
                        if span.kind == CLIENT
                        and span.trace_id == root.trace_id]
        resolved = client.resolve(query, use_cache=False)
        assert len(client_spans) == 1 + client.models_fetched \
            + len(device_proxy_uris(resolved.entities))
        assert sum(span.name == "GET /data" for span in client_spans) \
            == client.data_requests
        for span in client_spans:
            assert span.parent_id == root.span_id
            assert span.finished
            server, = [child for child in tracer.children_of(span)
                       if child.kind == SERVER]
            assert server.host == span.attributes["target"]
        # the round overlaps: every fetch span starts before any ends
        fetches = [span for span in client_spans
                   if span.name != "GET /resolve"]
        assert max(span.start for span in fetches) \
            <= min(span.end for span in fetches)


class TestDeterminism:
    def run_once(self):
        district = deploy(ScenarioConfig(seed=31, n_buildings=3,
                                         devices_per_building=4,
                                         n_networks=1))
        district.run(HISTORY_S)
        client = district.client("repeat-user", with_broker=False)
        model = client.build_area_model(
            AreaQuery(district_id=district.district_id), with_data=True,
            data_bucket=300.0)
        stats = district.network.stats
        return (stats.messages_delivered, stats.bytes_sent,
                district.scheduler.now, model)

    def test_same_seed_same_messages_bytes_and_model(self):
        """(g) with jitter on and devices sampling, twice."""
        assert self.run_once() == self.run_once()
