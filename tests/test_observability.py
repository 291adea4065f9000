"""Tests for the observability layer: tracing, metrics, /metrics routes.

Covers the tracer's span algebra in isolation, trace propagation
through the real request path (client → master → proxy) and the
pub/sub path (publisher → broker fanout → subscriber delivery), the
zero-overhead disabled mode, the benchmarks' histogram book, and the
structured resilience events.
"""

import json
import sys

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.middleware.broker import Broker
from repro.middleware.peer import MiddlewarePeer
from repro.network.resilience import ResiliencePolicy, RetryPolicy
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import GET, HttpClient, WebService, error, ok
from repro.observability import (
    Histogram,
    MetricsRegistry,
    Tracer,
    install,
    render_waterfall,
    uninstall,
)
from repro.observability import tracing
from repro.observability.tracing import (
    CLIENT,
    CONSUMER,
    PRODUCER,
    SERVER,
    decode_header,
)
from repro.ontology import AreaQuery
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def tracer():
    return Tracer(Scheduler())


# -- tracer unit behaviour -------------------------------------------------


class TestTracer:
    def test_span_nesting_via_activation_stack(self, tracer):
        with tracer.span("outer", host="h") as outer:
            with tracer.span("inner", host="h") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.finished and inner.finished

    def test_separate_roots_get_separate_traces(self, tracer):
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        assert len({s.trace_id for s in tracer.spans()}) == 2

    def test_explicit_context_parent_links_across_hops(self, tracer):
        parent = tracer.start_span("send", host="a")
        tracer.finish(parent)
        header = json.loads(json.dumps([parent.trace_id, parent.span_id]))
        child = tracer.start_span("recv", host="b",
                                  parent=decode_header(header))
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        # an absent or garbled header leaves the hop untraced
        for garbled in (None, {"trace_id": 1, "span_id": 2}, [1], [0, 2],
                        [1, None], (1, 2), "1,2"):
            assert decode_header(garbled) is None

    def test_inheritance_gated_on_host(self, tracer):
        # while host "user" has an active span, a span started by an
        # unrelated host must NOT leak into the user's trace
        with tracer.span("workflow", host="user"):
            stray = tracer.start_span("sample", host="proxy-dev-1")
            same = tracer.start_span("fetch", host="user")
        assert stray.parent_id is None
        assert same.parent_id is not None

    def test_event_attachment_gated_on_host(self, tracer):
        with tracer.span("workflow", host="user"):
            tracer.event("mine", host="user", n=1)
            tracer.event("other_hosts", host="elsewhere", n=2)
        assert {e.name for e in tracer.events()} == {"mine",
                                                     "other_hosts"}
        assert len(tracer.loose_events) == 1
        assert tracer.loose_events[0].name == "other_hosts"

    def test_error_in_block_marks_span(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("x")
        assert span.status == "error"
        assert span.finished

    def test_max_spans_drops_beyond_capacity(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 2)
        small = Tracer(Scheduler())
        for _ in range(5):
            small.finish(small.start_span("s"))
        assert len(small.spans()) == 2
        assert small.spans_dropped == 3

    def test_ids_are_deterministic(self):
        first = Tracer(Scheduler())
        second = Tracer(Scheduler())
        ids = [first.start_span("a").span_id,
               first.start_span("b").span_id]
        assert ids == [second.start_span("a").span_id,
                       second.start_span("b").span_id]

    def test_export_and_waterfall_render(self, tracer):
        scheduler = tracer.scheduler
        with tracer.span("root", host="u"):
            scheduler.schedule(1.0, lambda: None)
            scheduler.run_until_idle()
            with tracer.span("leaf", host="u"):
                pass
        trace_id = tracer.spans()[0].trace_id
        tree = tracer.export(trace_id)
        json.dumps(tree)  # must be JSON-able
        assert tree["spans"][0]["name"] == "root"
        assert tree["spans"][0]["children"][0]["name"] == "leaf"
        art = render_waterfall(tracer, trace_id)
        assert "root" in art and "leaf" in art and "#" in art


# -- the benchmarks' histogram book ------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        # histograms are the only instrument: events are counted by the
        # node that sees them and served on its own /metrics route
        registry = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            registry.histogram("latency").observe(v)
        assert registry.histogram("latency") is registry.histogram("latency")
        snap = registry.snapshot()
        assert list(snap) == ["latency"]
        assert snap["latency"]["count"] == 3
        assert snap["latency"]["p50"] == pytest.approx(2.0)
        assert not hasattr(registry, "counter")
        assert not hasattr(registry, "gauge")

    def test_empty_histogram_has_no_stats(self):
        with pytest.raises(QueryError):
            Histogram("h").stats()

    def test_render_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.histogram("a").observe(2.0)
        registry.histogram("b").observe(1.0)
        text = registry.render()
        assert "a_count 1" in text
        assert "b_p50 1.0" in text

    def test_recorder_is_a_registry_facade(self):
        # the facade is gone: a benchmark's timed samples *are* registry
        # histograms, so its summary and the /metrics snapshot agree
        registry = MetricsRegistry()
        registry.histogram("m").observe(1.0)
        registry.histogram("m").observe(3.0)
        summary = registry.summary("m")
        assert summary.mean == pytest.approx(2.0)
        assert registry.snapshot()["m"] == {
            "count": summary.count, "mean": summary.mean,
            "p50": summary.p50, "p90": summary.p90, "p99": summary.p99,
            "minimum": summary.minimum, "maximum": summary.maximum}
        with pytest.raises(QueryError):
            registry.summary("absent")


# -- disabled mode ---------------------------------------------------------


class TestDisabledMode:
    def test_default_deploy_has_no_observability(self):
        d = deploy(ScenarioConfig(seed=3, n_buildings=1,
                                  devices_per_building=1, net_jitter=0.0))
        assert d.tracer is None
        # no network-wide registry exists to be installed or left off
        assert not hasattr(d, "metrics")
        assert not hasattr(d.network, "metrics")

    def test_untraced_requests_carry_no_trace_header(self, net):
        server = net.add_host("server")
        service = WebService(server)
        service.add_route(GET, "/ping", lambda request: ok("pong"))
        handle, delivered = server._ports["http"], []

        def spy(message):
            delivered.append(message.payload)
            handle(message)

        server._ports["http"] = spy
        client = HttpClient(net.add_host("user"))
        assert client.get("svc://server/ping").body == "pong"
        assert len(delivered) == 1
        assert "trace" not in delivered[0]

    def test_disabled_tracer_records_nothing(self, net):
        tracer = install(net)
        uninstall(net)
        service = WebService(net.add_host("server"))
        service.add_route(GET, "/ping", lambda request: ok("pong"))
        client = HttpClient(net.add_host("user"))
        client.get("svc://server/ping")
        assert tracer.spans() == []
        assert tracer.events() == []

    def test_install_uninstall_roundtrip(self, net):
        tracer = install(net)
        assert isinstance(tracer, Tracer)
        assert tracer is net.tracer
        assert install(net) is tracer  # idempotent: keeps the instance
        uninstall(net)
        assert net.tracer is None


# -- propagation through the deployed architecture -------------------------


@pytest.fixture(scope="module")
def observed():
    d = deploy(ScenarioConfig(seed=11, n_buildings=2,
                              devices_per_building=2, n_networks=1,
                              net_jitter=0.0, observability=True))
    d.run(900.0)
    return d


class TestRequestPathPropagation:
    def test_workflow_roots_one_trace_with_nested_hops(self, observed):
        tracer = observed.tracer
        tracer.clear()
        client = observed.client("trace-user", with_broker=False)
        client.build_area_model(AreaQuery(district_id=observed.district_id))

        roots = tracer.spans(name="build_area_model")
        assert len(roots) == 1
        root = roots[0]
        assert root.finished and root.parent_id is None

        # every HTTP request of the workflow is a CLIENT child of the
        # root, and each has exactly one SERVER child on another host:
        # the redirect pattern (resolve on master, fetches on proxies)
        client_spans = [s for s in tracer.children_of(root)
                        if s.kind == CLIENT]
        assert len(client_spans) >= 3  # resolve + model fetches
        assert any(s.name == "GET /resolve" for s in client_spans)
        for span in client_spans:
            servers = [c for c in tracer.children_of(span)
                       if c.kind == SERVER]
            assert len(servers) == 1
            assert servers[0].host != span.host
            assert servers[0].trace_id == root.trace_id

        resolve_client = next(s for s in client_spans
                              if s.name == "GET /resolve")
        resolve_server = tracer.children_of(resolve_client)[0]
        assert resolve_server.host == "master"
        # the master's internal ontology work nests under its hop
        internals = tracer.children_of(resolve_server)
        assert any(s.name == "ontology resolve" for s in internals)

    def test_server_spans_cover_processing_delay(self, observed):
        tracer = observed.tracer
        tracer.clear()
        client = observed.client("delay-user", with_broker=False)
        client.resolve(AreaQuery(district_id=observed.district_id))
        spans = tracer.spans(name="GET /resolve")
        server = next(s for s in spans if s.kind == SERVER)
        client_span = next(s for s in spans if s.kind == CLIENT)
        assert server.duration > 0.0
        # the client span covers the network round-trip, so it is at
        # least as long as the server's processing window
        assert client_span.duration >= server.duration

    def test_export_of_workflow_trace_is_jsonable(self, observed):
        tracer = observed.tracer
        tracer.clear()
        client = observed.client("export-user", with_broker=False)
        client.build_area_model(AreaQuery(district_id=observed.district_id))
        trace_id = tracer.spans(name="build_area_model")[0].trace_id
        json.dumps(tracer.export(trace_id))
        assert "build_area_model" in render_waterfall(tracer, trace_id)


class TestPubSubPropagation:
    def test_delivery_inherits_publisher_trace(self, observed):
        tracer = observed.tracer
        tracer.clear()
        observed.run(120.0)  # devices keep sampling and publishing

        publishes = [s for s in tracer.spans() if s.kind == PRODUCER]
        assert publishes
        publish = publishes[0]
        fanouts = tracer.children_of(publish)
        assert len(fanouts) == 1
        fanout = fanouts[0]
        assert fanout.kind == "broker"
        assert fanout.host == "broker"
        deliveries = [s for s in tracer.children_of(fanout)
                      if s.kind == CONSUMER]
        # at least the measurement database subscribes to everything
        assert deliveries
        assert all(d.trace_id == publish.trace_id for d in deliveries)
        assert all(d.start >= publish.start for d in deliveries)

    def test_fanout_span_counts_deliveries(self, observed):
        tracer = observed.tracer
        tracer.clear()
        observed.run(60.0)
        fanout = next(s for s in tracer.spans() if s.kind == "broker")
        assert fanout.attributes["deliveries"] >= 1

    def test_redelivery_after_recovery_nests_under_logged_fanout(
            self, net, tmp_path):
        # the pending delivery, trace header included, comes back from
        # the JSON WAL: the redelivered copy must still decode to the
        # fan-out span that was recorded before the crash
        tracer = install(net)
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=1.0,
                        durability=HubConfig(
                            wal_path=str(tmp_path / "broker.wal"),
                            snapshot_path=str(tmp_path / "broker.snap"),
                            snapshot_period=60.0))
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=16)
        consumer = MiddlewarePeer(net.add_host("sub"), "broker")
        consumer.subscribe("area/#", lambda event: None, ack=True)
        net.scheduler.run_for(1.0)
        net.set_host_online("sub", False)  # dies before it can ack
        publisher.publish("area/b1/t", {"seq": 1})
        net.scheduler.run_for(0.5)
        (fanout,) = tracer.spans(name="fanout area/b1/t")
        assert tracer.spans(name="deliver area/b1/t") == []

        broker.reset()
        assert broker.recover() is not None
        net.set_host_online("sub", True)
        net.scheduler.run_for(10.0)  # the ack timeout redelivers
        assert broker.stats.redeliveries >= 1
        assert len(broker.state.deliveries) == 0
        (delivery,) = tracer.spans(name="deliver area/b1/t")
        assert delivery.kind == CONSUMER
        assert delivery.trace_id == fanout.trace_id
        assert delivery.parent_id == fanout.span_id


# -- what tracing costs, as an exact count ----------------------------------


class TestTracingCost:
    """Experiment O1 bounds tracing's wall-clock cost on a whole-area
    integration at 10 %.  Wall time is noisy on a shared host; the
    Python calls tracing adds are its cause, and they are exact."""

    def test_traced_integration_costs_at_most_15_percent_more_calls(self):
        # O1's overhead district (bench_o1_observability.py)
        config = dict(seed=22, n_buildings=6, devices_per_building=3,
                      n_networks=1)
        plain = deploy(ScenarioConfig(**config))
        traced = deploy(ScenarioConfig(**config))
        plain.run(900.0)
        traced.run(900.0)
        install(traced.network)

        def calls_per_integration(deployment, name, rounds=20):
            client = deployment.client(name, with_broker=False)
            query = AreaQuery(district_id=deployment.district_id)
            counted = [0]

            def profile(frame, event, arg):
                if event == "call" or event == "c_call":
                    counted[0] += 1

            client.build_area_model(query, with_data=True,
                                    data_bucket=900.0)  # warm-up
            for _ in range(rounds):
                if deployment.tracer is not None:
                    deployment.tracer.clear()
                sys.setprofile(profile)
                try:
                    client.build_area_model(query, with_data=True,
                                            data_bucket=900.0)
                finally:
                    sys.setprofile(None)
            return counted[0] / rounds

        untraced = calls_per_integration(plain, "o1-plain-user")
        ratio = calls_per_integration(traced, "o1-traced-user") / untraced
        # Python 3.11: 5 980.4 / 4 859.4 = 1.231 with a dict wire
        # context, a context object per receive and an activation
        # stack; 5 419.4 / 4 770.4 = 1.136 with a [trace_id, span_id]
        # list and one active span; 5 465.4 / 4 816.4 = 1.1347 with
        # the web-service envelope walked whole; 4 643.4 / 4 139.4 =
        # 1.1218 with the envelope sized by arithmetic (the header is
        # 15 bytes plus its ids' digits) and no default on the wire;
        # 4 585.4 / 4 110.4 = 1.1156 with both ids' digits counted in
        # one string and a string value's length read from the cache;
        # 4 601.4 / 4 126.4 = 1.1151 with a held resolve's fetch round
        # sent beside the resolve and waited for in a second step.
        # The bound leaves room for CI's Python 3.9 and 3.12, whose
        # counts were not measured.
        assert ratio <= 1.14, f"traced / untraced calls = {ratio:.4f}"


# -- /metrics endpoints ----------------------------------------------------


class TestMetricsEndpoints:
    def test_master_metrics_route(self, observed):
        client = observed.client("metrics-user", with_broker=False)
        body = client.http.get(
            observed.master.uri.rstrip("/") + "/metrics").body
        assert body["component"]["registrations"] > 0
        assert body["component"]["ontology_nodes"] > 0
        assert set(body) == {"component"}

    def test_proxy_metrics_route(self, observed):
        client = observed.client("metrics-user2", with_broker=False)
        proxy = next(iter(observed.device_proxies.values()))
        body = client.http.get(proxy.uri.rstrip("/") + "/metrics").body
        assert body["component"]["frames_received"] > 0
        assert body["component"]["measurements_published"] > 0

    def test_measurement_db_metrics_route(self, observed):
        client = observed.client("metrics-user3", with_broker=False)
        body = client.http.get(
            observed.measurement_db.uri.rstrip("/") + "/metrics").body
        assert body["component"]["ingested"] > 0

    def test_routes_answer_without_observability_installed(self):
        d = deploy(ScenarioConfig(seed=4, n_buildings=1,
                                  devices_per_building=1, net_jitter=0.0))
        d.run(60.0)
        client = d.client("plain-user", with_broker=False)
        body = client.http.get(
            d.master.uri.rstrip("/") + "/metrics").body
        assert set(body) == {"component"}
        assert body["component"]["registrations"] > 0


_REQUESTS_AND_HEARTBEATS = ("heartbeats_failed", "heartbeats_sent",
                            "requests_failed", "requests_served")
_REPLICATION_STATUS = ("epoch", "fenced", "last_snapshot_age", "peers",
                       "replication_lag", "role")


class TestMetricsBodyContract:
    """``/metrics`` serves one body per node, ``{"component": ...}``.

    ``SERVED_BEFORE`` is each node kind's component key set as served
    by a default seed-23, 3 × 3 district before the network-wide
    registry was removed; every key is still served, and the only new
    one is ``handler_errors`` on the nodes that count web-service
    requests.  SLOs and the fleet monitor read these names.  The
    master's ``resolve_cache_hits`` / ``resolve_cache_misses`` went
    with the server-side resolve cache they counted.
    """

    SERVED_BEFORE = {
        "master": {
            "active_leases", "lease_evictions", "lease_renewals",
            "ontology_epoch", "ontology_nodes", "registrations",
            "renewals_refused", "requests_failed", "requests_served",
            "resolve_not_modified", "resolves_served", "snapshots_written",
            *_REPLICATION_STATUS},
        "broker": {
            "consumer_busy", "data_plane_saturation", "dead_lettered",
            "dead_letters_drained", "dead_letters_evicted",
            "dead_letters_queued", "dead_subscriptions_dropped",
            "deliveries_acked", "duplicate_subscriptions_ignored",
            "fanout_deliveries", "frames_rejected", "live_subscriptions",
            "not_primary_refusals", "pending_deliveries", "pings_answered",
            "poison_nacks", "pub_acks_withheld", "publications_shed",
            "publish_acks_sent", "published", "publisher_rejections",
            "recovered_items", "recoveries", "redeliveries",
            "retained_topics", "shed_by_topic", "snapshots_written",
            "subscriptions", "unrecovered_restarts", "wal_appends",
            *_REPLICATION_STATUS},
        "measurement_db": {
            "backpressure_signals", "batch_samples", "batches_ingested",
            "data_plane_saturation", "dedup_window_size",
            "delivery_latency_p90", "devices", "freshness_lag_max",
            "ingest_duplicates", "ingest_queue_depth", "ingest_staged",
            "ingested", "poison_rejected", "recovered_samples",
            "recoveries", "rejected", "snapshots_written",
            "stale_until_sample", "tsdb", "wal_records_replayed",
            *_REQUESTS_AND_HEARTBEATS},
        "gis": set(_REQUESTS_AND_HEARTBEATS),
        "bim": set(_REQUESTS_AND_HEARTBEATS),
        "sim": set(_REQUESTS_AND_HEARTBEATS),
        "device": {
            "batch_flushes_age", "batch_flushes_size",
            "batch_frames_published", "batch_open_samples",
            "batch_samples_dropped_offline", "batch_samples_published",
            "frames_dropped_offline", "frames_received", "frames_rejected",
            "measurements_published", "publications_buffered",
            "publications_dropped", "publications_dropped_by_topic",
            "publications_flushed", "publications_rejected",
            *_REQUESTS_AND_HEARTBEATS},
    }

    @pytest.fixture(scope="class")
    def bodies(self):
        d = deploy(ScenarioConfig(seed=23, n_buildings=3,
                                  devices_per_building=3, net_jitter=0.0))
        d.run(120.0)
        client = d.client("contract", with_broker=False)
        uris = {
            "master": d.master.uri, "broker": d.broker.uri,
            "measurement_db": d.measurement_db.uri,
            "gis": d.gis_proxy.uri,
            "bim": next(iter(d.bim_proxies.values())).uri,
            "sim": next(iter(d.sim_proxies.values())).uri,
            "device": next(iter(d.device_proxies.values())).uri,
        }
        return {kind: client.http.get(uri.rstrip("/") + "/metrics").body
                for kind, uri in uris.items()}

    @pytest.mark.parametrize("kind", sorted(SERVED_BEFORE))
    def test_same_keys_plus_handler_errors(self, bodies, kind):
        body = bodies[kind]
        assert set(body) == {"component"}
        added = set() if kind == "broker" else {"handler_errors"}
        assert set(body["component"]) == self.SERVED_BEFORE[kind] | added


# -- structured resilience events ------------------------------------------


class TestResilienceEvents:
    def test_retry_and_exhaustion_events(self, net):
        install(net)
        service = WebService(net.add_host("flaky"))
        service.add_route(GET, "/x", lambda request: error(503, "down"))
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0))
        client = HttpClient(net.add_host("user"), policy=policy)
        response = client.get("svc://flaky/x", check=False)
        assert response.status == 503
        retries = net.tracer.events("retry")
        assert len(retries) == 2
        assert retries[0].attributes["cause"] == "http 503"
        assert len(net.tracer.events("retry_exhausted")) == 1

    def test_lease_eviction_event(self):
        d = deploy(ScenarioConfig(seed=5, n_buildings=2,
                                  devices_per_building=2, net_jitter=0.0,
                                  heartbeat_period=30.0,
                                  observability=True))
        d.run(120.0)
        injector = FaultInjector(d)
        spec = d.dataset.buildings[0].devices[0]
        injector.kill_device_proxy(spec.entity_id, spec.protocol)
        d.run(150.0)
        events = d.tracer.events("lease_evicted")
        assert events
        assert d.master.lease_evictions == len(events)

    def test_buffer_flush_event_after_broker_outage(self):
        d = deploy(ScenarioConfig(seed=6, n_buildings=1,
                                  devices_per_building=2, net_jitter=0.0,
                                  publish_buffer=64, observability=True))
        d.run(120.0)
        injector = FaultInjector(d)
        injector.kill_broker()
        d.run(60.0)
        assert d.tracer.events("broker_suspect")
        injector.restore_broker()
        d.run(60.0)
        flushes = d.tracer.events("buffer_flush")
        assert flushes
        assert sum(e.attributes["flushed"] for e in flushes) > 0


# -- histogram memory bound ------------------------------------------------


class TestHistogramReservoir:
    def test_cap_bounds_retained_samples(self):
        h = Histogram("h", max_samples=100)
        for v in range(1000):
            h.observe(float(v))
        assert len(h.values) == 100
        assert h.count == 1000
        assert h.samples_dropped == 900
        # the summary reports the observed population, not the reservoir
        assert h.stats()["count"] == 1000

    def test_reservoir_stays_representative(self):
        h = Histogram("h", max_samples=200)
        for v in range(10_000):
            h.observe(float(v))
        stats = h.stats()
        # a uniform sample of 0..9999: the percentiles track the stream
        assert 3_500 < stats["p50"] < 6_500
        assert stats["minimum"] < 2_000
        assert stats["maximum"] > 8_000

    def test_downsampling_is_deterministic(self):
        def fill():
            h = Histogram("latency", max_samples=50)
            for v in range(500):
                h.observe(float(v))
            return h.values

        assert fill() == fill()

    def test_under_cap_keeps_everything(self):
        h = Histogram("h", max_samples=100)
        for v in range(100):
            h.observe(float(v))
        assert h.values == [float(v) for v in range(100)]
        assert h.samples_dropped == 0

    def test_registry_passes_cap_through(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", max_samples=7)
        for v in range(20):
            h.observe(float(v))
        assert len(registry.histogram("h").values) == 7
        assert registry.snapshot()["h"]["count"] == 20

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", max_samples=0)


# -- exposition format (golden output) -------------------------------------


class TestExpositionFormat:
    def test_snapshot_reports_empty_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("quiet")
        assert registry.snapshot()["quiet"] == {"count": 0}

    def test_render_golden_output(self):
        registry = MetricsRegistry()
        registry.histogram("b.latency").observe(2.0)
        registry.histogram("d.quiet")  # no samples yet
        assert registry.render() == (
            "b.latency_count 1\n"
            "b.latency_mean 2.0\n"
            "b.latency_p50 2.0\n"
            "b.latency_p90 2.0\n"
            "b.latency_p99 2.0\n"
            "b.latency_minimum 2.0\n"
            "b.latency_maximum 2.0\n"
            "d.quiet_count 0"
        )

    def test_empty_histogram_distinct_from_missing(self):
        registry = MetricsRegistry()
        registry.histogram("present")
        snap = registry.snapshot()
        assert "present" in snap and "absent" not in snap
        assert "present_count 0" in registry.render()


class TestWaterfallGolden:
    def test_two_span_waterfall_layout(self):
        scheduler = Scheduler()
        tracer = Tracer(scheduler)
        root = tracer.start_span("root", kind=CLIENT, host="app")
        scheduler.run_until(0.004)
        child = tracer.start_span("child", kind=SERVER, host="svc",
                                  parent=root)
        scheduler.run_until(0.008)
        tracer.finish(child)
        scheduler.run_until(0.010)
        tracer.finish(root)
        art = render_waterfall(tracer, root.trace_id, width=48)
        lines = art.split("\n")
        assert lines[0] == \
            f"trace {root.trace_id} — 10.000 ms, 2 spans"
        # root: full-width bar, zero offset, 10 ms duration
        assert lines[1] == (
            f"{'root (client@app)':<44s} |{'#' * 48}| "
            f"+   0.000ms   10.000ms"
        )
        # child: indented, bar covering the 4–8 ms slice (19 of 48 cols)
        assert lines[2] == (
            f"{'  child (server@svc)':<44s} "
            f"|{' ' * 19}{'#' * 19}{' ' * 10}| "
            f"+   4.000ms    4.000ms"
        )
        # golden alignment: every bar opens and closes in one column
        assert len({line.index("|") for line in lines[1:]}) == 1
        assert len({len(line) for line in lines[1:]}) == 1

    def test_elision_note_past_max_spans(self):
        scheduler = Scheduler()
        tracer = Tracer(scheduler)
        root = tracer.start_span("root", kind=CLIENT, host="app")
        for n in range(5):
            scheduler.run_until(0.001 * (n + 1))
            tracer.finish(
                tracer.start_span(f"s{n}", kind=SERVER, host="svc",
                                  parent=root)
            )
        tracer.finish(root)
        art = render_waterfall(tracer, root.trace_id, max_spans=3)
        assert "... 3 more spans elided" in art
        assert "s4" not in art


class TestPeriodicTaskErrorEvent:
    """An absorbed periodic-task exception surfaces as a trace event."""

    def test_failing_periodic_callback_emits_trace_event(self):
        from repro.network.scheduler import Scheduler
        from repro.network.transport import LatencyModel, Network
        from repro.observability import install

        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        tracer = install(net)
        calls = []

        def sample():
            calls.append(net.scheduler.now)
            if len(calls) == 1:
                raise RuntimeError("sensor glitch")

        net.scheduler.every(1.0, sample)
        net.scheduler.run_until(3.5)
        assert calls == [1.0, 2.0, 3.0]  # task survived the exception
        events = tracer.events("periodic_task_error")
        assert len(events) == 1
        attrs = events[0].attributes
        assert "sensor glitch" in attrs["error"]
        assert "sample" in attrs["handler"]
