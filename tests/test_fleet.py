"""Tests for the fleet-monitoring subsystem: collector + SLO engine.

Covers the bounded ring in isolation, the collector scraping real
``/metrics`` endpoints through the transport layer (and observing
outages as timeouts), the burn-rate alert state
machine, the deployed :class:`FleetMonitor` wiring via
``ScenarioConfig(fleet_monitor=...)``, the operator renderings, and
the zero-overhead-when-disabled contract.
"""

import pytest

from repro.errors import ConfigurationError, RequestTimeoutError
from repro.network.futures import Future
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import GET, WebService, ok
from repro.observability.collector import (
    FleetMonitorConfig,
    MetricsCollector,
    flatten_metrics,
    render_fleet,
)
from repro.observability.slo import (
    FIRING,
    OK,
    PENDING,
    RESOLVED,
    SLO,
    THRESHOLD,
    AlertManager,
    Ring,
    SloEngine,
    default_slos,
    render_alert_log,
)
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy


# -- the bounded ring --------------------------------------------------------


class TestTimeSeries:
    def test_ring_buffer_drops_oldest(self):
        series = Ring(3)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert len(series) == 3
        assert series.latest() == (4.0, 40.0)
        assert list(series.since(0.0)) == [(4.0, 40.0), (3.0, 30.0),
                                           (2.0, 20.0)]

    def test_rate_and_delta_over_window(self):
        series = Ring(16)
        series.append(0.0, 100.0, 1.0)
        series.append(10.0, 150.0, 1.0)
        series.append(20.0, 250.0, 1.0)
        assert series.delta_last() == pytest.approx(100.0)
        # the horizon itself is outside the window, newest comes first
        assert list(series.since(0.0)) == [(20.0, 250.0, 1.0),
                                           (10.0, 150.0, 1.0)]
        assert list(series.since(-1.0))[-1] == (0.0, 100.0, 1.0)
        assert list(series.since(20.0)) == []

    def test_underfilled_windows_are_none(self):
        series = Ring(4)
        assert series.delta_last() is None
        with pytest.raises(ConfigurationError):
            series.latest()
        series.append(0.0, 1.0)
        assert series.delta_last() is None
        with pytest.raises(ConfigurationError):
            Ring(1)

    def test_time_must_not_go_backwards(self):
        series = Ring(4)
        series.append(5.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.append(4.0, 2.0)

    def test_flatten_keeps_numeric_leaves_only(self):
        flat = flatten_metrics({
            "component": {"served": 3, "up": True, "role": "primary",
                          "latency": {"p90": 1.5}},
            "none": None,
        })
        assert flat == {"component.served": 3.0, "component.up": 1.0,
                       "component.latency.p90": 1.5}


# -- collector over a live (simulated) network -----------------------------


def _tiny_target(network, name, counters):
    service = WebService(network.add_host(name))
    service.add_route(GET, "/metrics",
                      lambda req: ok({"component": dict(counters)}))
    return service


class TestCollector:
    @pytest.fixture
    def net(self):
        return Network(Scheduler(), latency=LatencyModel(jitter=0.0))

    def test_scrapes_become_series(self, net):
        counters = {"served": 0}
        _tiny_target(net, "svc", counters)
        collector = MetricsCollector(net.add_host("mon"), interval=10.0,
                                     timeout=2.0)
        target = collector.add_target("svc", "svc://svc/", "gis")
        collector.start()
        for round_no in range(4):
            counters["served"] += 5
            net.scheduler.run_for(10.0)
        assert target.up
        assert target.scrapes_ok >= 3
        series = target.series["component.served"]
        assert series.delta_last() == pytest.approx(5.0)
        # one sample a round, newest first
        assert [value for _t, value in series.since(0.0)] == \
            [20.0, 15.0, 10.0]

    def test_dead_target_times_out_and_goes_stale(self, net):
        _tiny_target(net, "svc", {"served": 1})
        collector = MetricsCollector(net.add_host("mon"), interval=10.0,
                                     timeout=2.0)
        target = collector.add_target("svc", "svc://svc/", "gis")
        collector.start()
        net.scheduler.run_for(25.0)
        assert target.up
        assert not collector.is_stale("svc")
        net.set_host_online("svc", False)
        net.scheduler.run_for(50.0)
        assert not target.up
        assert target.consecutive_failures >= 3
        assert collector.is_stale("svc")
        # data retained from before the outage, marked stale not erased
        assert target.series["component.served"].latest()[1] == 1.0

    def test_scrape_traffic_rides_the_transport(self, net):
        _tiny_target(net, "svc", {"served": 1})
        collector = MetricsCollector(net.add_host("mon"), interval=10.0,
                                     timeout=2.0)
        collector.add_target("svc", "svc://svc/", "gis")
        before = net.stats.messages_sent
        collector.start()
        net.scheduler.run_for(35.0)
        # each round: one /metrics request and its response
        assert net.stats.messages_sent - before == 3 * 2

    @pytest.mark.parametrize("path", ["metrics"])
    def test_only_network_failures_count_as_failed_scrapes(self, net, path):
        # a timeout or an open circuit is a failed scrape; any other
        # exception out of the future is a bug and must not be swallowed
        collector = MetricsCollector(net.add_host("mon"), interval=10.0,
                                     timeout=2.0)
        target = collector.add_target("svc", "svc://svc/", "gis")
        on_done = getattr(collector, f"_on_{path}")
        timed_out, broken = Future(), Future()
        timed_out.set_exception(RequestTimeoutError("no answer"))
        on_done(target, timed_out)
        assert target.scrapes_failed == 1
        broken.set_exception(KeyError("not a network failure"))
        with pytest.raises(KeyError):
            on_done(target, broken)

    def test_duplicate_target_rejected(self, net):
        collector = MetricsCollector(net.add_host("mon"), interval=10.0,
                                     timeout=2.0)
        collector.add_target("svc", "svc://svc/", "gis")
        with pytest.raises(ConfigurationError):
            collector.add_target("svc", "svc://svc/", "gis")

    def test_timeout_must_fit_inside_interval(self, net):
        with pytest.raises(ConfigurationError):
            MetricsCollector(net.add_host("mon"), interval=10.0,
                             timeout=10.0)


# -- SLO engine state machine ----------------------------------------------


class _FakeTarget:
    def __init__(self, name="svc", kind="gis"):
        self.name = name
        self.kind = kind
        self.series = {}


class TestSloEngine:
    def _up_slo(self, for_duration=0.0):
        return SLO(name="up", description="scrapes succeed", kind="up",
                   objective=0.9, fast_window=30.0, slow_window=90.0,
                   burn_threshold=2.0, for_duration=for_duration)

    def test_pending_then_firing_then_resolved(self):
        alerts = AlertManager()
        engine = SloEngine([self._up_slo(for_duration=10.0)], alerts)
        target = _FakeTarget()
        for n in range(6):
            engine.observe_scrape(target, 10.0 * n, scrape_ok=True)
        alert = alerts.alerts()[0]
        assert alert.state == OK
        # one bad scrape trips only the fast window; the slow window
        # (multi-window guard) keeps a lone blip from paging
        engine.observe_scrape(target, 60.0, scrape_ok=False)
        assert alert.state == OK
        engine.observe_scrape(target, 70.0, scrape_ok=False)
        assert alert.state == PENDING
        engine.observe_scrape(target, 80.0, scrape_ok=False)
        assert alert.state == FIRING
        for n in range(9, 15):
            engine.observe_scrape(target, 10.0 * n, scrape_ok=True)
        assert not alert.firing
        states = [event.state for event in alerts.history()]
        assert states[:3] == [PENDING, FIRING, RESOLVED]

    def test_pending_recedes_without_firing(self):
        alerts = AlertManager()
        engine = SloEngine([self._up_slo(for_duration=25.0)], alerts)
        target = _FakeTarget()
        for n in range(5):
            engine.observe_scrape(target, 10.0 * n, scrape_ok=True)
        engine.observe_scrape(target, 50.0, scrape_ok=False)
        engine.observe_scrape(target, 60.0, scrape_ok=False)
        assert alerts.alerts()[0].state == PENDING
        for n in range(7, 12):  # outage ends inside for_duration
            engine.observe_scrape(target, 10.0 * n, scrape_ok=True)
        alert = alerts.alerts()[0]
        assert alert.state == OK
        assert alerts.counters()["alerts_fired"] == 0

    def test_threshold_slo_watches_latest_sample(self):
        slo = SLO(name="lag", description="lag bounded", kind=THRESHOLD,
                  objective=0.9, fast_window=30.0, slow_window=90.0,
                  burn_threshold=2.0, metric="component.lag", bound=50.0)
        alerts = AlertManager()
        engine = SloEngine([slo], alerts)
        target = _FakeTarget()
        target.series["component.lag"] = series = Ring(16)
        for n in range(6):
            series.append(10.0 * n, 10.0)
            engine.observe_scrape(target, 10.0 * n, scrape_ok=True)
        assert alerts.counters()["alerts_fired"] == 0
        for n in range(6, 9):
            series.append(10.0 * n, 500.0)
            engine.observe_scrape(target, 10.0 * n, scrape_ok=True)
        assert alerts.alert(slo, "svc").firing

    def test_alert_dedup_one_object_per_slo_target(self):
        alerts = AlertManager()
        slo = self._up_slo()
        assert alerts.alert(slo, "svc") is alerts.alert(slo, "svc")
        assert alerts.alert(slo, "svc") is not alerts.alert(slo, "other")

    def test_target_kind_filter(self):
        slos = default_slos(15.0)
        lag = next(s for s in slos if s.name == "replication-lag")
        assert lag.applies_to("master")
        assert not lag.applies_to("device")
        up = next(s for s in slos if s.name == "target-up")
        assert up.applies_to("device") and up.applies_to("master")

    def test_slo_validation(self):
        with pytest.raises(ConfigurationError):
            SLO(name="bad", description="", kind="nope")
        with pytest.raises(ConfigurationError):
            SLO(name="bad", description="", kind="up", objective=1.5)


# -- deployed fleet monitor ------------------------------------------------


def _monitored(seed=5, interval=30.0):
    return deploy(ScenarioConfig(
        seed=seed, n_buildings=2, devices_per_building=3, n_networks=1,
        fleet_monitor=FleetMonitorConfig(scrape_interval=interval),
    ))


class TestDeployedFleetMonitor:
    def test_every_node_type_is_watched(self):
        district = _monitored()
        kinds = {t.kind for t in district.fleet.collector.targets.values()}
        assert kinds == {"master", "broker", "measurement", "gis", "bim",
                         "sim", "device"}

    def test_steady_state_scrapes_green_and_silent(self):
        district = _monitored()
        district.run(300.0)
        targets = district.fleet.collector.targets.values()
        assert all(t.up for t in targets)
        assert district.fleet.alerts.counters()["alerts_fired"] == 0
        # broker answers the new endpoints like every other node
        broker_target = district.fleet.collector.targets["broker"]
        assert broker_target.series["component.published"].latest()[1] > 0

    def test_broker_outage_fires_and_resolves(self):
        district = _monitored()
        district.run(300.0)
        injector = FaultInjector(district)
        injector.kill_broker()
        district.run(120.0)
        firing = district.fleet.alerts.firing_for("broker")
        assert any(a.slo.name == "target-up" for a in firing)
        assert district.fleet.alerts.history()  # lifecycle recorded
        injector.restore_broker()
        district.run(300.0)
        assert district.fleet.alerts.counters()["alerts_active"] == 0

    def test_alert_lifecycle_emits_trace_events(self):
        district = deploy(ScenarioConfig(
            seed=5, n_buildings=2, devices_per_building=3,
            observability=True,
            fleet_monitor=FleetMonitorConfig(scrape_interval=30.0),
        ))
        district.run(120.0)
        injector = FaultInjector(district)
        injector.kill_broker()
        district.run(150.0)
        assert district.tracer.events("alert_pending")
        assert district.tracer.events("alert_firing")
        injector.restore_broker()
        district.run(300.0)
        assert district.tracer.events("alert_resolved")

    def test_renderings_cover_fleet_and_alerts(self):
        district = _monitored()
        district.run(300.0)
        art = render_fleet(district.fleet)
        lines = art.split("\n")
        assert "targets" in lines[0]
        for target in district.fleet.collector.targets:
            assert any(line.startswith(target[:26]) for line in lines)
        log = render_alert_log(district.fleet.alerts)
        assert "0 active" in log

    def test_disabled_means_no_monitor_and_no_traffic(self):
        config = ScenarioConfig(seed=5, n_buildings=2,
                                devices_per_building=3)
        district = deploy(config)
        assert district.fleet is None
        assert not district.network.has_host("fleet-monitor")
        district.run(120.0)
        baseline = district.network.stats.messages_sent
        # deploying again with identical config reproduces the exact
        # message count: the monitoring layer is bit-for-bit absent
        twin = deploy(ScenarioConfig(seed=5, n_buildings=2,
                                     devices_per_building=3))
        twin.run(120.0)
        assert twin.network.stats.messages_sent == baseline
