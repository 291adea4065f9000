"""Fleet metrics collector: an in-sim scraper node.

Every node serves its own counters on ``/metrics``; this module adds
the thing that *reads* them continuously.  The :class:`MetricsCollector`
is deployed as one more node on the simulated network and scrapes every
registered target **through the transport layer** — each scrape is a
real HTTP request that pays latency, can be dropped by partitions and
flaky links, and shows up in traces like any other request.  A target
that stops answering is therefore observed exactly the way a real
Prometheus observes a dead exporter: scrapes time out.

Scraped numbers land in bounded :class:`~repro.observability.slo.Ring`
series (one per (target, flattened metric name),
:data:`~repro.observability.slo.RETENTION` samples each), with staleness marking — a target whose last successful
scrape is older than :data:`STALENESS_FACTOR` intervals is reported
stale rather than silently showing old data.

:class:`FleetMonitor` bundles the collector with the SLO engine and
alert manager of :mod:`repro.observability.slo`, evaluating
:func:`~repro.observability.slo.default_slos`; deployments opt in with
``ScenarioConfig(fleet_monitor=FleetMonitorConfig(scrape_interval=...))``
and the ``repro fleet`` CLI subcommand renders the resulting fleet table
and alert log.  Nothing here runs unless explicitly deployed — the
zero-overhead-when-disabled contract holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, NetworkError
from repro.observability.slo import (
    AlertManager,
    Ring,
    SloEngine,
    default_slos,
)

if TYPE_CHECKING:  # deferred: repro.network imports this package
    from repro.network.scheduler import PeriodicTask
    from repro.network.transport import Host

#: scrape intervals without a successful scrape before a target's data
#: is reported stale
STALENESS_FACTOR = 3.0


def flatten_metrics(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten a ``/metrics`` JSON body into dotted numeric leaves.

    Nested dicts concatenate with dots (``component.requests_served``,
    ``component.tsdb.compactions``); booleans become 0/1;
    strings, nulls and anything non-numeric are skipped — a scrape
    stores what it can plot.
    """
    flat: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, name))
        return flat
    if isinstance(payload, bool):
        flat[prefix] = 1.0 if payload else 0.0
    elif isinstance(payload, (int, float)):
        flat[prefix] = float(payload)
    return flat


class ScrapeTarget:
    """One monitored node: its address, series and scrape bookkeeping."""

    def __init__(self, name: str, uri: str, kind: str):
        self.name = name
        self.uri = uri.rstrip("/")
        self.kind = kind
        #: flattened metric name -> ring of (time, value)
        self.series: Dict[str, Ring] = {}
        self.scrapes_ok = 0
        self.scrapes_failed = 0
        self.consecutive_failures = 0
        self.last_success: Optional[float] = None

    @property
    def up(self) -> bool:
        """Whether the most recent scrape attempt succeeded."""
        return self.consecutive_failures == 0 and self.scrapes_ok > 0

    def record(self, now: float, flat: Dict[str, float]) -> None:
        """Store one successful scrape's flattened samples."""
        self.scrapes_ok += 1
        self.consecutive_failures = 0
        self.last_success = now
        for name, value in flat.items():
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = Ring()
            series.append(now, value)

    def record_failure(self) -> None:
        self.scrapes_failed += 1
        self.consecutive_failures += 1


class MetricsCollector:
    """Periodically scrapes every target's ``/metrics``.

    Scrapes are asynchronous (future-based), so one dead target never
    stalls the round: its request simply times out *timeout* later and
    is recorded as a failed scrape.  Each ``/metrics`` body is flattened
    into numeric series.  *on_scrape* callbacks run once per
    completed-or-failed scrape — the SLO engine hangs off that hook.
    """

    def __init__(self, host: "Host", interval: float = 15.0,
                 timeout: Optional[float] = None):
        from repro.network.webservice import HttpClient

        if interval <= 0:
            raise ConfigurationError("scrape interval must be positive")
        self.host = host
        self.interval = interval
        self.timeout = timeout if timeout is not None \
            else max(interval / 3.0, 1e-3)
        if self.timeout >= interval:
            raise ConfigurationError(
                "scrape timeout must be shorter than the interval"
            )
        self.http = HttpClient(host, timeout=self.timeout)
        self.targets: Dict[str, ScrapeTarget] = {}
        self.rounds = 0
        self.scrapes_attempted = 0
        self.responses_received = 0
        #: callbacks fired per finished scrape: ``fn(target, now, ok)``
        self.on_scrape: List[Callable[[ScrapeTarget, float, bool], None]] \
            = []
        self._task: Optional[PeriodicTask] = None

    @property
    def name(self) -> str:
        return self.host.name

    def add_target(self, name: str, uri: str, kind: str) -> ScrapeTarget:
        """Register one node for scraping; duplicate names are an error."""
        if name in self.targets:
            raise ConfigurationError(f"target {name!r} already watched")
        target = ScrapeTarget(name, uri, kind)
        self.targets[name] = target
        return target

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin periodic scraping (idempotent)."""
        if self._task is None:
            self._task = self.host.network.scheduler.every(
                self.interval, self.scrape_round,
                initial_delay=initial_delay,
            )

    def stop(self) -> None:
        """Stop future scrape rounds (in-flight requests still land)."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- scraping ----------------------------------------------------------

    def scrape_round(self) -> None:
        """Issue one round of scrapes against every target."""
        self.rounds += 1
        for target in self.targets.values():
            self.scrapes_attempted += 1
            future = self.http.request(target.uri + "/metrics")
            future.add_done_callback(
                lambda fut, t=target: self._on_metrics(t, fut)
            )

    def _on_metrics(self, target: ScrapeTarget, future) -> None:
        now = self.host.network.scheduler.now
        ok = False
        try:
            response = future.result()
        except NetworkError:    # timeout, circuit open: a failed scrape
            target.record_failure()
        else:
            self.responses_received += 1
            if response.ok:
                ok = True
                target.record(now, flatten_metrics(response.body or {}))
            else:
                target.record_failure()
        for callback in self.on_scrape:
            callback(target, now, ok)

    # -- staleness ---------------------------------------------------------

    def staleness(self, name: str,
                  now: Optional[float] = None) -> Optional[float]:
        """Seconds since the target's last successful scrape.

        None when it has never been scraped successfully.
        """
        target = self.targets[name]
        if target.last_success is None:
            return None
        if now is None:
            now = self.host.network.scheduler.now
        return now - target.last_success

    def is_stale(self, name: str, now: Optional[float] = None) -> bool:
        """True when data is older than ``STALENESS_FACTOR`` intervals."""
        age = self.staleness(name, now)
        if age is None:
            return True
        return age > STALENESS_FACTOR * self.interval

    def counters(self) -> Dict[str, int]:
        """Flat scrape counters for reports and the O2 benchmark."""
        return {
            "scrape_rounds": self.rounds,
            "scrapes_attempted": self.scrapes_attempted,
            "scrape_responses": self.responses_received,
            "scrapes_ok": sum(t.scrapes_ok for t in self.targets.values()),
            "scrapes_failed": sum(t.scrapes_failed
                                  for t in self.targets.values()),
            #: requests sent + responses that came back — the collector's
            #: total transport-message footprint
            "scrape_messages": self.scrapes_attempted
            + self.responses_received,
        }


@dataclass
class FleetMonitorConfig:
    """Knobs of a deployed fleet monitor (see ``ScenarioConfig``)."""

    #: seconds between scrape rounds
    scrape_interval: float = 15.0


class FleetMonitor:
    """Collector + SLO engine + alert manager, deployed as one node."""

    def __init__(self, host: Host, config: FleetMonitorConfig):
        self.collector = MetricsCollector(host,
                                          interval=config.scrape_interval)
        self.alerts = AlertManager(network=host.network,
                                   source_host=host.name)
        self.engine = SloEngine(default_slos(config.scrape_interval),
                                self.alerts)
        self.collector.on_scrape.append(self.engine.observe_scrape)

    @property
    def host(self) -> Host:
        return self.collector.host

    def watch(self, name: str, uri: str, kind: str) -> ScrapeTarget:
        """Register one node for scraping and SLO evaluation."""
        return self.collector.add_target(name, uri, kind)

    def start(self, initial_delay: Optional[float] = None) -> None:
        self.collector.start(initial_delay=initial_delay)

    def stop(self) -> None:
        self.collector.stop()

    def counters(self) -> Dict[str, int]:
        """Scrape + alert counters in one flat dict."""
        counters = self.collector.counters()
        counters.update(self.alerts.counters())
        return counters


#: preferred display order of target kinds in the fleet table
_KIND_ORDER = {"master": 0, "broker": 1, "measurement": 2, "gis": 3,
               "bim": 4, "sim": 5, "device": 6}


def render_fleet(monitor: FleetMonitor,
                 now: Optional[float] = None) -> str:
    """The operator's fleet table: one aligned row per scrape target.

    Columns: target name, kind, UP/DOWN from the latest scrape, stale
    marker, age of the newest data, ok/failed scrape counts, and the
    names of any alerts currently firing on the target.
    """
    collector = monitor.collector
    if now is None:
        now = collector.host.network.scheduler.now
    lines = [
        f"fleet — {len(collector.targets)} targets, "
        f"{collector.rounds} scrape rounds, "
        f"interval {collector.interval:g}s "
        f"(t={now:.1f}s)",
        f"{'target':<26s} {'kind':<12s} {'state':<6s} {'stale':<6s} "
        f"{'age(s)':>8s} {'ok':>5s} {'fail':>5s}  alerts",
    ]
    ordered = sorted(
        collector.targets.values(),
        key=lambda t: (_KIND_ORDER.get(t.kind, 99), t.name),
    )
    for target in ordered:
        age = collector.staleness(target.name, now)
        firing = monitor.alerts.firing_for(target.name)
        lines.append(
            f"{target.name:<26.26s} {target.kind:<12s} "
            f"{'UP' if target.up else 'DOWN':<6s} "
            f"{'yes' if collector.is_stale(target.name, now) else '-':<6s} "
            f"{'-' if age is None else format(age, '8.1f'):>8s} "
            f"{target.scrapes_ok:>5d} {target.scrapes_failed:>5d}  "
            f"{', '.join(a.slo.name for a in firing) or '-'}"
        )
    return "\n".join(lines)


__all__ = [
    "FleetMonitor",
    "FleetMonitorConfig",
    "MetricsCollector",
    "ScrapeTarget",
    "flatten_metrics",
    "render_fleet",
]
