"""Fleet metrics collector: an in-sim scraper node.

PR 2 gave every node a ``/metrics`` and ``/health`` endpoint; this
module adds the thing that *reads* them continuously.  The
:class:`MetricsCollector` is deployed as one more node on the simulated
network and scrapes every registered target **through the transport
layer** — each scrape is a real HTTP request that pays latency, can be
dropped by partitions and flaky links, is fast-failed by an optional
circuit breaker, and shows up in traces like any other request.  A
target that stops answering is therefore observed exactly the way a
real Prometheus observes a dead exporter: scrapes time out.

Scraped numbers land in bounded ring-buffer time series (one per
(target, flattened metric name)), with staleness marking — a target
whose last successful scrape is older than :data:`STALENESS_FACTOR`
intervals is reported stale rather than silently showing old data.
``rate()`` / ``delta()`` derivations over counters come with the
series, so SLOs and operators get per-window velocities, not raw
monotone counts.

:class:`FleetMonitor` bundles the collector with the SLO engine and
alert manager of :mod:`repro.observability.slo`; deployments opt in
with ``ScenarioConfig(fleet_monitor=FleetMonitorConfig(...))`` and the
``repro fleet`` CLI subcommand renders the resulting fleet table and
alert log.  Nothing here runs unless explicitly deployed — the
PR 2 zero-overhead-when-disabled contract holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError, NetworkError
from repro.observability.slo import (
    AlertManager,
    SLO,
    SloEngine,
    default_slos,
)

if TYPE_CHECKING:  # deferred: repro.network imports this package
    from repro.network.resilience import ResiliencePolicy
    from repro.network.scheduler import PeriodicTask
    from repro.network.transport import Host

#: scrape intervals without a successful scrape before a target's data
#: is reported stale
STALENESS_FACTOR = 3.0


class TimeSeries:
    """A bounded ring buffer of ``(time, value)`` samples.

    Old samples fall off the far end once *maxlen* is reached, so a
    collector that runs forever holds constant memory per metric.
    """

    __slots__ = ("_samples",)

    def __init__(self, maxlen: int):
        if maxlen < 2:
            raise ConfigurationError("a series needs room for >= 2 samples")
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=maxlen)

    def __len__(self) -> int:
        return len(self._samples)

    def append(self, time: float, value: float) -> None:
        """Record one sample (times must be non-decreasing)."""
        if self._samples and time < self._samples[-1][0]:
            raise ConfigurationError("samples must arrive in time order")
        self._samples.append((time, float(value)))

    def latest(self) -> Tuple[float, float]:
        """The newest ``(time, value)`` sample."""
        if not self._samples:
            raise ConfigurationError("empty series has no latest sample")
        return self._samples[-1]

    def window(self, since: float) -> List[Tuple[float, float]]:
        """Samples newer than *since*, oldest first."""
        return [(t, v) for t, v in self._samples if t > since]

    def delta_last(self) -> Optional[float]:
        """Value change between the two newest samples (None if < 2)."""
        if len(self._samples) < 2:
            return None
        return self._samples[-1][1] - self._samples[-2][1]

    def delta(self, window: float, now: float) -> Optional[float]:
        """Value change across samples in ``(now - window, now]``.

        For counters this is the number of events in the window.  None
        when fewer than two samples fall inside the window.
        """
        samples = self.window(now - window)
        if len(samples) < 2:
            return None
        return samples[-1][1] - samples[0][1]

    def rate(self, window: float, now: float) -> Optional[float]:
        """Per-second increase over the window (None if undefined).

        The counter analogue of PromQL ``rate()``: delta over the span
        actually covered by samples, so a partially-filled window does
        not dilute the rate.
        """
        samples = self.window(now - window)
        if len(samples) < 2:
            return None
        span = samples[-1][0] - samples[0][0]
        if span <= 0:
            return None
        return (samples[-1][1] - samples[0][1]) / span


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

    def __init__(self, name: str, uri: str, kind: str, retention: int):
        self.name = name
        self.uri = uri.rstrip("/")
        self.kind = kind
        self._retention = retention
        #: flattened metric name -> bounded series
        self.series: Dict[str, TimeSeries] = {}
        #: the last /health body that arrived (empty until one does)
        self.health: Dict[str, Any] = {}
        self.scrapes_ok = 0
        self.scrapes_failed = 0
        self.consecutive_failures = 0
        self.last_success: Optional[float] = None
        self.last_attempt: Optional[float] = None

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
                series = TimeSeries(self._retention)
                self.series[name] = series
            series.append(now, value)

    def record_failure(self) -> None:
        self.scrapes_failed += 1
        self.consecutive_failures += 1

    def latest(self, metric: str) -> Optional[float]:
        """Newest sample of one metric, or None."""
        series = self.series.get(metric)
        if series is None or not len(series):
            return None
        return series.latest()[1]

    def rate(self, metric: str, window: float, now: float
             ) -> Optional[float]:
        """Per-second counter rate of one metric (None if undefined)."""
        series = self.series.get(metric)
        if series is None:
            return None
        return series.rate(window, now)

    def delta(self, metric: str, window: float, now: float
              ) -> Optional[float]:
        """Counter increase of one metric over the window."""
        series = self.series.get(metric)
        if series is None:
            return None
        return series.delta(window, now)


class MetricsCollector:
    """Periodically scrapes every target's ``/metrics`` and ``/health``.

    Scrapes are asynchronous (future-based), so one dead target never
    stalls the round: its request simply times out *scrape_timeout*
    later and is recorded as a failed scrape.  ``/health`` bodies are
    informational (role, epoch, status strings); ``/metrics`` bodies
    are flattened into numeric time series.  *on_scrape* callbacks run
    once per completed-or-failed ``/metrics`` scrape — the SLO engine
    hangs off that hook.

    *health_every* throttles the ``/health`` side-channel to every Nth
    round, keeping scrape overhead proportional to what operators
    actually watch continuously.
    """

    def __init__(self, host: "Host", interval: float = 15.0,
                 timeout: Optional[float] = None, retention: int = 256,
                 health_every: int = 1,
                 policy: Optional["ResiliencePolicy"] = None):
        from repro.network.webservice import HttpClient

        if interval <= 0:
            raise ConfigurationError("scrape interval must be positive")
        if health_every < 1:
            raise ConfigurationError("health_every must be >= 1")
        self.host = host
        self.interval = interval
        self.timeout = timeout if timeout is not None \
            else max(interval / 3.0, 1e-3)
        if self.timeout >= interval:
            raise ConfigurationError(
                "scrape timeout must be shorter than the interval"
            )
        self.retention = retention
        self.health_every = health_every
        self.http = HttpClient(host, timeout=self.timeout, policy=policy)
        self.targets: Dict[str, ScrapeTarget] = {}
        self.rounds = 0
        self.scrapes_attempted = 0
        self.responses_received = 0
        #: callbacks fired per finished /metrics scrape:
        #: ``fn(target, now, ok)``
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
        target = ScrapeTarget(name, uri, kind, self.retention)
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
        with_health = (self.rounds - 1) % self.health_every == 0
        now = self.host.network.scheduler.now
        for target in self.targets.values():
            target.last_attempt = now
            self.scrapes_attempted += 1
            future = self.http.request(target.uri + "/metrics")
            future.add_done_callback(
                lambda fut, t=target: self._on_metrics(t, fut)
            )
            if with_health:
                self.scrapes_attempted += 1
                health = self.http.request(target.uri + "/health")
                health.add_done_callback(
                    lambda fut, t=target: self._on_health(t, fut)
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

    def _on_health(self, target: ScrapeTarget, future) -> None:
        try:
            response = future.result()
        except NetworkError:
            return              # the /metrics path owns failure counting
        self.responses_received += 1
        if response.ok and isinstance(response.body, dict):
            target.health = response.body

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
    #: ring-buffer samples kept per (target, metric) series
    retention: int = 256
    #: scrape /health every Nth round (1 = every round)
    health_every: int = 1
    #: objectives to evaluate; None -> :func:`default_slos`
    slos: Optional[List[SLO]] = None
    #: optional resilience policy for the scrape client (adds circuit
    #: breaking so a long-dead target is fast-failed, not re-timed-out)
    policy: Optional[ResiliencePolicy] = None


class FleetMonitor:
    """Collector + SLO engine + alert manager, deployed as one node."""

    def __init__(self, host: Host, config: FleetMonitorConfig):
        self.config = config
        self.collector = MetricsCollector(
            host,
            interval=config.scrape_interval,
            retention=config.retention,
            health_every=config.health_every,
            policy=config.policy,
        )
        slos = config.slos if config.slos is not None \
            else default_slos(config.scrape_interval)
        self.alerts = AlertManager(network=host.network,
                                   source_host=host.name)
        self.engine = SloEngine(slos, self.alerts)
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
    "TimeSeries",
    "flatten_metrics",
    "render_fleet",
]
