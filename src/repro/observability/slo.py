"""Service-level objectives: burn-rate alerting over scraped series.

The collector (:mod:`repro.observability.collector`) scrapes every
node's ``/metrics`` into per-target :class:`Ring` series; this module
turns those series into *alerts*.  An operator declares a
small set of :class:`SLO` objectives — target reachability, resolve
availability, delivery-latency and staleness bounds, replication lag —
and the :class:`SloEngine` evaluates them with the multi-window
burn-rate method: an alert condition requires the error budget to burn
faster than a threshold over **both** a fast window (so pages are
prompt) and a slow window (so a single blip cannot page).  Hysteresis
on the fast window keeps a firing alert from flapping while the slow
window still remembers the outage.

The :class:`AlertManager` owns the alert lifecycle::

    ok -> pending -> firing -> resolved -> ok

``pending`` is the condition being true but younger than the SLO's
``for_duration``; ``firing`` is the page; ``resolved`` is the
transition back.  Every transition is deduplicated (one alert per
(SLO, target) pair), appended to a bounded history log, and emitted as
a structured ``alert_pending`` / ``alert_firing`` / ``alert_resolved``
trace event when tracing is installed — so alerts appear in the same
event stream as the retries and breaker trips they explain.

Both sides keep their samples in the one bounded :class:`Ring`: the
collector one per (target, metric) of ``(time, value)``, the engine one
per (SLO, target) of ``(time, bad, total)``; a ratio SLI reads the
counter increase between a series' two newest samples, a burn rate sums
the SLI samples newer than the window's start.

Everything here is pure bookkeeping on the simulated clock: the engine
is driven by the collector's scrape completions and performs no I/O of
its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.observability.tracing import emit

#: SLI kinds an :class:`SLO` can declare
UP = "up"                 # good = the scrape itself succeeded
RATIO = "ratio"           # good/bad from counter deltas between scrapes
THRESHOLD = "threshold"   # good = latest gauge sample within a bound
KINDS = (UP, RATIO, THRESHOLD)

#: alert states, in lifecycle order
OK = "ok"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"


#: samples kept per ring: per (target, metric) series in the collector
#: and per (SLO, target) SLI in the engine
RETENTION = 256


class Ring:
    """A bounded ring of time-ordered ``(time, *values)`` samples.

    The oldest sample falls off once *maxlen* are held, so a monitor
    that runs forever holds constant memory per series.
    """

    __slots__ = ("_samples",)

    def __init__(self, maxlen: int = RETENTION):
        if maxlen < 2:
            raise ConfigurationError("a ring needs room for >= 2 samples")
        self._samples: Deque[Tuple[float, ...]] = deque(maxlen=maxlen)

    def __len__(self) -> int:
        return len(self._samples)

    def append(self, time: float, *values: float) -> None:
        """Record one sample (times must be non-decreasing)."""
        if self._samples and time < self._samples[-1][0]:
            raise ConfigurationError("samples must arrive in time order")
        self._samples.append((time, *values))

    def latest(self) -> Tuple[float, ...]:
        """The newest sample."""
        if not self._samples:
            raise ConfigurationError("empty ring has no latest sample")
        return self._samples[-1]

    def delta_last(self) -> Optional[float]:
        """First-value change between the two newest samples (None if
        fewer than two are held)."""
        if len(self._samples) < 2:
            return None
        return self._samples[-1][1] - self._samples[-2][1]

    def since(self, horizon: float) -> Iterator[Tuple[float, ...]]:
        """Samples newer than *horizon*, newest first."""
        for sample in reversed(self._samples):
            if sample[0] <= horizon:
                return
            yield sample


@dataclass(frozen=True)
class SLO:
    """One declarative objective evaluated per scrape target.

    *objective* is the availability target (e.g. ``0.99``); the error
    budget is ``1 - objective`` and the *burn rate* of a window is the
    window's bad fraction divided by that budget.  The alert condition
    is ``burn(fast_window) >= burn_threshold and burn(slow_window) >=
    burn_threshold``; it must hold for *for_duration* simulated seconds
    before the alert fires, and clears (with hysteresis) when
    ``burn(fast_window) < clear_ratio * burn_threshold``.

    The SLI itself depends on *kind*:

    * ``up`` — each scrape attempt is one sample; bad when the scrape
      failed (timeout, circuit open, non-2xx);
    * ``ratio`` — counter deltas between consecutive successful
      scrapes; bad/good increments are read from *bad_metric* /
      *good_metric* (flattened series names, e.g.
      ``component.requests_failed``);
    * ``threshold`` — the latest sample of *metric* is bad when it
      exceeds *bound*.

    *target_kinds* restricts the SLO to scrape targets of those kinds
    (``()`` applies it to every target).
    """

    name: str
    description: str
    kind: str
    objective: float = 0.99
    fast_window: float = 120.0
    slow_window: float = 360.0
    burn_threshold: float = 6.0
    clear_ratio: float = 0.5
    for_duration: float = 0.0
    good_metric: str = ""
    bad_metric: str = ""
    metric: str = ""
    bound: float = 0.0
    target_kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"objective must be in (0, 1), got {self.objective!r}"
            )
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ConfigurationError(
                "need 0 < fast_window <= slow_window"
            )
        if self.kind == RATIO and not (self.good_metric and
                                       self.bad_metric):
            raise ConfigurationError(
                f"ratio SLO {self.name!r} needs good_metric and bad_metric"
            )
        if self.kind == THRESHOLD and not self.metric:
            raise ConfigurationError(
                f"threshold SLO {self.name!r} needs a metric"
            )

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.objective

    def applies_to(self, target_kind: str) -> bool:
        """Whether this SLO watches targets of *target_kind*."""
        return not self.target_kinds or target_kind in self.target_kinds


def default_slos(scrape_interval: float) -> List[SLO]:
    """The stock fleet objectives, with windows sized in scrape ticks.

    * ``target-up`` — every node type must answer its scrape; two
      consecutive failed scrapes (held one more interval) page, which
      bounds detection of a dead node by ~3 scrape intervals.
    * ``resolve-availability`` — the master's request error ratio, from
      ``requests_failed`` / ``requests_served`` counter deltas.
    * ``delivery-latency`` — the measurement DB's rolling p90 pub/sub
      delivery latency must stay under 5 minutes (a flushed outage
      backlog arrives late by design; pathological brokers page).
    * ``measurement-staleness`` — the oldest device feed in the global
      DB must be younger than ``staleness-bound`` seconds.
    * ``replication-lag`` — un-replicated log entries on the master
      (zero for single-master deployments).
    * ``broker-replication-lag`` — un-replicated durable-state entries
      on the broker (zero for single-broker deployments).
    * ``data-plane-saturation`` — the broker's pending-delivery backlog
      as a fraction of its overload high watermark; sustained values
      near 1.0 mean the broker is (about to start) shedding load.
    * ``publication-loss`` — device-proxy publications dropped from the
      offline buffer vs published, the "sustained data loss" signal the
      per-topic drop counters feed.
    """
    i = scrape_interval
    return [
        SLO(name="target-up",
            description="scrape target answers /metrics",
            kind=UP, objective=0.99,
            fast_window=2.5 * i, slow_window=8 * i,
            burn_threshold=6.0, for_duration=i),
        SLO(name="resolve-availability",
            description="master serves requests without errors",
            kind=RATIO, objective=0.95,
            good_metric="component.requests_served",
            bad_metric="component.requests_failed",
            fast_window=3 * i, slow_window=10 * i,
            burn_threshold=4.0, for_duration=i,
            target_kinds=("master",)),
        SLO(name="delivery-latency",
            description="pub/sub delivery p90 under 300 s",
            kind=THRESHOLD, objective=0.99,
            metric="component.delivery_latency_p90", bound=300.0,
            fast_window=2.5 * i, slow_window=8 * i,
            burn_threshold=6.0, for_duration=i,
            target_kinds=("measurement",)),
        SLO(name="measurement-staleness",
            description="oldest device feed younger than 450 s",
            kind=THRESHOLD, objective=0.99,
            metric="component.freshness_lag_max", bound=450.0,
            fast_window=2.5 * i, slow_window=8 * i,
            burn_threshold=6.0, for_duration=i,
            target_kinds=("measurement",)),
        SLO(name="replication-lag",
            description="master replication lag under 64 entries",
            kind=THRESHOLD, objective=0.99,
            metric="component.replication_lag", bound=64.0,
            fast_window=2.5 * i, slow_window=8 * i,
            burn_threshold=6.0, for_duration=i,
            target_kinds=("master",)),
        SLO(name="broker-replication-lag",
            description="broker replication lag under 64 entries",
            kind=THRESHOLD, objective=0.99,
            metric="component.replication_lag", bound=64.0,
            fast_window=2.5 * i, slow_window=8 * i,
            burn_threshold=6.0, for_duration=i,
            target_kinds=("broker",)),
        SLO(name="data-plane-saturation",
            description="broker delivery backlog under 90% of watermark",
            kind=THRESHOLD, objective=0.99,
            metric="component.data_plane_saturation", bound=0.9,
            fast_window=2.5 * i, slow_window=8 * i,
            burn_threshold=6.0, for_duration=i,
            target_kinds=("broker",)),
        SLO(name="publication-loss",
            description="device publications dropped vs published",
            kind=RATIO, objective=0.95,
            good_metric="component.measurements_published",
            bad_metric="component.publications_dropped",
            fast_window=3 * i, slow_window=10 * i,
            burn_threshold=4.0, for_duration=i,
            target_kinds=("device",)),
    ]


@dataclass
class AlertEvent:
    """One recorded lifecycle transition of an alert."""

    time: float
    slo: str
    target: str
    state: str           # the state entered
    burn_fast: Optional[float] = None
    burn_slow: Optional[float] = None
    value: Optional[float] = None   # threshold SLOs: the offending sample

    def row(self) -> str:
        """One formatted alert-log line."""
        burns = ""
        if self.burn_fast is not None and self.burn_slow is not None:
            burns = (f" burn fast={self.burn_fast:7.1f}x"
                     f" slow={self.burn_slow:7.1f}x")
        value = f" value={self.value:.1f}" if self.value is not None else ""
        return (f"t={self.time:10.1f}s {self.state.upper():<8s} "
                f"{self.slo:<24s} {self.target}{burns}{value}")


class Alert:
    """Mutable per-(SLO, target) alert state."""

    __slots__ = ("slo", "target", "state", "since", "fired_at",
                 "resolved_at", "burn_fast", "burn_slow", "value")

    def __init__(self, slo: SLO, target: str):
        self.slo = slo
        self.target = target
        self.state = OK
        self.since = 0.0              # time the current state was entered
        self.fired_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        self.burn_fast: Optional[float] = None
        self.burn_slow: Optional[float] = None
        self.value: Optional[float] = None

    @property
    def firing(self) -> bool:
        return self.state == FIRING


class AlertManager:
    """Owns alert lifecycle state, the transition log and trace events.

    One :class:`Alert` exists per (SLO, target) pair — repeated
    condition evaluations while an alert is already pending/firing are
    deduplicated into no-ops, so the history log records transitions,
    never repetitions.
    """

    def __init__(self, network=None, source_host: str = ""):
        self._network = network
        self._source_host = source_host
        self._alerts: Dict[Tuple[str, str], Alert] = {}
        self._history: Deque[AlertEvent] = deque(maxlen=1024)
        self.alerts_fired = 0
        self.alerts_resolved = 0

    def alert(self, slo: SLO, target: str) -> Alert:
        """Get or create the alert tracking (*slo*, *target*)."""
        key = (slo.name, target)
        alert = self._alerts.get(key)
        if alert is None:
            alert = Alert(slo, target)
            self._alerts[key] = alert
        return alert

    def alerts(self) -> List[Alert]:
        """Every tracked alert, sorted by (SLO, target)."""
        return [self._alerts[key] for key in sorted(self._alerts)]

    def firing(self) -> List[Alert]:
        """Currently-firing alerts, sorted by (SLO, target)."""
        return [a for a in self.alerts() if a.firing]

    def firing_for(self, target: str) -> List[Alert]:
        """Currently-firing alerts of one target."""
        return [a for a in self.firing() if a.target == target]

    def history(self) -> List[AlertEvent]:
        """The transition log, oldest first (bounded)."""
        return list(self._history)

    def counters(self) -> Dict[str, int]:
        """Flat counters for reports: fired/resolved/active."""
        return {
            "alerts_fired": self.alerts_fired,
            "alerts_resolved": self.alerts_resolved,
            "alerts_active": len(self.firing()),
        }

    def _transition(self, alert: Alert, state: str, now: float) -> None:
        alert.state = state
        alert.since = now
        event = AlertEvent(
            time=now, slo=alert.slo.name, target=alert.target,
            state=state, burn_fast=alert.burn_fast,
            burn_slow=alert.burn_slow, value=alert.value,
        )
        self._history.append(event)
        if self._network is not None:
            emit(self._network, f"alert_{state}", host=self._source_host,
                 slo=alert.slo.name, target=alert.target,
                 burn_fast=alert.burn_fast, burn_slow=alert.burn_slow,
                 value=alert.value)

    def observe(self, alert: Alert, condition: bool, now: float) -> None:
        """Advance one alert's state machine with a fresh evaluation.

        *condition* is the (hysteresis-adjusted) burn condition computed
        by the engine: True means "breaching", False means "cleared".
        """
        slo = alert.slo
        if condition:
            if alert.state in (OK, RESOLVED):
                self._transition(alert, PENDING, now)
            if alert.state == PENDING and \
                    now - alert.since >= slo.for_duration:
                alert.fired_at = now
                self.alerts_fired += 1
                self._transition(alert, FIRING, now)
            return
        if alert.state == PENDING:
            # condition receded before for_duration elapsed: not a page
            self._transition(alert, OK, now)
        elif alert.state == FIRING:
            alert.resolved_at = now
            self.alerts_resolved += 1
            self._transition(alert, RESOLVED, now)
            self._transition(alert, OK, now)


def _bad_fraction(sli: Ring, window: float, now: float
                  ) -> Optional[float]:
    """Bad/total over the SLI samples in ``(now - window, now]``.

    None when the window holds no samples (nothing to judge).
    """
    bad = total = 0.0
    for _time, b, t in sli.since(now - window):
        bad += b
        total += t
    if total <= 0:
        return None
    return bad / total


class SloEngine:
    """Evaluates a set of SLOs against one collector's targets.

    Driven by the collector: :meth:`observe_scrape` runs once per
    completed (or failed) scrape of one target, converts the scrape
    into SLI samples for every applicable SLO, recomputes both burn
    windows and advances the alert state machine.
    """

    def __init__(self, slos: List[SLO], alerts: AlertManager):
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate SLO names")
        self.slos = list(slos)
        self.alerts = alerts
        #: (SLO, target) -> ring of (time, bad, total) SLI samples
        self._sli: Dict[Tuple[str, str], Ring] = {}

    # -- SLI extraction ----------------------------------------------------

    def _sample(self, slo: SLO, target, now: float, scrape_ok: bool,
                alert: Alert) -> Optional[Tuple[float, float]]:
        """One (bad, total) SLI increment for this scrape, or None."""
        if slo.kind == UP:
            return (0.0, 1.0) if scrape_ok else (1.0, 1.0)
        if not scrape_ok:
            return None     # counter/gauge SLIs need a fresh sample
        if slo.kind == RATIO:
            good = target.series.get(slo.good_metric)
            bad = target.series.get(slo.bad_metric)
            if good is None or bad is None:
                return None
            good_d = good.delta_last()
            bad_d = bad.delta_last()
            if good_d is None or bad_d is None:
                return None
            # counters only go up; a restart resets them — clamp
            good_d = max(good_d, 0.0)
            bad_d = max(bad_d, 0.0)
            if good_d + bad_d <= 0:
                return None
            return (bad_d, good_d + bad_d)
        series = target.series.get(slo.metric)
        if series is None or not len(series):
            return None
        value = series.latest()[1]
        alert.value = value
        return (1.0, 1.0) if value > slo.bound else (0.0, 1.0)

    # -- evaluation --------------------------------------------------------

    def observe_scrape(self, target, now: float, scrape_ok: bool) -> None:
        """Feed one scrape outcome of *target* into every matching SLO."""
        for slo in self.slos:
            if not slo.applies_to(target.kind):
                continue
            alert = self.alerts.alert(slo, target.name)
            sample = self._sample(slo, target, now, scrape_ok, alert)
            sli = self._sli.get((slo.name, target.name))
            if sli is None:
                sli = self._sli[(slo.name, target.name)] = Ring()
            if sample is not None:
                sli.append(now, *sample)
            self._evaluate(slo, sli, alert, now)

    def _evaluate(self, slo: SLO, sli: Ring, alert: Alert,
                  now: float) -> None:
        fast = _bad_fraction(sli, slo.fast_window, now)
        slow = _bad_fraction(sli, slo.slow_window, now)
        if fast is None or slow is None:
            return      # not enough signal yet; hold the current state
        budget = slo.budget
        alert.burn_fast = fast / budget
        alert.burn_slow = slow / budget
        if alert.state == FIRING:
            # hysteresis: a firing alert only clears when the fast
            # window calms well below the trip point (the slow window
            # intentionally remembers the outage for longer)
            condition = alert.burn_fast >= slo.clear_ratio * \
                slo.burn_threshold
        else:
            condition = (alert.burn_fast >= slo.burn_threshold
                         and alert.burn_slow >= slo.burn_threshold)
        self.alerts.observe(alert, condition, now)


def render_alert_log(alerts: AlertManager, limit: int = 40) -> str:
    """The alert transition log as terminal-ready lines (newest last)."""
    history = alerts.history()
    lines = [f"alert log — {alerts.alerts_fired} fired, "
             f"{alerts.alerts_resolved} resolved, "
             f"{len(alerts.firing())} active"]
    shown = history[-limit:]
    if len(history) > len(shown):
        lines.append(f"... {len(history) - len(shown)} earlier "
                     f"transitions elided")
    for event in shown:
        lines.append(event.row())
    return "\n".join(lines)


__all__ = [
    "Alert",
    "AlertEvent",
    "AlertManager",
    "RETENTION",
    "Ring",
    "SLO",
    "SloEngine",
    "default_slos",
    "render_alert_log",
    "FIRING",
    "OK",
    "PENDING",
    "RESOLVED",
]
