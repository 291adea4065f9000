"""Measurement utilities for the experiment harness.

Latencies inside the simulation are measured in *simulated* seconds
(differences of scheduler time around an operation); CPU costs of pure
translation/encoding code are measured in wall-clock seconds.  The
recorder keeps both kinds of samples by name and summarises them with
percentiles for the benchmark reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import QueryError
from repro.network.resilience import ResiliencePolicy
from repro.network.scheduler import Scheduler
from repro.observability.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # avoid a runtime cycle with the scenario builder
    from repro.simulation.scenario import DeployedDistrict


@dataclass(frozen=True)
class Summary:
    """Percentile summary of one metric."""

    name: str
    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    minimum: float
    maximum: float

    def row(self) -> str:
        """One formatted table row (times printed in milliseconds)."""
        return (f"{self.name:<40s} n={self.count:<6d} "
                f"mean={self.mean * 1e3:9.3f}ms p50={self.p50 * 1e3:9.3f}ms "
                f"p90={self.p90 * 1e3:9.3f}ms p99={self.p99 * 1e3:9.3f}ms")


class MetricsRecorder:
    """Named sample collections with percentile summaries.

    A thin experiment-harness facade over the general-purpose
    :class:`~repro.observability.metrics.MetricsRegistry`: every metric
    is one of its histograms, so the same samples are visible through
    ``/metrics`` endpoints when the recorder is given a network's
    installed registry.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()

    def _histogram(self, name: str) -> Histogram:
        instrument = self.registry.get(name)
        if not isinstance(instrument, Histogram):
            raise QueryError(f"no samples recorded for {name!r}")
        return instrument

    def record(self, name: str, value: float) -> None:
        """Add one sample to metric *name*."""
        self.registry.histogram(name).observe(float(value))

    def samples(self, name: str) -> List[float]:
        """Raw samples of one metric."""
        return list(self._histogram(name).values)

    def names(self) -> List[str]:
        return [name for name in self.registry.names()
                if isinstance(self.registry.get(name), Histogram)]

    def summary(self, name: str) -> Summary:
        """Percentile summary of one metric."""
        stats = self._histogram(name).stats()
        return Summary(name=name, **stats)

    def summaries(self) -> List[Summary]:
        return [self.summary(name) for name in self.names()]

    @contextmanager
    def simulated(self, name: str, scheduler: Scheduler):
        """Record the simulated time an operation takes."""
        start = scheduler.now
        yield
        self.record(name, scheduler.now - start)

    @contextmanager
    def wallclock(self, name: str):
        """Record the wall-clock (CPU) time an operation takes."""
        start = time.perf_counter()
        yield
        self.record(name, time.perf_counter() - start)


def resilience_counters(deployment: "DeployedDistrict",
                        policy: Optional[ResiliencePolicy] = None
                        ) -> Dict[str, int]:
    """One flat snapshot of every resilience counter in a deployment.

    Collects the lease, heartbeat, pub/sub-buffering and degraded-link
    counters scattered across the master, the peers and the network
    stats; pass the client's :class:`ResiliencePolicy` to fold in its
    retry/breaker counters too.  Used by the churn benchmark reports.
    """
    master = deployment.master
    net = deployment.network.stats
    broker = deployment.broker.stats
    device_proxies = list(deployment.device_proxies.values())
    proxies = ([deployment.gis_proxy]
               + list(deployment.bim_proxies.values())
               + list(deployment.sim_proxies.values())
               + device_proxies)
    peers = [deployment.measurement_db.peer] \
        + [proxy.peer for proxy in device_proxies]
    counters = {
        "lease_evictions": master.lease_evictions,
        "active_leases": master.active_leases,
        "heartbeats_sent": deployment.measurement_db.heartbeats_sent
        + sum(p.heartbeats_sent for p in proxies),
        "heartbeats_failed": deployment.measurement_db.heartbeats_failed
        + sum(p.heartbeats_failed for p in proxies),
        "publications_buffered": sum(p.publications_buffered
                                     for p in peers),
        "publications_dropped": sum(p.publications_dropped for p in peers),
        "publications_flushed": sum(p.publications_flushed for p in peers),
        "resubscribes_sent": sum(p.resubscribes_sent for p in peers),
        "broker_publish_acks": broker.publish_acks_sent,
        "broker_pings_answered": broker.pings_answered,
        "messages_dropped_flaky": net.messages_dropped_flaky,
        "messages_dropped_partition": net.messages_dropped_partition,
        "latency_spikes": net.latency_spikes,
    }
    if deployment.replication is not None:
        counters.update(replication_counters(deployment))
    if policy is not None:
        counters.update(policy.counters())
    return counters


def replication_counters(deployment: "DeployedDistrict"
                         ) -> Dict[str, int]:
    """Aggregated master-replication counters of a deployment.

    Empty for single-master deployments; otherwise the group-wide sums
    from :meth:`~repro.core.replication.ReplicationGroup.counters`
    (writes accepted/rejected, entries applied, promotions, fencings,
    ...) used by the HA benchmark reports.
    """
    if deployment.replication is None:
        return {}
    return deployment.replication.counters()


def broker_replication_counters(deployment: "DeployedDistrict"
                                ) -> Dict[str, int]:
    """Aggregated broker-replication counters of a deployment.

    Empty for single-broker deployments; otherwise the group-wide sums
    from :meth:`~repro.core.replication.ReplicationGroup.counters` over
    the broker replicas, plus the brokers' own recovery/refusal totals
    — the numbers the R4 benchmark reports.
    """
    if deployment.broker_replication is None:
        return {}
    counters = dict(deployment.broker_replication.counters())
    brokers = deployment.broker_replication.nodes()
    counters["broker_recoveries"] = sum(
        b.stats.recoveries for b in brokers)
    counters["broker_unrecovered_restarts"] = sum(
        b.stats.unrecovered_restarts for b in brokers)
    counters["broker_not_primary_refusals"] = sum(
        b.stats.not_primary_refusals for b in brokers)
    return counters
