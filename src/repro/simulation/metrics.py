"""Resilience and replication counters of a deployment, flattened.

The churn and HA benchmark reports read every lease, heartbeat,
pub/sub-buffering, degraded-link and replication counter scattered
across the master, the peers, the network stats and the replication
groups as one dict.  (Latency samples are plain
:class:`~repro.observability.metrics.MetricsRegistry` histograms.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.network.resilience import ResiliencePolicy

if TYPE_CHECKING:  # avoid a runtime cycle with the scenario builder
    from repro.simulation.scenario import DeployedDistrict


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
    counters.update(deployment.replication.counters())
    if policy is not None:
        counters.update(policy.counters())
    return counters


def broker_replication_counters(deployment: "DeployedDistrict"
                                ) -> Dict[str, int]:
    """Aggregated broker-replication counters of a deployment.

    Empty for single-broker deployments; otherwise the group-wide sums
    from :meth:`~repro.core.replication.ReplicationGroup.counters` over
    the broker replicas, plus the brokers' own recovery/refusal totals
    — the numbers the R4 benchmark reports.
    """
    counters = deployment.broker_replication.counters()
    if not counters:
        return {}
    brokers = deployment.broker_replication.nodes()
    counters["broker_recoveries"] = sum(
        b.stats.recoveries for b in brokers)
    counters["broker_unrecovered_restarts"] = sum(
        b.stats.unrecovered_restarts for b in brokers)
    counters["broker_not_primary_refusals"] = sum(
        b.stats.not_primary_refusals for b in brokers)
    return counters
