"""Fault injection for robustness experiments.

Wraps a :class:`~repro.simulation.scenario.DeployedDistrict` with the
failure modes a real district deployment sees — proxy crashes, broker
outages, master restarts, network partitions — and the recovery actions
the architecture supports (proxy re-registration rebuilding the
ontology).  Used by the robustness tests and the churn benchmarks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.network.transport import FlakyProfile
from repro.simulation.scenario import DeployedDistrict, register


class FaultInjector:
    """Controlled failure and recovery on a deployed district."""

    def __init__(self, deployment: DeployedDistrict):
        self.deployment = deployment
        self._offline: List[str] = []
        self._device_proxy_by_host = {
            proxy.host.name: proxy
            for proxy in deployment.device_proxies.values()
        }

    # -- host-level faults --------------------------------------------------

    def take_offline(self, host_name: str) -> None:
        """Drop every message to/from *host_name* until restored.

        A dead Device-proxy process also stops listening on its radio
        side, so its dedicated layer drops frames while offline.
        """
        network = self.deployment.network
        if not network.has_host(host_name):
            raise ConfigurationError(f"no host {host_name!r} to fail")
        network.set_host_online(host_name, False)
        proxy = self._device_proxy_by_host.get(host_name)
        if proxy is not None:
            proxy.online = False
        if host_name not in self._offline:
            self._offline.append(host_name)

    def restore(self, host_name: str) -> None:
        """Bring a failed host back."""
        self.deployment.network.set_host_online(host_name, True)
        proxy = self._device_proxy_by_host.get(host_name)
        if proxy is not None:
            proxy.online = True
        if host_name in self._offline:
            self._offline.remove(host_name)

    def restore_all(self) -> None:
        """Bring every failed host back."""
        for host_name in list(self._offline):
            self.restore(host_name)

    @property
    def offline_hosts(self) -> List[str]:
        return list(self._offline)

    def partition(self, hosts: Iterable[str]) -> None:
        """Cut the links between *hosts* and the rest of the network.

        A true partition, not a crash: the isolated hosts stay up and
        keep talking **to each other**, but no message crosses the cut
        in either direction.  Undo with :meth:`heal_partition`.
        Repeated calls layer additional cuts (each healed together).
        """
        self.deployment.network.partition(hosts)

    def heal_partition(self) -> None:
        """Remove every active partition; all hosts can talk again."""
        self.deployment.network.heal_partition()

    def partition_master(self, with_hosts: Iterable[str] = ()) -> str:
        """Partition the current primary master away from the district.

        On a replicated deployment the *current primary* (which may be a
        promoted standby) is isolated — together with any *with_hosts*
        kept on its side of the cut — so the standbys stop hearing its
        heartbeats and fail over, while the old primary self-fences.
        Returns the isolated master's host name.
        """
        primary = self.deployment.replication.acting()
        self.partition([primary.host.name, *with_hosts])
        return primary.host.name

    # -- degraded-link faults ----------------------------------------------

    def flaky(self, host_name: str, drop_probability: float = 0.0,
              latency_spike: float = 0.0,
              spike_probability: float = 0.0) -> None:
        """Degrade (not sever) a host's links until :meth:`heal`.

        Every message to or from *host_name* is independently dropped
        with *drop_probability*, and delayed by an extra *latency_spike*
        simulated seconds with *spike_probability* — the grey-failure
        mode (lossy backhaul, overloaded gateway) that retries and
        circuit breakers exist for, as opposed to the clean silence of
        :meth:`take_offline`.
        """
        network = self.deployment.network
        if not network.has_host(host_name):
            raise ConfigurationError(f"no host {host_name!r} to degrade")
        network.set_host_flaky(host_name, FlakyProfile(
            drop_probability=drop_probability,
            latency_spike=latency_spike,
            spike_probability=spike_probability,
        ))

    def heal(self, host_name: Optional[str] = None) -> None:
        """Remove the flaky profile of one host (or of all hosts)."""
        network = self.deployment.network
        if host_name is not None:
            network.clear_host_flaky(host_name)
            return
        for name in network.flaky_hosts():
            network.clear_host_flaky(name)

    # -- component-level faults --------------------------------------------

    def kill_broker(self) -> None:
        """Middleware outage: publications are lost until restore."""
        self.take_offline(self.deployment.broker.name)

    def restore_broker(self) -> None:
        self.restore(self.deployment.broker.name)

    def kill_primary_broker(self) -> str:
        """Kill the *current* primary broker; returns its host name.

        On a replicated deployment the acting primary (which may be a
        promoted standby) goes dark: the surviving standby stops hearing
        replication heartbeats and promotes itself after its seniority
        timeout, and peers rotate to it.  Falls back to the one broker
        when unreplicated.
        """
        broker = self.deployment.broker_replication.acting()
        self.take_offline(broker.name)
        return broker.name

    def partition_broker(self, with_hosts: Iterable[str] = ()) -> str:
        """Partition the current primary broker away from the district.

        Like :meth:`partition_master` but for the middleware: the
        isolated primary keeps running (and self-fences once no standby
        acks arrive) while the majority side elects a new primary.  Any
        *with_hosts* stay on the isolated side of the cut.  Returns the
        isolated broker's host name.
        """
        broker = self.deployment.broker_replication.acting()
        self.partition([broker.name, *with_hosts])
        return broker.name

    def restart_broker(self, recover: bool = True) -> Optional[int]:
        """Crash-restart the broker; recover durable state where possible.

        Unlike :meth:`restore_broker` (a network outage ending), a
        restart wipes the broker's in-memory subscription table,
        retained store, pending deliveries and dead-letter queue.  With
        ``recover=True`` (the default) a broker configured with
        durable state (a :class:`~repro.storage.durability.HubConfig`
        with paths) reloads its last snapshot and replays the WAL tail (see
        :meth:`~repro.middleware.broker.Broker.recover`) — returns the
        number of state items restored, or None when the broker has no
        durable state to recover from.  Pass ``recover=False`` to
        simulate losing the disk too.  After an unrecovered restart,
        peers with a keepalive configured repair their own subscriptions
        on the next keepalive tick (:meth:`~repro.middleware.peer.
        MiddlewarePeer.resubscribe_all`).
        """
        broker = self.deployment.broker
        self.restore(broker.name)
        restored = self._restart(broker, recover)
        if restored is None:
            broker.stats.unrecovered_restarts += 1
        return restored

    @staticmethod
    def _restart(node, recover: bool) -> Optional[int]:
        """Crash-restart one stateful hub node.

        The crash wipes the node's memory and drops its file handles;
        then either its journal recovers the state (snapshot + WAL
        tail) or the disk is lost too.  Returns the number of items
        recovered — None when nothing was (``recover=False``, or no
        durable state configured).
        """
        node.reset()
        if recover:
            return node.recover()
        node.journal.discard()
        return None

    def kill_measurement_db(self) -> str:
        """Take the global measurement DB offline; returns its host name.

        Publications keep flowing to the broker; with acked
        subscriptions they sit as pending deliveries (redelivered once
        the DB is back), otherwise they are simply lost.
        """
        host_name = self.deployment.measurement_db.host.name
        self.take_offline(host_name)
        return host_name

    def restart_measurement_db(self, recover: bool = True) -> Optional[int]:
        """Crash-restart the measurement DB; recover state where possible.

        The crash wipes the in-memory store, freshness table, dedup
        window and ingest queue.  With ``recover=True`` (the default)
        the restarted DB reloads its last snapshot and replays the WAL
        tail (see :meth:`~repro.storage.measurementdb.
        MeasurementDatabase.recover`) — returns the number of samples
        restored (None when nothing was).  Pass ``recover=False`` to
        simulate losing the disk too.  Either way the DB re-subscribes
        on the broker and, when a registration heartbeat is configured,
        re-registers and resumes heartbeating.
        """
        mdb = self.deployment.measurement_db
        self.restore(mdb.host.name)
        restored = self._restart(mdb, recover)
        # the restarted process re-announces itself exactly like a
        # fresh boot: broker subscription, master registration, lease
        # renewal loop
        mdb.peer.resubscribe_all()
        self._announce_measurement_db()
        return restored

    def _announce_measurement_db(self) -> None:
        """(Re-)register the measurement DB and keep its lease renewed."""
        deployment = self.deployment
        # idempotent: start_heartbeat no-ops while the renewal loop is
        # already running, and restarts it when an mdb crash-restart
        # left it stopped
        register(deployment.measurement_db, deployment.master_uris,
                 deployment.config.heartbeat_period)

    def kill_bim_proxy(self, entity_id: str) -> str:
        """Take one building's BIM proxy offline; returns its host name."""
        try:
            proxy = self.deployment.bim_proxies[entity_id]
        except KeyError:
            raise ConfigurationError(
                f"no BIM proxy for {entity_id!r}"
            ) from None
        self.take_offline(proxy.host.name)
        return proxy.host.name

    def kill_device_proxy(self, entity_id: str, protocol: str) -> str:
        """Take one Device-proxy offline; returns its host name."""
        try:
            proxy = self.deployment.device_proxies[(entity_id, protocol)]
        except KeyError:
            raise ConfigurationError(
                f"no device proxy for {entity_id!r}/{protocol!r}"
            ) from None
        self.take_offline(proxy.host.name)
        return proxy.host.name

    # -- master restart and recovery ------------------------------------------

    def restart_master(self, recover: bool = True) -> Optional[int]:
        """Crash-restart the master; recover state where possible.

        The in-memory ontology and lease table are wiped by the crash.
        With ``recover=True`` (the default) the restarted master reloads
        both from its last persisted snapshot when snapshotting is
        configured (see :meth:`~repro.core.master.MasterNode.recover`),
        so a clean restart no longer needs an operator-driven
        :meth:`reregister_all`.  Returns the number of ontology nodes
        recovered (falsy when none were).  Pass ``recover=False`` to
        simulate losing the snapshot too.
        """
        return self._restart(self.deployment.master, recover)

    def reregister_all(self) -> None:
        """Every proxy re-registers, rebuilding the master's ontology.

        In production the registration heartbeat does this on its own:
        a master that lost the ontology refuses the next lease renewal
        and each proxy re-registers in full inside that heartbeat.  Here
        the injector triggers the full round explicitly (and at once).
        On a replicated deployment each proxy targets the whole master
        set.
        """
        deployment = self.deployment
        uris = deployment.master_uris
        self._announce_measurement_db()
        deployment.gis_proxy.register_with(uris)
        for proxy in deployment.bim_proxies.values():
            proxy.register_with(uris)
        for proxy in deployment.sim_proxies.values():
            proxy.register_with(uris)
        for proxy in deployment.device_proxies.values():
            proxy.register_with(uris)
