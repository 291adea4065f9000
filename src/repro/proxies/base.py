"""Proxy base: Web Service hosting plus master registration.

"Each data source is therefore accompanied with its specific proxy,
which registers itself on a single master node."

Every proxy owns a Web Service on its host and a ``register_with``
handshake that POSTs its descriptor to the master's ``/register``
endpoint.  Subclasses define the descriptor contents and their routes.

For production-style resilience a proxy can also maintain a
**registration heartbeat**: :meth:`Proxy.start_heartbeat` re-registers
periodically on the DES scheduler, each time renewing a lease on the
master.  A proxy that crashes stops heartbeating, its lease expires and
the master evicts it from the ontology; when it comes back the next
heartbeat re-registers it — no operator-driven
``FaultInjector.reregister_all`` needed.  Heartbeats are asynchronous
(future-based), so a proxy keeps serving requests while one is in
flight or timing out against a dead master.

Registration and heartbeat live in :class:`Registrant`, which the
global measurement database shares: to the master it is one more
registered service (``proxy_kind: measurement``).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Union

from repro.errors import (
    CircuitOpenError,
    NetworkError,
    RegistrationError,
    RequestTimeoutError,
    ServiceError,
)
from repro.network.resilience import FailoverSet, ResiliencePolicy
from repro.network.scheduler import PeriodicTask
from repro.network.transport import Host, estimate_size
from repro.network.webservice import (
    GET,
    POST,
    HttpClient,
    Request,
    Response,
    WebService,
    ok,
)


class Registrant:
    """Master registration plus its lease-renewal heartbeat.

    The owner supplies the payload (:meth:`_registration_payload`);
    everything else — rotating over a replicated master set, the
    periodic renewal, the sent/failed counters — is here once.
    """

    def __init__(self, host: Host,
                 policy: Optional[ResiliencePolicy] = None):
        self.host = host
        self.registered = False
        self.heartbeats_sent = 0
        self.heartbeats_failed = 0
        self._client = HttpClient(host, policy=policy)
        self._masters: Optional[FailoverSet] = None
        self._heartbeat_task: Optional[PeriodicTask] = None
        #: ((descriptor_revision, lease), measured payload size) — the
        #: heartbeat body is structurally constant between descriptor
        #: changes, so its wire size is measured once per revision
        self._heartbeat_size: Optional[tuple] = None

    def _registration_payload(self, lease: Optional[float]) -> Dict:
        """The body POSTed to the master's ``/register``."""
        raise NotImplementedError

    def descriptor_revision(self) -> int:
        """Marker that changes whenever the registration payload would.

        The heartbeat uses it to reuse the measured registration-payload
        size between descriptor changes.  Subclasses whose descriptor
        can change after construction must bump the value they return.
        """
        return 0

    def _sized_payload(self, lease: Optional[float]):
        """The registration body and its wire size, measured once per
        (descriptor revision, lease)."""
        payload = self._registration_payload(lease)
        key = (self.descriptor_revision(), lease)
        cached = self._heartbeat_size
        if cached is None or cached[0] != key:
            cached = (key, estimate_size(payload))
            self._heartbeat_size = cached
        return payload, cached[1]

    def register_with(self, master_uri: Union[str, Sequence[str],
                                              FailoverSet],
                      lease: Optional[float] = None) -> Dict:
        """Register on the master node; returns the master's response body.

        *master_uri* may be one URI, a sequence of URIs, or a shared
        :class:`~repro.network.resilience.FailoverSet` — a replicated
        master set tried in order until one accepts the write (a
        standby's 503, a timeout or an open circuit rotate to the next
        replica; a 4xx refusal is final).  The set is remembered, so
        :meth:`start_heartbeat` keeps renewing against whichever
        replica currently answers.

        With *lease*, the registration is valid for that many simulated
        seconds and must be renewed (see :meth:`start_heartbeat`).
        Raises :class:`RegistrationError` if the master refuses or the
        whole set is unreachable.
        """
        masters = master_uri if isinstance(master_uri, FailoverSet) \
            else FailoverSet(master_uri)
        self._masters = masters
        payload, size = self._sized_payload(lease)
        last_error: Optional[Exception] = None
        for _ in range(len(masters)):
            try:
                response = self._client.post(
                    masters.current + "/register", body=payload,
                    body_size=size,
                )
            except ServiceError as exc:
                if exc.status < 500:
                    raise RegistrationError(
                        f"master rejected registration of {self.host.name}: "
                        f"{exc}"
                    ) from exc
                last_error = exc
            except (RequestTimeoutError, CircuitOpenError) as exc:
                last_error = exc
            else:
                self.registered = True
                return response.body
            masters.advance()
        raise RegistrationError(
            f"no master accepted registration of {self.host.name}: "
            f"{last_error}"
        ) from last_error

    # -- registration heartbeat -------------------------------------------

    def start_heartbeat(self, master_uri: Union[str, Sequence[str],
                                                FailoverSet], period: float,
                        lease: Optional[float] = None,
                        initial_delay: Optional[float] = None) -> None:
        """Renew the registration every *period* simulated seconds.

        *lease* defaults to three periods, so a single lost heartbeat
        does not evict a healthy proxy.  With a master set, a failed
        heartbeat rotates to the next replica, so renewals find the new
        primary within a few periods of a failover.  Idempotent; stop
        with :meth:`stop_heartbeat`.
        """
        if self._heartbeat_task is not None:
            return
        if lease is None:
            lease = 3.0 * period
        if not isinstance(master_uri, FailoverSet):
            master_uri = FailoverSet(master_uri)
        self._masters = master_uri
        self._heartbeat_task = self.host.network.scheduler.every(
            period, self._heartbeat, master_uri, lease,
            initial_delay=initial_delay,
        )

    def stop_heartbeat(self) -> None:
        """Cancel the periodic re-registration."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.stop()
            self._heartbeat_task = None

    def _heartbeat(self, masters: FailoverSet, lease: float) -> None:
        """One asynchronous heartbeat: POST /register, observe outcome."""
        body, size = self._sized_payload(lease)
        future = self._client.request(
            masters.current + "/register", POST,
            body=body, body_size=size,
        )
        future.add_done_callback(
            lambda fut: self._on_heartbeat_done(masters, fut)
        )

    def _on_heartbeat_done(self, masters: FailoverSet, future) -> None:
        try:
            response = future.result()
        except NetworkError:
            self.heartbeats_failed += 1
            self.registered = False
            masters.advance()  # dead master: try the next replica
            return
        if response.ok:
            self.heartbeats_sent += 1
            self.registered = True
        else:
            # a standby/fenced master answers 503: rotate towards the
            # primary so the next renewal lands before the lease expires
            self.heartbeats_failed += 1
            masters.advance()


class Proxy(Registrant, abc.ABC):
    """A data-source proxy: one Web Service plus a master registration."""

    #: descriptor tag: "device" or "database"; set by subclasses
    proxy_kind: str = ""

    def __init__(self, host: Host, processing_delay: float = 1e-4,
                 policy: Optional[ResiliencePolicy] = None):
        self.service = WebService(host, processing_delay=processing_delay)
        Registrant.__init__(self, host, policy)
        self.service.add_route(GET, "/health", self._health_route)
        self.service.add_route(GET, "/metrics", self._metrics_route)

    @property
    def uri(self) -> str:
        """This proxy's Web-Service base URI."""
        return self.service.base_uri

    @property
    def name(self) -> str:
        return self.host.name

    @abc.abstractmethod
    def descriptor(self) -> Dict:
        """The registration payload sent to the master node."""

    def _registration_payload(self, lease: Optional[float]) -> Dict:
        payload = self.descriptor()
        payload["proxy_kind"] = self.proxy_kind
        payload["uri"] = self.uri
        if lease is not None:
            payload["lease"] = lease
        return payload

    # -- health -----------------------------------------------------------

    def health(self) -> Dict:
        """Liveness payload; subclasses may extend it."""
        return {
            "status": "ok",
            "proxy_kind": self.proxy_kind,
            "host": self.name,
            "registered": self.registered,
            "requests_served": self.service.requests_served,
            "requests_failed": self.service.requests_failed,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_failed": self.heartbeats_failed,
        }

    def _health_route(self, request: Request) -> Response:
        return ok(self.health())

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> Dict:
        """Numeric counters for the ``/metrics`` endpoint.

        Subclasses extend this with their own counters; the route pairs
        it with a snapshot of the network-wide
        :class:`~repro.observability.metrics.MetricsRegistry` when one
        is installed.
        """
        return {
            "requests_served": self.service.requests_served,
            "requests_failed": self.service.requests_failed,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_failed": self.heartbeats_failed,
        }

    def _metrics_route(self, request: Request) -> Response:
        registry = self.host.network.metrics
        return ok({
            "component": self.metrics(),
            "registry": registry.snapshot() if registry is not None else {},
        })
