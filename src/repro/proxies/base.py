"""Proxy base: Web Service hosting plus master registration.

"Each data source is therefore accompanied with its specific proxy,
which registers itself on a single master node."

Every proxy owns a Web Service on its host and a ``register_with``
handshake that POSTs its descriptor to the master's ``/register``
endpoint.  Subclasses define the descriptor contents and their routes.

For production-style resilience a proxy can also maintain a
**registration heartbeat**: :meth:`Proxy.start_heartbeat` renews the
registration's lease periodically on the DES scheduler.  The descriptor
travels once, with a **registration token** (its digest); every later
heartbeat ships only ``{uri, lease, token}``.  A master that does not
hold that token for that URI — it restarted, evicted the proxy, the
descriptor changed — refuses it (412, see
:class:`~repro.errors.UnknownRegistrationError`) and the proxy
re-registers in full inside the same heartbeat.  A proxy that crashes
stops heartbeating, its lease expires and the master evicts it from the
ontology; when it comes back its first heartbeat is refused and
re-registers it — no operator-driven
``FaultInjector.reregister_all`` needed.  Heartbeats are asynchronous
(future-based), so a proxy keeps serving requests while one is in
flight or timing out against a dead master.

Registration and heartbeat live in :class:`Registrant`, which the
global measurement database shares: to the master it is one more
registered service (``proxy_kind: measurement``).
"""

from __future__ import annotations

import abc
import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import (
    NetworkError,
    RegistrationError,
    ServiceError,
    UnknownRegistrationError,
)
from repro.network.resilience import FailoverSet, ResiliencePolicy
from repro.network.scheduler import PeriodicTask
from repro.network.transport import Host
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

    The owner supplies the descriptor (:meth:`_registration_payload`)
    and a ``uri`` attribute; everything else — the token, rotating over
    a replicated master set, the periodic renewal, the sent/failed
    counters — is here once.
    """

    def __init__(self, host: Host,
                 policy: Optional[ResiliencePolicy] = None):
        self.host = host
        self.registered = False
        self.heartbeats_sent = 0
        self.heartbeats_failed = 0
        self._client = HttpClient(host, policy=policy)
        self._heartbeat_task: Optional[PeriodicTask] = None
        #: (descriptor_revision, payload, token): the descriptor built
        #: and digested once per revision
        self._descriptor: Optional[Tuple[int, Dict, str]] = None
        #: token of the last full registration a master accepted; while
        #: it is still the current one a heartbeat is a renewal
        self._held_token: Optional[str] = None

    def _registration_payload(self) -> Dict:
        """The descriptor POSTed to the master's ``/register``."""
        raise NotImplementedError

    def descriptor_revision(self) -> int:
        """Marker that changes whenever the registration payload would.

        The payload is built and its token digested once per revision.
        Subclasses whose descriptor can change after construction must
        bump the value they return.
        """
        return 0

    def _current_descriptor(self) -> Tuple[int, Dict, str]:
        revision = self.descriptor_revision()
        memo = self._descriptor
        if memo is None or memo[0] != revision:
            payload = self._registration_payload()
            document = json.dumps(payload, sort_keys=True, default=str)
            memo = (revision, payload, hashlib.blake2s(
                document.encode("utf-8"), digest_size=8).hexdigest())
            self._descriptor = memo
        return memo

    def registration_token(self) -> str:
        """Digest of the current descriptor: the master's opaque
        validator, equal only for equal descriptors."""
        return self._current_descriptor()[2]

    def _registration(self, lease: Optional[float], full: bool) -> Dict:
        """A ``/register`` body: the whole descriptor, or its renewal."""
        _, payload, token = self._current_descriptor()
        body = dict(payload) if full else {"uri": self.uri}
        if lease is not None:
            body["lease"] = lease
        body["token"] = token
        return body

    def register_with(self, master_uri: Union[str, Sequence[str],
                                              FailoverSet],
                      lease: Optional[float] = None) -> Dict:
        """Register on the master node; returns the master's response body.

        *master_uri* may be one URI, a sequence of URIs, or a shared
        :class:`~repro.network.resilience.FailoverSet` — a replicated
        master set tried in order until one accepts the write
        (:meth:`~repro.network.webservice.HttpClient.failover`: a
        standby's 503, a timeout or an open circuit rotate to the next
        replica; a 4xx refusal is final).  Hand the same set to
        :meth:`start_heartbeat` and it keeps renewing against whichever
        replica currently answers.

        With *lease*, the registration is valid for that many simulated
        seconds and must be renewed (see :meth:`start_heartbeat`).
        Raises :class:`RegistrationError` if the master refuses or the
        whole set is unreachable.
        """
        masters = master_uri if isinstance(master_uri, FailoverSet) \
            else FailoverSet(master_uri)
        payload = self._registration(lease, full=True)
        try:
            response = self._client.failover(masters, "/register", POST,
                                             body=payload)
        except NetworkError as exc:
            refused = isinstance(exc, ServiceError) and exc.status < 500
            raise RegistrationError(
                f"{'master rejected' if refused else 'no master accepted'} "
                f"registration of {self.host.name}: {exc}") from exc
        self.registered = True
        self._held_token = payload["token"]
        return response.body

    # -- registration heartbeat -------------------------------------------

    def start_heartbeat(self, master_uri: Union[str, Sequence[str],
                                                FailoverSet], period: float,
                        lease: Optional[float] = None,
                        initial_delay: Optional[float] = None) -> None:
        """Renew the registration every *period* simulated seconds.

        *lease* defaults to three periods, so a single lost heartbeat
        does not evict a healthy proxy.  With a master set, a heartbeat
        that times out or is answered 5xx rotates to the next replica,
        so renewals find the new primary within a few periods of a
        failover.  Idempotent; stop with :meth:`stop_heartbeat`.
        """
        if self._heartbeat_task is not None:
            return
        if lease is None:
            lease = 3.0 * period
        if not isinstance(master_uri, FailoverSet):
            master_uri = FailoverSet(master_uri)
        self._heartbeat_task = self.host.network.scheduler.every(
            period, self._heartbeat, master_uri, lease,
            initial_delay=initial_delay,
        )

    def stop_heartbeat(self) -> None:
        """Cancel the periodic renewal."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.stop()
            self._heartbeat_task = None

    def _heartbeat(self, masters: FailoverSet, lease: float,
                   full: bool = False) -> None:
        """One asynchronous heartbeat: POST /register, observe outcome.

        A renewal while a master holds the current descriptor, the full
        registration otherwise (*full*: the renewal was just refused).
        """
        token = self.registration_token()
        full = full or token != self._held_token
        future = self._client.request(
            masters.current + "/register", POST,
            body=self._registration(lease, full))
        future.add_done_callback(
            lambda fut: self._on_heartbeat_done(masters, lease, full, token,
                                                fut))

    def _on_heartbeat_done(self, masters: FailoverSet, lease: float,
                           full: bool, token: str, future) -> None:
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
            self._held_token = token
        elif response.status == UnknownRegistrationError.status \
                and not full:
            # refused renewal (reset, eviction, failover): recover one
            # round trip later, not one period later
            self.registered = False
            self._heartbeat(masters, lease, full=True)
        else:
            self.heartbeats_failed += 1
            if response.status >= 500:
                # a standby/fenced master answers 503: rotate towards
                # the primary so the next renewal lands before the lease
                # expires; a 4xx is final, as in register_with
                masters.advance()


class Proxy(Registrant, abc.ABC):
    """A data-source proxy: one Web Service plus a master registration."""

    #: descriptor tag: "device" or "database"; set by subclasses
    proxy_kind: str = ""

    def __init__(self, host: Host, processing_delay: float = 1e-4,
                 policy: Optional[ResiliencePolicy] = None):
        self.service = WebService(host, processing_delay=processing_delay)
        Registrant.__init__(self, host, policy)
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

    def _registration_payload(self) -> Dict:
        payload = self.descriptor()
        payload["proxy_kind"] = self.proxy_kind
        payload["uri"] = self.uri
        return payload

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> Dict:
        """Numeric counters for the ``/metrics`` endpoint; subclasses
        extend this with their own."""
        return {
            "requests_served": self.service.requests_served,
            "requests_failed": self.service.requests_failed,
            "handler_errors": self.service.handler_errors,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_failed": self.heartbeats_failed,
        }

    def _metrics_route(self, request: Request) -> Response:
        return ok({"component": self.metrics()})
