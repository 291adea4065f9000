"""Simulated message transport: hosts, links, latency, loss.

The paper's infrastructure is a set of networked services (master node,
proxies, clients) exchanging messages over IP.  Here the IP network is a
:class:`Network` on a discrete-event scheduler: each host binds named
ports to handlers, and :meth:`Network.send` schedules delivery after a
latency computed by a :class:`LatencyModel` (base + per-byte + jitter)
plus the service time the destination port charges (:meth:`Host.serve`).

Failure injection: hosts can be taken offline (messages to them are
dropped) and links can be given a drop probability, both deterministic
for a fixed seed — used by the churn/robustness tests and benches.

Hot-path design (the PR 10 fast path):

* :func:`estimate_size` no longer serialises every payload — a
  structural walk computes the exact ``json.dumps`` byte length for the
  framework's envelope shapes (str/bytes/None fast paths, dicts/lists of
  ASCII strings and numbers) and only falls back to real ``json.dumps``
  for exotic values (non-ASCII, escapes, NaN, non-str dict keys,
  arbitrary objects).  The computed length is **value-exact** against
  the seed implementation because size feeds bandwidth latency, and
  latency feeds event ordering.
* Callers that already know the wire size (the broker's fan-out: the
  publish frame's size, :func:`estimate_size_from`, plus exact per-key
  deltas; every fixed-shape frame: :func:`frame_size`) pass it via
  ``send(..., size=...)`` and skip estimation.
* :meth:`Network.send` takes fast exits: the partition / drop
  probability / flaky machinery is only consulted when actually
  configured, and jitter draws are batched (stream-identical to the
  seed's scalar draws) so the RNG is entered once per 256 sends.
* Host names and port names are interned, so the hot dict lookups hash
  by pointer.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ConfigurationError, UnknownHostError
from repro.network.scheduler import Scheduler

Handler = Callable[["Message"], None]


class _Exotic(Exception):
    """Internal: payload needs the real ``json.dumps`` fallback."""


#: characters that make a string non-trivial to JSON-encode: anything
#: outside printable ASCII (multi-byte UTF-8 or ``\uXXXX`` escapes under
#: ``ensure_ascii``) plus the two escaped printables ``"`` and ``\``.
_NEEDS_ESCAPE = re.compile(r'[^ -~]|["\\]').search

_JITTER_BATCH = 256

_INF = float("inf")

#: string -> its quoted JSON-encoded length.  Envelope keys, topics,
#: host names and device ids repeat endlessly, so the escape scan runs
#: once per distinct string; bounded against id-cardinality explosions.
#: A string with a space is text (a line-protocol line), never cached.
_STR_LEN_CACHE: Dict[str, int] = {}
_STR_LEN_CACHE_CAP = 8192
#: what :func:`estimate_size` charges a payload ``json`` cannot encode
_OPAQUE_SIZE = 256
_ABSENT = object()


def _json_str_len(value: str) -> int:
    cache = _STR_LEN_CACHE
    length = cache.get(value)
    if length is None:
        if _NEEDS_ESCAPE(value):
            raise _Exotic
        length = len(value) + 2
        if " " in value:
            return length
        if len(cache) >= _STR_LEN_CACHE_CAP:
            cache.clear()
        cache[value] = length
    return length


def _json_len(value: Any) -> int:
    """Exact ``len(json.dumps(value).encode("utf-8"))`` without encoding.

    Mirrors ``json.dumps`` defaults (``", "``/``": "`` separators,
    ``ensure_ascii``, ``float.__repr__`` for floats; ``repr(nan)`` and
    ``"NaN"`` happen to have equal length, so NaN needs no special
    case).  Raises :class:`_Exotic` for anything whose encoding is not
    trivially computable — strings needing escapes, infinities,
    non-``str`` dict keys (json stringifies those), subclasses,
    arbitrary objects — so the caller falls back to the real encoder.
    """
    kind = type(value)
    if kind is str:
        length = _STR_LEN_CACHE.get(value)
        return length if length is not None else _json_str_len(value)
    if kind is float:
        if value == _INF or value == -_INF:
            raise _Exotic
        return len(repr(value))
    if kind is bool:
        return 4 if value else 5
    if kind is int:
        return len(str(value))
    if value is None:
        return 4
    if kind is dict:
        count = len(value)
        if count == 0:
            return 2
        total = 2 + 2 * (count - 1)
        cache_get = _STR_LEN_CACHE.get
        for key, item in value.items():
            key_len = cache_get(key)
            if key_len is None:
                if type(key) is not str:
                    raise _Exotic
                key_len = _json_str_len(key)
            total += key_len + 2 + _json_len(item)
        return total
    if kind is list or kind is tuple:
        count = len(value)
        if count == 0:
            return 2
        total = 2 + 2 * (count - 1)
        for item in value:
            total += _json_len(item)
        return total
    raise _Exotic


def estimate_size(payload: Any) -> int:
    """Approximate on-the-wire size in bytes of a message payload.

    Value-identical to serialising with ``json.dumps(payload,
    default=str)`` (the seed behaviour) but computed structurally for
    the common payload shapes, so the hot send path never builds a JSON
    string just to measure it.
    """
    if payload is None:
        return 1
    kind = type(payload)
    if kind is str:
        if payload.isascii():
            return len(payload)
        return len(payload.encode("utf-8"))
    if kind is bytes or kind is bytearray:
        return len(payload)
    try:
        return _json_len(payload)
    except _Exotic:
        pass
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    try:
        return len(json.dumps(payload, default=str).encode("utf-8"))
    except (TypeError, ValueError):
        return _OPAQUE_SIZE  # opaque object: charge a flat envelope size


def estimate_size_from(size: int, sent: dict, built: dict) -> int:
    """Exact :func:`estimate_size` of dict *built* from dict *sent*, a
    payload charged *size* and not changed since: an item both hold
    (one key, one value object) is not walked, so a payload *built*
    carries on is not walked twice.  A full walk stands in where the
    items' lengths do not add up to the whole."""
    if sent and built and size != _OPAQUE_SIZE:
        try:
            # an item is its key, ': ', its value and 2 bytes of the
            # braces and ', ' separators
            for sign, value, other in ((-1, sent, built), (1, built, sent)):
                for key, item in value.items():
                    if other.get(key, _ABSENT) is item:
                        continue
                    if type(key) is not str:
                        raise _Exotic
                    size += sign * (_json_str_len(key) + 4 + _json_len(item))
            return size
        except _Exotic:
            pass
    return estimate_size(built)


#: what each key of a frame costs on the wire besides its value: its
#: quoted name, ``": "`` and 2 bytes of the braces and ``", "``
#: separators, so a frame is the sum of its items
_KEY_BYTES = {key: len(key) + 6 for key in (
    # web-service request and reply envelopes
    "path", "request_id", "status", "method", "params", "body", "reason",
    # pub/sub frames, both ways
    "verb", "kind", "pattern", "port", "token", "ack", "sub_id", "topic",
    "payload", "published_at", "retain", "pub_id", "ack_port", "nonce",
    "delivery_id", "delivery_ids", "poison", "retry_after", "primary",
    "epoch")}


def frame_size(payload: Dict[str, Any]) -> Optional[int]:
    """The exact :func:`estimate_size` of a web-service envelope or a
    pub/sub frame (a non-empty dict), counted rather than walked where
    its shape is known: a key is its :data:`_KEY_BYTES`, an int its
    digits, a string its cached length and the ``"trace"`` header 15
    bytes plus its ids' digits; any other value (a params dict, a body,
    a payload) is walked.  None when a value needs the real encoder or
    a key is not in the table: the sender then lets :meth:`Network.send`
    estimate the frame whole."""
    size = 0
    cached = _STR_LEN_CACHE.get
    try:
        for key, value in payload.items():
            kind = value.__class__
            if kind is int:
                size += _KEY_BYTES[key] + len(str(value))
            elif kind is str:
                size += _KEY_BYTES[key] + (cached(value)
                                           or _json_str_len(value))
            elif key == "trace":
                size += 15 + len(f"{value[0]}{value[1]}")
            else:
                size += _KEY_BYTES[key] + _json_len(value)
    except (_Exotic, KeyError):
        return None
    return size


@dataclass
class Message:
    """A delivered transport message.

    Treated as immutable by convention; built once per delivery, so the
    constructor stays on the plain (non-``frozen``) dataclass path —
    ``frozen=True`` pays ``object.__setattr__`` per field per message.
    The slots are spelled out because ``dataclass(slots=True)`` needs
    Python 3.10.
    """

    __slots__ = ("sender", "recipient", "port", "payload", "size",
                 "sent_at", "delivered_at")

    sender: str
    recipient: str
    port: str
    payload: Any
    size: int
    sent_at: float
    delivered_at: float


class LatencyModel:
    """Base-plus-bandwidth latency with deterministic jitter.

    ``delay = base + size/bandwidth`` multiplied by a log-normal jitter
    factor.  Messages a host sends to itself take :attr:`loopback`.

    Jitter factors are drawn in batches of ``256`` — batch draws from
    ``RandomState.normal`` are stream-identical to scalar draws, and
    ``np.exp`` over the batch is elementwise-identical, so the factors
    a run sees match the seed implementation draw for draw.  (Changing
    :attr:`jitter` mid-run discards the current batch.)
    """

    def __init__(
        self,
        base: float = 0.002,
        bandwidth: float = 1.25e6,  # bytes/second (~10 Mbit/s district WAN)
        jitter: float = 0.1,
        seed: int = 0,
    ):
        if base < 0:
            raise ConfigurationError("latencies must be non-negative")
        if bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.base = base
        self.bandwidth = bandwidth
        self.jitter = jitter
        #: seconds a message from a host to itself takes
        self.loopback = 2e-5
        self._rng = np.random.RandomState(seed)
        self._jitter_buf: List[float] = []
        self._jitter_pos = 0
        self._jitter_sigma = jitter

    def delay(self, src: str, dst: str, size: int) -> float:
        """Latency in seconds for a *size*-byte message src -> dst."""
        if src == dst:
            return self.loopback
        nominal = self.base + size / self.bandwidth
        sigma = self.jitter
        if sigma <= 0:
            return nominal
        pos = self._jitter_pos
        buf = self._jitter_buf
        if pos >= len(buf) or sigma != self._jitter_sigma:
            buf = self._jitter_buf = np.exp(
                self._rng.normal(0.0, sigma, _JITTER_BATCH)
            ).tolist()
            self._jitter_sigma = sigma
            pos = 0
        self._jitter_pos = pos + 1
        return nominal * buf[pos]


class Host:
    """A named node on the simulated network."""

    def __init__(self, name: str, network: "Network"):
        self.name = name
        self.network = network
        self._ports: Dict[str, Handler] = {}
        #: port -> service time charged on each delivery (:meth:`serve`)
        self._service: Dict[str, float] = {}
        self.online = True
        #: the ``http-reply`` port and request table every web-service
        #: client on this host shares, made by the first one
        self.http_replies = None

    def bind(self, port: str, handler: Handler) -> None:
        """Attach *handler* to *port*; rebinding an open port is an error."""
        port = sys.intern(port)
        if port in self._ports:
            raise ConfigurationError(
                f"port {port!r} already bound on host {self.name!r}"
            )
        self._ports[port] = handler

    def serve(self, port: str, seconds: float) -> None:
        """Charge *seconds* of service time on every message to *port*.

        The time is added to the message's delivery, so its handler runs
        when the server has finished with it; the host's online state
        and the port's binding are checked then, not on arrival.
        """
        self._service[sys.intern(port)] = seconds

    def unbind(self, port: str) -> None:
        """Detach the handler and service time from *port* (no-op if
        not bound)."""
        self._ports.pop(port, None)
        self._service.pop(port, None)

    def send(self, recipient: str, port: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Send *payload* to *recipient*:*port* over the network.

        *size* lets callers that already know the wire size (the
        broker's fan-out) skip :func:`estimate_size`.
        """
        self.network.send(self.name, recipient, port, payload, size=size)


@dataclass
class NetworkStats:
    """Aggregate transport counters, reset per experiment run.

    Counter semantics — "attempted" vs "delivered":

    * ``messages_sent`` / ``bytes_sent`` count messages that **left the
      sending host** — the sender was online, whatever happened next
      (partition, drop, recipient offline).  A message sent while its
      *sender* is offline never leaves the host and is **not** counted
      here (it only counts as dropped).
    * ``messages_delivered`` counts handler invocations on the
      recipient.
    * ``messages_dropped`` counts every message that failed to reach a
      handler, whatever the cause; the ``messages_dropped_*`` splits
      attribute causes (offline endpoint, flaky profile, partition) and
      each dropped message increments at most one split.

    So availability math reads: attempted = ``messages_sent`` +
    sender-offline drops, and ``messages_delivered + messages_dropped``
    accounts for every attempt.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_dropped_offline: int = 0
    messages_dropped_flaky: int = 0
    messages_dropped_partition: int = 0
    latency_spikes: int = 0
    bytes_sent: int = 0
    per_host_received: Dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_dropped_offline = 0
        self.messages_dropped_flaky = 0
        self.messages_dropped_partition = 0
        self.latency_spikes = 0
        self.bytes_sent = 0
        self.per_host_received.clear()


@dataclass(frozen=True)
class FlakyProfile:
    """Degraded-but-alive behaviour of one host (fault injection).

    Unlike taking a host offline, a flaky host stays reachable: each
    message to or from it is dropped with *drop_probability*, and with
    *spike_probability* its delivery pays *latency_spike* extra seconds
    — the brown-out failure mode real district gateways exhibit.
    """

    drop_probability: float = 0.0
    latency_spike: float = 0.0
    spike_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ConfigurationError("drop probability must be in [0, 1]")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ConfigurationError("spike probability must be in [0, 1]")
        if self.latency_spike < 0:
            raise ConfigurationError("latency spike must be non-negative")


class Network:
    """The simulated district network fabric."""

    def __init__(
        self,
        scheduler: Scheduler,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigurationError("drop probability must be in [0, 1)")
        self.scheduler = scheduler
        self.latency = latency if latency is not None else LatencyModel(seed=seed)
        self.drop_probability = drop_probability
        self.stats = NetworkStats()
        #: tracing attachment point (None = disabled, the default): a
        #: repro.observability Tracer, set by repro.observability.install().
        #: Instrumented components reach it through host.network, so one
        #: check against None is the entire disabled-mode cost.
        self.tracer = None
        #: hot-loop profiler attachment point (None = disabled), set by
        #: repro.observability.profiler.install_profiler() alongside
        #: scheduler.profiler; _deliver pays one None check when off
        self.profiler = None
        self._hosts: Dict[str, Host] = {}
        self._flaky: Dict[str, FlakyProfile] = {}
        #: active partitions: frozensets of isolated host names.  A
        #: message is dropped (both directions) when exactly one of its
        #: endpoints belongs to a partition's isolated side, so hosts
        #: added after the cut land on the majority side.
        self._partitions: list = []
        self._port_ids: Dict[str, Iterator[int]] = defaultdict(
            lambda: itertools.count(1))
        self._drop_rng = np.random.RandomState(seed + 1)
        # surface periodic-task callback failures as trace events
        scheduler.on_periodic_error = self._periodic_task_error

    def _periodic_task_error(self, task, exc: BaseException) -> None:
        """Scheduler hook: a periodic task's callback raised (and was
        re-armed).  Emitted as a trace event so soak runs show silent
        failures that previously killed heartbeats."""
        tracer = self.tracer
        if tracer is not None:
            callback = getattr(task, "_callback", None)
            handler = getattr(callback, "__qualname__", None) or repr(callback)
            tracer.event(
                "periodic_task_error",
                handler=handler,
                error=f"{type(exc).__name__}: {exc}",
            )

    def allocate_port(self, prefix: str) -> str:
        """A fresh ``<prefix>-<n>`` port name, n counting from 1 per prefix.

        A middleware peer's port (``pubsub-peer-<n>``) travels in its
        frames, so port names are numbered per network, not per
        process: a deployment's wire sizes do not depend on what ran in
        the interpreter before it.
        """
        return f"{prefix}-{next(self._port_ids[prefix])}"

    def add_host(self, name: str) -> Host:
        """Create and register a host; duplicate names are an error."""
        name = sys.intern(name)
        if name in self._hosts:
            raise ConfigurationError(f"host {name!r} already on network")
        host = Host(name, self)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise UnknownHostError(f"no host named {name!r}") from None

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    def hosts(self):
        """Iterate over registered hosts."""
        return iter(self._hosts.values())

    def set_host_online(self, name: str, online: bool) -> None:
        """Failure injection: take a host off the network (or restore it)."""
        self.host(name).online = online

    def set_host_flaky(self, name: str, profile: FlakyProfile) -> None:
        """Failure injection: degrade every message to/from *name*."""
        self.host(name)  # raises UnknownHostError
        self._flaky[name] = profile

    def clear_host_flaky(self, name: str) -> None:
        """Remove a host's flaky profile (no-op if it has none)."""
        self._flaky.pop(name, None)

    def flaky_hosts(self) -> Dict[str, FlakyProfile]:
        """Currently degraded hosts and their profiles."""
        return dict(self._flaky)

    # -- partitions ---------------------------------------------------------

    def partition(self, hosts) -> None:
        """Cut the links between *hosts* and everyone else, symmetrically.

        Both sides stay alive and keep talking within themselves; every
        message crossing the cut is dropped in **both** directions until
        :meth:`heal_partition`.  Unlike :meth:`set_host_online`, a
        partitioned host keeps serving the peers on its own side.
        """
        isolated = frozenset(hosts)
        if not isolated:
            raise ConfigurationError("partition needs at least one host")
        for name in isolated:
            self.host(name)  # raises UnknownHostError
        self._partitions.append(isolated)

    def heal_partition(self) -> None:
        """Remove every active partition (no-op when none exist)."""
        self._partitions.clear()

    def partition_blocks(self, sender: str, recipient: str) -> bool:
        """Whether an active partition severs the sender->recipient link."""
        for isolated in self._partitions:
            if (sender in isolated) != (recipient in isolated):
                return True
        return False

    def send(self, sender: str, recipient: str, port: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Schedule delivery of *payload* from *sender* to *recipient*.

        Messages to offline hosts, or unlucky under the drop
        probability, are silently dropped — callers that need
        reliability layer timeouts on top (as the web-service client
        does).  *size* overrides :func:`estimate_size` for callers that
        already know the wire size.

        A message whose **sender** is offline never leaves the host: it
        is dropped without charging ``messages_sent``/``bytes_sent`` (or
        paying size estimation).  A message to an offline **recipient**
        did leave the host, so it counts as sent *and* dropped.  See
        :class:`NetworkStats` for the full attempted-vs-delivered
        contract.
        """
        hosts = self._hosts
        src = hosts.get(sender)
        if src is None:
            raise UnknownHostError(f"unknown sending host {sender!r}")
        dst = hosts.get(recipient)
        if dst is None:
            raise UnknownHostError(f"no host named {recipient!r}")
        stats = self.stats
        if not src.online:
            stats.messages_dropped += 1
            stats.messages_dropped_offline += 1
            return
        if size is None:
            size = estimate_size(payload)
        stats.messages_sent += 1
        stats.bytes_sent += size
        if not dst.online:
            stats.messages_dropped += 1
            stats.messages_dropped_offline += 1
            return
        if self._partitions and self.partition_blocks(sender, recipient):
            stats.messages_dropped += 1
            stats.messages_dropped_partition += 1
            return
        if (
            self.drop_probability > 0.0
            and self._drop_rng.random_sample() < self.drop_probability
        ):
            stats.messages_dropped += 1
            return
        extra_delay = 0.0
        if self._flaky:
            for endpoint in (sender, recipient) if sender != recipient \
                    else (sender,):
                profile = self._flaky.get(endpoint)
                if profile is None:
                    continue
                if profile.drop_probability > 0.0 and \
                        self._drop_rng.random_sample() < profile.drop_probability:
                    stats.messages_dropped += 1
                    stats.messages_dropped_flaky += 1
                    return
                if profile.spike_probability > 0.0 and \
                        self._drop_rng.random_sample() < profile.spike_probability:
                    extra_delay += profile.latency_spike
                    stats.latency_spikes += 1
        delay = self.latency.delay(sender, recipient, size) + extra_delay
        now = self.scheduler.clock._now
        # arrival, then the destination port's service time (Host.serve)
        self.scheduler.schedule_at(
            now + delay + dst._service.get(port, 0.0), self._deliver,
            sender, recipient, port, payload, size, now,
        )

    def _deliver(self, sender: str, recipient: str, port: str, payload: Any,
                 size: int, sent_at: float) -> None:
        dst = self._hosts.get(recipient)
        if dst is None or not dst.online:
            self.stats.messages_dropped += 1
            return
        try:
            handler = dst._ports[port]
        except KeyError:
            self.stats.messages_dropped += 1
            return
        stats = self.stats
        stats.messages_delivered += 1
        received = stats.per_host_received
        received[recipient] = received.get(recipient, 0) + 1
        message = Message(
            sender=sender,
            recipient=recipient,
            port=port,
            payload=payload,
            size=size,
            sent_at=sent_at,
            delivered_at=self.scheduler.clock._now,
        )
        profiler = self.profiler
        if profiler is None:
            handler(message)
            return
        frame = profiler.enter_delivery(recipient, port)
        try:
            handler(message)
        finally:
            profiler.exit(frame)
