"""The Device-proxy: Figure 1(b)'s three-layer gateway.

* **Dedicated layer** (bottom) — a protocol adapter plus the radio
  links of the attached devices; decodes native frames into canonical
  readings, encodes actuation commands back down.
* **Local database** (middle) — a :class:`LocalDatabase` buffering the
  collected samples with a retention horizon.
* **Web Service layer** (top) — REST routes for device discovery, data
  retrieval (JSON/XML) and remote control, plus publication of every
  sample into the middleware (and through it to the global measurement
  database) via publish/subscribe.

Actuation follows real gateway semantics: ``POST /actuate/{device}``
dispatches the command frame and returns a bodyless 202 at once (the
request already names the device and command, and the result's topic
follows from the device); the device's
post-command attribute report confirms execution, upon which the proxy
publishes an :class:`~repro.common.cdf.ActuationResult` on the
``actuation/<device>`` topic.  A silent device (offline, rejected
command, lost frame) causes a timeout result instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.common import serialization
from repro.common.cdf import ActuationResult, Measurement
from repro.common.lineproto import encode_frame
from repro.common.serialization import JSON_FORMAT
from repro.devices.base import SimulatedDevice
from repro.devices.firmware import RadioLink
from repro.errors import (
    ConfigurationError,
    FrameDecodeError,
    FrameEncodeError,
    QueryError,
    SeriesNotFoundError,
    UnsupportedCommandError,
)
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import actuation_topic, join, measurement_topic
from repro.network.scheduler import EventHandle
from repro.network.transport import Host
from repro.network.webservice import (
    GET,
    POST,
    Request,
    Response,
    conditional,
    error,
    ok,
)
from repro.protocols.base import ProtocolAdapter, RawReading
from repro.proxies.base import Proxy
from repro.storage.localdb import LocalDatabase
from repro.storage.query import RangeQuery


@dataclass
class BatchConfig:
    """Flush thresholds for line-protocol batch publication.

    A proxy with batching enabled accumulates samples into an open
    frame and publishes the frame as ONE pub/sub envelope when either
    bound is hit: *max_samples* samples collected (size flush) or
    *max_age* simulated seconds since the frame's first sample (age
    flush — bounds the extra delivery latency batching introduces).
    """

    max_samples: int = 50
    max_age: float = 5.0

    def __post_init__(self) -> None:
        if self.max_samples < 1:
            raise ConfigurationError("batch max_samples must be >= 1")
        if self.max_age <= 0:
            raise ConfigurationError("batch max_age must be positive")


@dataclass
class _AttachedDevice:
    device: SimulatedDevice
    link: RadioLink


@dataclass
class _PendingActuation:
    device_id: str
    command: str
    issued_at: float
    resolved: bool = False


class DeviceProxy(Proxy):
    """Gateway proxy for one protocol's devices in one entity."""

    proxy_kind = "device"

    def __init__(
        self,
        host: Host,
        adapter: ProtocolAdapter,
        broker_host: Union[str, Sequence[str]],
        district_id: str,
        retention: Optional[float] = 7 * 86400.0,
        actuation_timeout: float = 5.0,
        publish_buffer: Optional[int] = None,
        peer_keepalive: Optional[float] = None,
        batching: Optional[BatchConfig] = None,
    ):
        super().__init__(host)
        self.adapter = adapter
        self.district_id = district_id
        self.database = LocalDatabase(retention=retention)
        self.peer = MiddlewarePeer(host, broker_host,
                                   publish_buffer=publish_buffer,
                                   keepalive=peer_keepalive)
        self.actuation_timeout = actuation_timeout
        self.frames_received = 0
        self.frames_rejected = 0
        self.frames_dropped_offline = 0
        self.measurements_published = 0
        #: cleared when the proxy process is down (fault injection):
        #: a dead gateway also stops listening on the radio side
        self.online = True
        self.batching = batching
        self.batch_frames_published = 0
        self.batch_samples_published = 0
        self.batch_flushes_size = 0
        self.batch_flushes_age = 0
        self.batch_samples_dropped_offline = 0
        self._batch: List[Measurement] = []
        #: the open frame's age-bound timer, cancelled when it flushes
        self._batch_timer: Optional[EventHandle] = None
        self._seq: Dict[str, int] = {}  # device -> last published seq
        self._devices: Dict[str, _AttachedDevice] = {}
        self._by_address: Dict[str, str] = {}  # native address -> device id
        #: bumped by attach / detach, the only changes to the descriptor
        self._devices_rev = 0
        self._pending: List[_PendingActuation] = []
        service = self.service
        service.add_route(GET, "/devices", self._devices_route)
        service.add_route(GET, "/data", self._data_route)
        service.add_route(GET, "/latest/{device_id}/{quantity}",
                          self._latest_route)
        service.add_route(POST, "/actuate/{device_id}", self._actuate_route)

    # -- dedicated layer -----------------------------------------------------

    def attach_device(self, device: SimulatedDevice, link: RadioLink
                      ) -> None:
        """Bind a device's radio link into the dedicated layer."""
        if device.protocol != self.adapter.name:
            raise ConfigurationError(
                f"device {device.device_id} speaks {device.protocol}, "
                f"proxy speaks {self.adapter.name}"
            )
        if device.device_id in self._devices:
            raise ConfigurationError(
                f"device {device.device_id} already attached"
            )
        if device.address in self._by_address:
            raise ConfigurationError(
                f"address {device.address!r} already attached"
            )
        self._devices[device.device_id] = _AttachedDevice(device, link)
        self._by_address[device.address] = device.device_id
        self._devices_rev += 1
        link.attach_gateway(self._on_frame)

    def detach_device(self, device_id: str) -> None:
        """Unbind a device: the next heartbeat re-registers without it."""
        attached = self._devices.pop(device_id, None)
        if attached is None:
            raise ConfigurationError(f"device {device_id} not attached")
        del self._by_address[attached.device.address]
        self._devices_rev += 1
        attached.link.attach_gateway(None)

    def devices(self) -> List[SimulatedDevice]:
        """Attached devices, sorted by id."""
        return [self._devices[d].device for d in sorted(self._devices)]

    def _on_frame(self, frame: bytes) -> None:
        if not self.online:
            self.frames_dropped_offline += 1
            return
        now = self.host.network.scheduler.now
        try:
            readings = self.adapter.decode_frame(frame, received_at=now)
        except FrameDecodeError:
            self.frames_rejected += 1
            return
        self.frames_received += 1
        for reading in readings:
            self._ingest(reading)

    def _ingest(self, reading: RawReading) -> None:
        device_id = self._by_address.get(reading.device_address)
        if device_id is None:
            self.frames_rejected += 1
            return
        # per-device publication sequence number: together with
        # (device_id, timestamp) it keys the measurement DB's idempotent
        # ingest, so broker redeliveries and offline-buffer re-flushes of
        # the same sample never double-count while two genuinely distinct
        # samples with equal timestamps stay distinct
        seq = self._seq.get(device_id, 0) + 1
        self._seq[device_id] = seq
        device = self._devices[device_id].device
        measurement = Measurement(
            device_id=device_id,
            entity_id=device.entity_id,
            quantity=reading.quantity,
            value=reading.value,
            timestamp=reading.timestamp,
            source=self.name,
            metadata={"protocol": self.adapter.name, "seq": seq},
        )
        self.database.insert(measurement)           # middle layer
        self._publish(measurement)                  # top layer, pub/sub
        self._confirm_pending(device_id, measurement)

    def _publish(self, measurement: Measurement) -> None:
        if self.batching is not None:
            self._batch_sample(measurement)
            return
        topic = measurement_topic(
            self.district_id, measurement.entity_id,
            measurement.device_id, measurement.quantity,
        )
        # retained, so late-joining monitors immediately see last values
        self.peer.publish(topic, measurement.to_event(), retain=True)
        self.measurements_published += 1

    # -- batched publication ---------------------------------------------------

    @property
    def batch_topic(self) -> str:
        """Topic carrying this proxy's batch frames.

        Lives under ``district/<id>/...`` so the measurement database's
        existing district-wide subscription filter matches it without
        any broker changes.
        """
        return join("district", self.district_id, "batch", self.name)

    def _batch_sample(self, measurement: Measurement) -> None:
        self._batch.append(measurement)
        if len(self._batch) == 1:
            # first sample opens the frame: arm the age bound
            self._batch_timer = self.host.network.scheduler.schedule(
                self.batching.max_age, self._age_flush
            )
        if len(self._batch) >= self.batching.max_samples:
            self.batch_flushes_size += 1
            self.flush_batch()

    def _age_flush(self) -> None:
        self.batch_flushes_age += 1
        self.flush_batch()

    def flush_batch(self) -> None:
        """Publish the open frame (if any) as one batch envelope.

        Batch frames are NOT retained: retained last-value semantics
        apply to per-sample topics only (see docs/storage.md).  A proxy
        taken offline drops its open frame — the samples were never
        acknowledged downstream, so this is ordinary sensor loss, not
        acked-data loss.
        """
        batch, self._batch = self._batch, []
        if not batch:
            return
        self._batch_timer.cancel()  # no-op when the timer is what fired
        if not self.online:
            self.batch_samples_dropped_offline += len(batch)
            return
        frame = encode_frame(batch, tracer=self.host.network.tracer,
                             host=self.name)
        self.peer.publish(self.batch_topic, frame)
        self.batch_frames_published += 1
        self.batch_samples_published += len(batch)
        self.measurements_published += len(batch)

    # -- actuation ------------------------------------------------------------

    def actuate(self, device_id: str, command: str,
                value: Optional[float]) -> None:
        """Dispatch a command frame to an attached device."""
        attached = self._devices.get(device_id)
        if attached is None:
            raise QueryError(f"no device {device_id!r} on this proxy")
        frame = self.adapter.encode_command(
            attached.device.address, command, value
        )
        now = self.host.network.scheduler.now
        pending = _PendingActuation(device_id, command, now)
        self._pending.append(pending)
        self.host.network.scheduler.schedule(
            self.actuation_timeout, self._expire_actuation, pending
        )
        attached.link.downlink(frame)

    def _confirm_pending(self, device_id: str, measurement: Measurement
                         ) -> None:
        for pending in self._pending:
            if pending.resolved or pending.device_id != device_id:
                continue
            pending.resolved = True
            result = ActuationResult(
                device_id=device_id,
                command=pending.command,
                accepted=True,
                detail=f"confirmed by {measurement.quantity} report",
                completed_at=self.host.network.scheduler.now,
            )
            self.peer.publish(actuation_topic(device_id), result.to_event())
        self._pending = [p for p in self._pending if not p.resolved]

    def _expire_actuation(self, pending: _PendingActuation) -> None:
        if pending.resolved:
            return
        pending.resolved = True
        self._pending = [p for p in self._pending if p is not pending]
        result = ActuationResult(
            device_id=pending.device_id,
            command=pending.command,
            accepted=False,
            detail="timeout: no post-command report",
            completed_at=self.host.network.scheduler.now,
        )
        self.peer.publish(actuation_topic(pending.device_id),
                          result.to_event())

    # -- registration ------------------------------------------------------------

    def metrics(self) -> Dict:
        info = super().metrics()
        info.update({
            "frames_received": self.frames_received,
            "frames_rejected": self.frames_rejected,
            "frames_dropped_offline": self.frames_dropped_offline,
            "measurements_published": self.measurements_published,
            "batch_frames_published": self.batch_frames_published,
            "batch_samples_published": self.batch_samples_published,
            "batch_flushes_size": self.batch_flushes_size,
            "batch_flushes_age": self.batch_flushes_age,
            "batch_samples_dropped_offline":
                self.batch_samples_dropped_offline,
            "batch_open_samples": len(self._batch),
            "publications_buffered": self.peer.publications_buffered,
            "publications_dropped": self.peer.publications_dropped,
            "publications_flushed": self.peer.publications_flushed,
            "publications_rejected": self.peer.publications_rejected,
            "publications_dropped_by_topic":
                dict(self.peer.dropped_by_topic),
        })
        return info

    def descriptor_revision(self) -> int:
        return self._devices_rev

    def descriptor(self) -> Dict:
        return {
            "district_id": self.district_id,
            "protocol": self.adapter.name,
            "devices": [device.description().to_dict()
                        for device in self.devices()],
        }

    # -- web-service routes ------------------------------------------------------

    def _devices_route(self, request: Request) -> Response:
        fmt = request.params.get("format", JSON_FORMAT)
        if fmt not in serialization.FORMATS:
            return error(400, f"unknown format {fmt!r}")
        document = serialization.encode(
            [device.description() for device in self.devices()], fmt
        )
        return ok({"format": fmt, "document": document})

    def _data_route(self, request: Request) -> Response:
        """Answer a list of series sharing one window, in request order.

        ``series=<device>/<quantity>,...`` is answered with
        ``{"series": [samples, ...]}``, a series nothing was collected
        for being an empty list.  The single-series form
        (``device_id``/``quantity``) is the list of one: it is answered
        with ``{"samples": samples}``, or 404 for an unknown series.

        A conditional GET: the token is the local database's insert
        count.  ``insert`` is its only mutating verb (retention prunes
        inside it), so an equal count means equal stored samples and an
        equal answer for equal params; a caller holding it gets a 304
        and nothing is read or aggregated.
        """
        return conditional(request, str(self.database.inserts),
                           self._data_answer)

    def _data_answer(self, params: Dict[str, str]) -> Response:
        listed = "series" in params
        answers = []
        try:
            for query in RangeQuery.list_from_params(params):
                try:
                    samples = self.database.query(query)
                except SeriesNotFoundError as exc:
                    if not listed:
                        return error(404, str(exc))
                    samples = []
                answers.append([[t, v] for t, v in samples])
        except QueryError as exc:
            return error(400, str(exc))
        return ok({"series": answers} if listed else {"samples": answers[0]})

    def _latest_route(self, request: Request) -> Response:
        device_id = request.path_params["device_id"]
        quantity = request.path_params["quantity"]
        try:
            timestamp, value = self.database.latest(device_id, quantity)
        except SeriesNotFoundError as exc:
            return error(404, str(exc))
        return ok({"device_id": device_id, "quantity": quantity,
                   "timestamp": timestamp, "value": value})

    def _actuate_route(self, request: Request) -> Response:
        device_id = request.path_params["device_id"]
        body = request.body or {}
        command = body.get("command")
        if not command:
            return error(400, "actuation needs a command")
        value = body.get("value")
        try:
            self.actuate(device_id, command,
                         None if value is None else float(value))
        except QueryError as exc:
            return error(404, str(exc))
        except (FrameEncodeError, UnsupportedCommandError, TypeError,
                ValueError, OverflowError) as exc:
            # an unknown command, a value the frame cannot carry, or one
            # float() cannot read (an integer beyond a double raises
            # OverflowError); anything else is a handler bug -> 500
            return error(400, f"cannot encode command: {exc}")
        return Response(202)
