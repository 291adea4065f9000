"""Line-protocol batch frames for the high-throughput ingest path.

Device proxies batch measurement samples into *frames* — one pub/sub
envelope carrying many samples — instead of publishing one envelope per
sample.  Each sample inside a frame is encoded as a single text line in
an InfluxDB-line-protocol-inspired grammar::

    <quantity>,device=<id>[,entity=<id>][,source=<s>][,protocol=<p>] \
value=<float>[,seq=<int>] <timestamp>

i.e. a *measurement name* (the CDF quantity), a comma-separated tag
set, a field set, and the sample timestamp in simulated seconds.  Tag
values escape ``\\``, `` ``, ``,`` and ``=`` with a backslash so device
ids containing delimiters round-trip.

The frame itself is a plain dict (the pub/sub payload) that carries
once, in ``tags``, each of ``entity``, ``source`` and ``protocol`` whose
value all its lines share — on a Device-proxy's frame, all three::

    {"record": "measurement_batch", "count": N,
     "tags": {"entity": <id>, "source": <s>, "protocol": <p>},
     "lines": [<line without those tags>, ...]}

A decoded line's tags start from ``tags``, and a tag the line carries
itself wins.  Header values are JSON strings, so they need no escapes.

The full wire contract — flush thresholds, topic layout, idempotency
keys, how frames interact with the WAL — is documented in
``docs/storage.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.cdf import Measurement
from repro.errors import SerializationError

#: payload tag marking a batch frame envelope
BATCH_RECORD = "measurement_batch"

_ESCAPE = str.maketrans({
    "\\": "\\\\",
    ",": "\\,",
    " ": "\\ ",
    "=": "\\=",
})


def _escape(text: str) -> str:
    return str(text).translate(_ESCAPE)


def _split_escaped(text: str, separator: str) -> List[str]:
    """Split on unescaped *separator*, keeping escape sequences intact.

    The grammar nests (space → comma → equals), so splitting must NOT
    consume escapes — only :func:`_unescape` on terminal values does.
    """
    if "\\" not in text:
        # fast path: no escapes present (the overwhelmingly common
        # case — ids with spaces/commas are rare), plain split is
        # an order of magnitude faster than the char walk below
        return text.split(separator)
    parts: List[str] = []
    current: List[str] = []
    escaped = False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == separator:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if escaped:
        raise SerializationError(f"dangling escape in {text!r}")
    parts.append("".join(current))
    return parts


def _unescape(text: str) -> str:
    """Resolve backslash escapes in one terminal value."""
    if "\\" not in text:
        return text
    out: List[str] = []
    escaped = False
    for char in text:
        if escaped:
            out.append(char)
            escaped = False
        elif char == "\\":
            escaped = True
        else:
            out.append(char)
    if escaped:
        raise SerializationError(f"dangling escape in {text!r}")
    return "".join(out)


#: the tags a frame header may carry, as :func:`_tag_values` orders them
_HOISTED = ("entity", "source", "protocol")
_NO_TAGS: Mapping[str, str] = {}


def _tag_values(measurements: Sequence[Measurement]
                ) -> List[Tuple[str, str, Any]]:
    return [(m.entity_id, m.source, m.metadata.get("protocol"))
            for m in measurements]


def _tag_text(values: Sequence[Any], kept: Sequence[int]) -> str:
    """The line text of the tags at *kept*; empty values are left out."""
    return "".join(f",{_HOISTED[i]}={_escape(values[i])}"
                   for i in kept if values[i])


def encode_line(measurement: Measurement,
                tags: Optional[str] = None) -> str:
    """Encode one measurement as a line-protocol line.

    *tags* is the line text of its tags besides ``device`` (what
    :func:`encode_frame` leaves on a frame's lines); None writes all.
    Of the metadata only ``seq`` (a field, part of the idempotency key)
    and ``protocol`` (a tag) travel; the rest stays proxy-local.
    """
    if tags is None:
        tags = _tag_text(_tag_values([measurement])[0], (0, 1, 2))
    seq = measurement.metadata.get("seq")
    fields = f"value={float(measurement.value)!r}" if seq is None else \
        f"value={float(measurement.value)!r},seq={int(seq)}"
    return (f"{_escape(measurement.quantity)},"
            f"device={_escape(measurement.device_id)}{tags} "
            f"{fields} {float(measurement.timestamp)!r}")


def decode_line(line: str, header: Mapping[str, str] = _NO_TAGS
                ) -> Measurement:
    """Decode one line-protocol line back into a :class:`Measurement`.

    Its tags start from *header*, the ``tags`` of the frame it came in;
    a tag the line carries itself wins.
    """
    if not isinstance(line, str) or not line.strip():
        raise SerializationError(f"empty line-protocol line {line!r}")
    sections = _split_escaped(line.strip(), " ")
    if len(sections) != 3:
        raise SerializationError(
            f"line-protocol line needs 3 space-separated sections, "
            f"got {len(sections)}: {line!r}"
        )
    head, field_text, stamp_text = sections
    head_parts = _split_escaped(head, ",")
    quantity = _unescape(head_parts[0])
    tags = dict(header)
    for part in head_parts[1:]:
        pieces = _split_escaped(part, "=")
        if len(pieces) != 2:
            raise SerializationError(f"malformed tag {part!r} in {line!r}")
        tags[pieces[0]] = _unescape(pieces[1])
    fields: Dict[str, str] = {}
    for part in _split_escaped(field_text, ","):
        key, _, value = part.partition("=")
        fields[key] = value
    if "device" not in tags or "entity" not in tags:
        raise SerializationError(f"line missing device/entity tag: {line!r}")
    if "value" not in fields:
        raise SerializationError(f"line missing value field: {line!r}")
    try:
        value = float(fields["value"])
        timestamp = float(stamp_text)
    except ValueError as exc:
        raise SerializationError(f"bad numeric in line {line!r}") from exc
    metadata: Dict[str, Any] = {}
    if "protocol" in tags:
        metadata["protocol"] = tags["protocol"]
    if "seq" in fields:
        try:
            metadata["seq"] = int(fields["seq"])
        except ValueError as exc:
            raise SerializationError(f"bad seq in line {line!r}") from exc
    return Measurement(
        device_id=tags["device"],
        entity_id=tags["entity"],
        quantity=quantity,
        value=value,
        timestamp=timestamp,
        source=tags.get("source", ""),
        metadata=metadata,
    )


def _encode_frame(measurements: Sequence[Measurement]) -> Dict[str, Any]:
    rows = _tag_values(measurements)
    first = rows[0] if rows else (None, None, None)
    # the usual frame — one Device-proxy, one entity — hoists every tag
    # and needs no per-column look
    kept: Sequence[int] = () if rows.count(first) == len(rows) else \
        [i for i in range(len(_HOISTED)) if len({row[i] for row in rows}) > 1]
    lines = [encode_line(m, _tag_text(row, kept) if kept else "")
             for m, row in zip(measurements, rows)]
    header = {name: value for i, (name, value)
              in enumerate(zip(_HOISTED, first)) if value and i not in kept}
    return {"record": BATCH_RECORD, "count": len(lines), "tags": header,
            "lines": lines}


def encode_frame(measurements: Sequence[Measurement], *,
                 tracer: Any = None, host: str = "") -> Dict[str, Any]:
    """Encode measurements as one batch-frame pub/sub payload.

    When *tracer* is given the per-line encode loop runs inside a
    ``producer``-kind span tagged with the sample count, so a trace of
    the batch pipeline shows serialization cost separately from
    transport time.  The kind string is a literal on purpose:
    this module sits below :mod:`repro.observability` and must not
    import from it.
    """
    if tracer is None:
        return _encode_frame(measurements)
    with tracer.span("lineproto.encode_frame", kind="producer", host=host,
                     attributes={"samples": len(measurements)}):
        return _encode_frame(measurements)


def decode_frame(payload: Any, *,
                 tracer: Any = None, host: str = "") -> List[Measurement]:
    """Decode a batch-frame payload into its measurements.

    Raises :class:`~repro.errors.SerializationError` on any malformed
    frame or line — the caller turns that into a poison nack so a bad
    frame dead-letters instead of wedging ingestion.

    When *tracer* is given the per-line decode loop runs inside a
    ``consumer``-kind span; a malformed frame finishes the span with an
    error status before the exception propagates.
    """
    if not isinstance(payload, dict) or \
            payload.get("record") != BATCH_RECORD:
        raise SerializationError("payload is not a measurement batch")
    lines = payload.get("lines")
    if not isinstance(lines, list):
        raise SerializationError("batch frame has no line list")
    declared = payload.get("count")
    if declared is not None and declared != len(lines):
        raise SerializationError(
            f"batch frame count {declared!r} != {len(lines)} lines"
        )
    header = payload.get("tags", _NO_TAGS)
    if not isinstance(header, dict) or \
            not set(map(type, header.values())) <= {str}:
        raise SerializationError(f"bad batch frame header {header!r}")
    if tracer is None:
        return [decode_line(line, header) for line in lines]
    with tracer.span("lineproto.decode_frame", kind="consumer", host=host,
                     attributes={"samples": len(lines)}):
        return [decode_line(line, header) for line in lines]


def is_batch(payload: Any) -> bool:
    """True when a pub/sub payload is a batch frame envelope."""
    return isinstance(payload, dict) and \
        payload.get("record") == BATCH_RECORD
