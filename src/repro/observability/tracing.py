"""Distributed tracing on the simulated clock.

A request that integrates a whole district crosses many hops — client →
master (resolve), client → each proxy (fetch), device-proxy → broker →
measurement DB (pub/sub) — and the end-to-end latency the benchmarks
report says nothing about *where* that time goes.  This module provides
the trace substrate: a :class:`Tracer` that records per-hop
:class:`Span` objects timestamped on the **simulated** clock, and the
wire context that links them across hosts — the JSON list
``[trace_id, span_id]`` of the sending span.

Design constraints, in order:

* **Zero overhead when off.**  No tracer is installed by default
  (``network.tracer is None``); every instrumentation site is a single
  attribute load + ``None`` check, so seed behaviour and determinism
  are preserved bit-for-bit.  :func:`repro.observability.uninstall` is
  the off switch.
* **Deterministic ids.**  Trace and span ids come from counters, not
  randomness, so traces are reproducible for a fixed seed like
  everything else in the simulation.
* **Explicit propagation.**  The DES interleaves events from every
  host in one thread, so an ambient thread-local context would leak
  across hosts.  Context crosses process boundaries only inside
  message payloads (``payload["trace"]``), exactly like W3C
  ``traceparent`` headers, and is read back by :func:`decode_header`;
  within one synchronous activation the tracer holds one active span
  (:attr:`Tracer.active`), which :meth:`Tracer.span` and the
  receiving sites save and restore.

Traces export as JSON-able trees (:meth:`Tracer.export`) and render as
an ASCII waterfall for terminals (:func:`render_waterfall`).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

#: span kinds, following the OpenTelemetry vocabulary where it fits
CLIENT = "client"
SERVER = "server"
PRODUCER = "producer"
CONSUMER = "consumer"
INTERNAL = "internal"


#: spans a tracer stores; past it, spans are counted in
#: ``spans_dropped`` instead (a memory guard for long traced runs)
MAX_SPANS = 1_000_000


def decode_header(header: Any) -> Optional[Sequence[int]]:
    """The ``[trace_id, span_id]`` a traced message carries, or None.

    An absent or garbled header means the hop is untraced.  The header
    is a list, not a tuple, so that one that went through a JSON WAL
    and back is equal to the live one.  One is decoded per traced hop,
    so the type test is a class read, not an ``isinstance`` call.
    """
    if header.__class__ is list and len(header) == 2 \
            and header[0] and header[1]:
        return header
    return None


@dataclass(frozen=True)
class SpanEvent:
    """A timestamped structured event attached to a span (or loose)."""

    name: str
    time: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "time": self.time,
                "attributes": dict(self.attributes)}


class Span:
    """One timed operation on one host, part of a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind",
                 "host", "start", "end", "status", "attributes", "events")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, kind: str,
                 host: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.host = host
        self.start = start
        self.end: Optional[float] = None  # None while the span is open
        self.status = "ok"
        # callers hand over fresh dicts, so adopt rather than copy —
        # span construction is on the traced-request hot path
        self.attributes: Dict[str, Any] = \
            attributes if attributes is not None else {}
        #: None until the first event lands (most spans never get one)
        self.events: Optional[List[SpanEvent]] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def event(self, name: str, time: float, **attributes: Any) -> None:
        """Attach a structured event to this span."""
        if self.events is None:
            self.events = []
        self.events.append(SpanEvent(name=name, time=time,
                                     attributes=attributes))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able flat encoding of this span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "host": self.host,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events or ()],
        }

    def __repr__(self) -> str:  # debugging aid, not part of the wire
        return (f"Span({self.name!r} kind={self.kind} host={self.host} "
                f"{self.start:.6f}..{self.end if self.end is not None else '?'}"
                f" trace={self.trace_id} id={self.span_id}"
                f" parent={self.parent_id})")


class Tracer:
    """Collects spans timestamped on one scheduler's simulated clock.

    The tracer holds one *active* span: the innermost span of the code
    currently executing.  Synchronous client code sets it with the
    :meth:`span` context manager; server-side dispatch and pub/sub
    delivery set it around their handler and restore the previous one.
    New spans default their parent to the active span, so nesting falls
    out of ordinary control flow; asynchronous hops pass the decoded
    wire context instead.
    """

    def __init__(self, scheduler):
        self.scheduler = scheduler
        # timestamping is 2 reads per span; going through the
        # scheduler.now -> clock.now property chain would double the
        # cost of the cheapest spans, so read the clock attribute
        self._clock = scheduler.clock
        #: the innermost span of the code running now, or None
        self.active: Optional[Span] = None
        #: spans recorded beyond MAX_SPANS are counted here, not stored
        self.spans_dropped = 0
        #: events emitted with no active span (e.g. a lease eviction
        #: from the master's periodic sweeper)
        self.loose_events: List[SpanEvent] = []
        self._spans: List[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- span lifecycle ----------------------------------------------------

    def start_span(self, name: str, kind: str = INTERNAL, host: str = "",
                   parent: Union[Span, Sequence[int], None] = None,
                   start: Optional[float] = None,
                   attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; *parent* defaults to the active span.

        Passing an explicit parent (a :class:`Span` or a decoded
        ``[trace_id, span_id]``) links across asynchronous boundaries;
        with no parent and no active span, the span roots a new trace.

        Inheritance from the active span is gated on *host*: the
        DES runs every host's callbacks in one thread, so while a
        client's root span is active the scheduler may execute
        unrelated work on other hosts (device sampling, heartbeats).
        Those spans must root their own traces, not leak into the
        client's — cross-host linking is explicit-context only.
        """
        if parent is None:
            active = self.active
            if active is not None and (not host or not active.host
                                       or active.host == host):
                parent = active
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        elif parent.__class__ is Span:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:  # a decoded wire context
            trace_id, parent_id = parent
        span = Span(
            trace_id, next(self._span_ids), parent_id, name, kind, host,
            self._clock._now if start is None else start, attributes,
        )
        if len(self._spans) >= MAX_SPANS:
            self.spans_dropped += 1
        else:
            self._spans.append(span)
        return span

    def finish(self, span: Span, status: Optional[str] = None,
               end: Optional[float] = None) -> Span:
        """Close *span* at *end* (default: now)."""
        if span.end is None:
            span.end = self._clock._now if end is None else end
        if status is not None:
            span.status = status
        return span

    @contextmanager
    def span(self, name: str, kind: str = INTERNAL, host: str = "",
             parent: Union[Span, Sequence[int], None] = None,
             attributes: Optional[Dict[str, Any]] = None):
        """Start a span, make it active for the block, finish on exit."""
        opened = self.start_span(name, kind=kind, host=host, parent=parent,
                                 attributes=attributes)
        previous = self.active
        self.active = opened
        try:
            yield opened
        except BaseException:
            opened.status = "error"
            raise
        finally:
            self.active = previous
            self.finish(opened)

    def event(self, name: str, host: str = "", **attributes: Any) -> None:
        """Record a structured event on the active span (or loose).

        *host* gates attachment like :meth:`start_span`'s parent
        inheritance: an event from one host never lands on another
        host's active span — it becomes a loose event instead.
        """
        now = self._clock._now
        span = self.active
        if span is not None and (not host or not span.host
                                 or span.host == host):
            span.event(name, now, **attributes)
        else:
            self.loose_events.append(
                SpanEvent(name=name, time=now, attributes=attributes)
            )

    # -- queries -----------------------------------------------------------

    def spans(self, trace_id: Optional[int] = None,
              name: Optional[str] = None) -> List[Span]:
        """Recorded spans, optionally filtered by trace and/or name."""
        result = self._spans
        if trace_id is not None:
            result = [s for s in result if s.trace_id == trace_id]
        if name is not None:
            result = [s for s in result if s.name == name]
        return list(result)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of *span*, in start order."""
        kids = [s for s in self._spans
                if s.trace_id == span.trace_id
                and s.parent_id == span.span_id]
        kids.sort(key=lambda s: s.start)
        return kids

    def roots(self, trace_id: int) -> List[Span]:
        """Spans of one trace whose parent is absent (usually one)."""
        ids = {s.span_id for s in self._spans if s.trace_id == trace_id}
        return [s for s in self._spans if s.trace_id == trace_id
                and (s.parent_id is None or s.parent_id not in ids)]

    def events(self, name: Optional[str] = None) -> List[SpanEvent]:
        """Every structured event — span-attached and loose — by time."""
        collected = list(self.loose_events)
        for span in self._spans:
            if span.events:
                collected.extend(span.events)
        if name is not None:
            collected = [e for e in collected if e.name == name]
        collected.sort(key=lambda e: e.time)
        return collected

    def clear(self) -> None:
        """Drop every recorded span and event (open spans survive)."""
        self._spans = [s for s in self._spans if not s.finished]
        self.loose_events.clear()
        self.spans_dropped = 0

    # -- export ------------------------------------------------------------

    def export(self, trace_id: int) -> Dict[str, Any]:
        """One trace as a JSON-able tree of spans."""

        def node(span: Span) -> Dict[str, Any]:
            encoded = span.to_dict()
            encoded["children"] = [node(child)
                                   for child in self.children_of(span)]
            return encoded

        return {
            "trace_id": trace_id,
            "spans": [node(root) for root in self.roots(trace_id)],
        }


def render_waterfall(tracer: Tracer, trace_id: int, width: int = 48,
                     max_spans: int = 60) -> str:
    """ASCII flame/waterfall of one trace for terminal output.

    Each line is one span: indentation shows parentage, the bar shows
    where the span sits inside the trace's [first-start, last-end]
    window, and the right column prints start offset and duration in
    milliseconds of simulated time.
    """
    roots = tracer.roots(trace_id)
    if not roots:
        return f"trace {trace_id}: no spans"
    spans = tracer.spans(trace_id)
    t0 = min(s.start for s in spans)
    t1 = max(s.end if s.end is not None else s.start for s in spans)
    total = max(t1 - t0, 1e-12)

    lines = [f"trace {trace_id} — {total * 1e3:.3f} ms, "
             f"{len(spans)} spans"]
    emitted = [0]

    def bar(span: Span) -> str:
        left = int(round((span.start - t0) / total * width))
        right = int(round(((span.end if span.end is not None else t1) - t0)
                          / total * width))
        left = min(left, width - 1)
        fill = max(right - left, 1)
        return " " * left + "#" * fill + " " * (width - left - fill)

    def walk(span: Span, depth: int) -> None:
        if emitted[0] >= max_spans:
            return
        emitted[0] += 1
        label = "  " * depth + f"{span.name} ({span.kind}@{span.host})"
        lines.append(
            f"{label:<44.44s} |{bar(span)}| "
            f"+{(span.start - t0) * 1e3:8.3f}ms "
            f"{span.duration * 1e3:8.3f}ms"
        )
        for child in tracer.children_of(span):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.start):
        walk(root, 0)
    if emitted[0] >= max_spans and len(spans) > max_spans:
        lines.append(f"... {len(spans) - max_spans} more spans elided")
    return "\n".join(lines)


def emit(network, name: str, host: str = "", **attributes: Any) -> None:
    """Emit a structured trace event if *network* has a tracer.

    The one-line guard used by instrumentation sites that only report
    events (resilience state changes) and never open spans themselves.
    Pass the emitting component's *host* so the event only attaches to
    an active span of the same host.
    """
    tracer = getattr(network, "tracer", None)
    if tracer is not None:
        tracer.event(name, host=host, **attributes)
