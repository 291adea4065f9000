"""Span tracer for districtbench, installed from outside ``src/``.

The traced run replaces, in this process only, the public entry points
of each layer (class and module attributes) with wrappers that record a
span: name, start, end, parent (the enclosing span) and the operation
id.  Callables handed *to* the system through public calls are wrapped
where they enter — event callbacks at ``Scheduler.schedule`` /
``schedule_at`` / ``every``, port handlers at ``Host.bind``, route
handlers at ``Router.add``, subscription callbacks at
``MiddlewarePeer.subscribe`` — and filed under the layer of the module
that defines their class, so the scheduler's own self time is the loop
and the heap, not everything the loop happens to call.

Spans are kept in flat arrays and aggregated once at the end: a layer's
self time is the duration of its spans minus the part their child spans
cover.  Nothing in ``src/`` knows about any of this.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: the layers of the per-layer table, in report order (a layer is a
#: module, or a small group of modules, under ``src/repro/``)
LAYERS = (
    "scheduler", "transport", "webservice", "broker", "peer", "protocols",
    "device_proxy", "lineproto", "serialization", "database_proxy",
    "master", "client", "measurementdb", "blocks", "durability",
)
#: repro code outside the fifteen layers (observability, simulation)
OTHER = "other"
#: the load generator's own callbacks (subscribers, probes, waves)
BENCH = "bench"

#: module prefix -> layer, first match wins
_MODULE_LAYERS = (
    ("repro.network.scheduler", "scheduler"),
    ("repro.network.transport", "transport"),
    ("repro.network.", "webservice"),
    ("repro.middleware.peer", "peer"),
    ("repro.middleware.", "broker"),
    ("repro.protocols.", "protocols"),
    ("repro.proxies.device_proxy", "device_proxy"),
    ("repro.devices.", "device_proxy"),
    ("repro.common.lineproto", "lineproto"),
    ("repro.common.serialization", "serialization"),
    ("repro.proxies.", "database_proxy"),
    ("repro.datasources.", "database_proxy"),
    ("repro.core.master", "master"),
    ("repro.core.replication", "master"),
    ("repro.ontology.", "master"),
    ("repro.core.", "client"),
    ("repro.storage.measurementdb", "measurementdb"),
    ("repro.storage.blocks", "blocks"),
    ("repro.storage.durability", "durability"),
    ("repro.persistence", "durability"),
)

#: public calls wrapped as plain spans, ``module:attribute path``; the
#: layer follows from the module unless overridden below
ENTRY_POINTS = (
    "repro.network.scheduler:Scheduler.run_until",
    "repro.network.scheduler:Scheduler.step",
    "repro.network.transport:Network.send",
    "repro.network.transport:estimate_size",
    "repro.network.webservice:Router.dispatch",
    "repro.network.webservice:HttpClient.request",
    "repro.middleware.peer:MiddlewarePeer.publish",
    "repro.devices.firmware:RadioLink.uplink",
    "repro.devices.firmware:RadioLink.downlink",
    "repro.proxies.device_proxy:DeviceProxy.actuate",
    "repro.proxies.device_proxy:DeviceProxy.flush_batch",
    "repro.common.lineproto:encode_frame",
    "repro.common.lineproto:decode_frame",
    "repro.proxies.database_proxy:BimProxy.translate",
    "repro.proxies.database_proxy:SimProxy.translate",
    "repro.proxies.database_proxy:GisProxy.translate_feature",
    "repro.core.master:MasterNode.resolve_area",
    "repro.core.master:MasterNode.register",
    "repro.core.client:DistrictClient.resolve",
    "repro.core.client:DistrictClient.fetch_entity_models",
    "repro.core.client:DistrictClient.fetch_device_data",
    "repro.core.integration:integrate",
    "repro.storage.measurementdb:MeasurementDatabase.query_range",
    "repro.storage.measurementdb:MeasurementDatabase.query",
    "repro.storage.measurementdb:MeasurementDatabase.write_snapshot",
    "repro.storage.blocks:BlockStore.insert",
    "repro.storage.blocks:BlockStore.query_range",
    "repro.storage.blocks:BlockStore.compact",
    "repro.storage.durability:WriteAheadLog.append",
)
#: a snapshot is written by the measurement DB but is durability work
_LAYER_OVERRIDES = {
    "repro.storage.measurementdb:MeasurementDatabase.write_snapshot":
        "durability",
}
_ADAPTER_CALLS = ("decode_frame", "encode_command", "encode_readings")

#: spans written to the trace file (the first ones of the window; the
#: aggregates always cover every span)
TRACE_FILE_SPANS = 200_000


def layer_of_module(module: str) -> str:
    """The layer a module's code is filed under."""
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return OTHER if module.startswith("repro") else BENCH


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray
               ) -> np.ndarray:
    """Per-span self time: duration minus the children's durations.

    *parent* holds each span's enclosing span index, -1 for a root.
    Children run strictly inside their parent and never overlap one
    another (one thread), so the subtraction is exact.
    """
    duration = end - start
    own = duration.copy()
    nested = parent >= 0
    np.subtract.at(own, parent[nested], duration[nested])
    return own


class Tracer:
    """Records spans while :attr:`on`; aggregates them per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.on = False
        self.clock = clock
        #: span name id -> (label, layer)
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        #: (class, method name) or code object -> span name id
        self._callable_ids: Dict[object, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._current = -1
        #: operation id spans are filed under; -1 outside any operation
        self.op = -1
        self._next_op = 0
        #: characters through serialization.encode / decode
        self.serialized_bytes = 0

    # -- recording ---------------------------------------------------------

    def name_id(self, label: str, layer: str) -> int:
        """Register (or look up) a span name."""
        key = (label, layer)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span under the current one; returns its index."""
        index = len(self._name)
        self._name.append(nid)
        self._parent.append(self._current)
        self._op.append(self.op)
        self._end.append(0.0)
        self._current = index
        self._start.append(self.clock())
        return index

    def end(self, index: int) -> None:
        """Close the span opened as *index*."""
        self._end[index] = self.clock()
        self._current = self._parent[index]

    @contextmanager
    def operation(self):
        """File everything the block causes under a fresh operation id."""
        saved = self.op
        self.op = self._next_op
        self._next_op += 1
        try:
            yield
        finally:
            self.op = saved

    def traced(self, fn: Callable, nid: Optional[int] = None) -> Callable:
        """Wrap *fn* so each call is one span (a no-op while off)."""
        if nid is None:
            nid = self._identify(fn)
            if nid < 0:
                return fn
        tracer = self

        def call(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        call.traced_as = nid
        return call

    def _identify(self, fn: Callable) -> int:
        """Span name id for an arbitrary callable; -1 if already traced."""
        if hasattr(fn, "traced_as"):
            return -1
        owner = getattr(fn, "__self__", None)
        if owner is None or isinstance(owner, types.ModuleType):
            key = getattr(fn, "__code__", fn)
        else:
            key = (type(owner), getattr(fn, "__name__", "?"))
        nid = self._callable_ids.get(key)
        if nid is None:
            if isinstance(key, tuple):
                label = f"{key[0].__name__}.{key[1]}"
                module = key[0].__module__
            else:
                label = getattr(fn, "__qualname__", type(fn).__name__)
                module = getattr(fn, "__module__", None) or ""
            nid = self._callable_ids[key] = self.name_id(
                label, layer_of_module(module))
        return nid

    # -- wrappers for callables that enter through a public call -----------

    def _run_event(self, op: int, nid: int, callback: Callable,
                   args: tuple) -> None:
        """Run one scheduled callback under the operation that caused it."""
        saved = self.op
        self.op = op
        index = self.begin(nid) if nid >= 0 else -1
        try:
            callback(*args)
        finally:
            if index >= 0:
                self.end(index)
            self.op = saved

    def _scheduling(self, original: Callable, nid: int) -> Callable:
        """Wrapper for ``Scheduler.schedule`` / ``schedule_at``."""
        tracer = self
        run_event = self._run_event

        def schedule(scheduler, when, callback, *args):
            if not tracer.on:
                return original(scheduler, when, callback, *args)
            index = tracer.begin(nid)
            try:
                return original(scheduler, when, run_event, tracer.op,
                                tracer._identify(callback), callback, args)
            finally:
                tracer.end(index)

        return schedule

    def _periodic(self, callback: Callable) -> Callable:
        """Each firing of a periodic task starts a fresh operation."""
        inner = self.traced(callback)
        tracer = self

        def fire(*args):
            if not tracer.on:
                return callback(*args)
            with tracer.operation():
                return inner(*args)

        return fire

    def _sized(self, fn: Callable, nid: int, text_of: Callable) -> Callable:
        """Span plus a count of the characters (de)serialized."""
        inner = self.traced(fn, nid)
        tracer = self

        def call(*args, **kwargs):
            result = inner(*args, **kwargs)
            if tracer.on:
                tracer.serialized_bytes += len(text_of(args, result))
            return result

        return call

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace the layers' public entry points in this process.

        Call after every ``repro`` module the run uses is imported and
        before ``deploy()``: module-level functions are re-pointed in
        each importing module, and handlers are wrapped as they are
        bound.  There is no uninstall — an untraced run is another
        process.
        """
        for target in ENTRY_POINTS:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            layer = _LAYER_OVERRIDES.get(target,
                                         layer_of_module(module_name))
            nid = self.name_id(path, layer)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.traced(getattr(cls, attr), nid))
            else:
                self._replace_function(
                    module, path, self.traced(getattr(module, path), nid))

        from repro import protocols
        from repro.common import serialization
        from repro.middleware.peer import MiddlewarePeer
        from repro.network.scheduler import Scheduler
        from repro.network.transport import Host
        from repro.network.webservice import Router

        for cls in protocols.ProtocolAdapter.__subclasses__():
            for attr in _ADAPTER_CALLS:
                nid = self.name_id(f"{cls.name}.{attr}", "protocols")
                setattr(cls, attr, self.traced(getattr(cls, attr), nid))

        self._replace_function(serialization, "encode", self._sized(
            serialization.encode,
            self.name_id("encode", "serialization"),
            lambda args, result: result))
        self._replace_function(serialization, "decode", self._sized(
            serialization.decode,
            self.name_id("decode", "serialization"),
            lambda args, result: args[0]))

        for attr in ("schedule", "schedule_at"):
            setattr(Scheduler, attr, self._scheduling(
                getattr(Scheduler, attr),
                self.name_id(f"Scheduler.{attr}", "scheduler")))
        tracer = self
        every, bind, add = Scheduler.every, Host.bind, Router.add
        subscribe = self.traced(
            MiddlewarePeer.subscribe,
            self.name_id("MiddlewarePeer.subscribe", "peer"))

        def traced_every(scheduler, period, callback, *args, **kwargs):
            return every(scheduler, period, tracer._periodic(callback),
                         *args, **kwargs)

        def traced_bind(host, port, handler):
            return bind(host, port, tracer.traced(handler))

        def traced_add(router, method, template, handler):
            return add(router, method, template, tracer.traced(handler))

        def traced_subscribe(peer, pattern, callback, *args, **kwargs):
            return subscribe(peer, pattern, tracer.traced(callback),
                             *args, **kwargs)

        Scheduler.every = traced_every
        Host.bind = traced_bind
        Router.add = traced_add
        MiddlewarePeer.subscribe = traced_subscribe

    @staticmethod
    def _replace_function(module, name: str, wrapper: Callable) -> None:
        """Re-point a module-level function everywhere it was imported."""
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") \
                    and getattr(loaded, name, None) is original:
                setattr(loaded, name, wrapper)

    # -- aggregation -------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._name)

    def calls_by_label(self) -> Dict[str, int]:
        """Span count per name label (e.g. ``zigbee.decode_frame``)."""
        counts = np.bincount(np.asarray(self._name, dtype=np.int64),
                             minlength=len(self.names))
        return {label: int(counts[nid])
                for nid, (label, _layer) in enumerate(self.names)}

    def by_layer(self, window_s: float) -> Dict[str, Dict[str, float]]:
        """``calls``, ``self_s`` and ``self_share`` of every layer.

        Includes the :data:`OTHER` and :data:`BENCH` pseudo-layers, so
        the shares of one window sum to at most 1.
        """
        name = np.asarray(self._name, dtype=np.int64)
        own = self_times(np.asarray(self._start), np.asarray(self._end),
                         np.asarray(self._parent, dtype=np.int64))
        size = len(self.names)
        self_by_name = np.bincount(name, weights=own, minlength=size)
        calls_by_name = np.bincount(name, minlength=size)
        table = {layer: {"calls": 0, "self_s": 0.0}
                 for layer in LAYERS + (OTHER, BENCH)}
        for nid, (_label, layer) in enumerate(self.names):
            table[layer]["calls"] += int(calls_by_name[nid])
            table[layer]["self_s"] += float(self_by_name[nid])
        for row in table.values():
            row["self_share"] = row["self_s"] / window_s
        return table

    def to_document(self, **header) -> Dict:
        """The trace file: header, name table, first spans as columns."""
        kept = min(self.span_count, TRACE_FILE_SPANS)
        origin = self._start[0] if kept else 0.0
        return {
            **header,
            "spans_total": self.span_count,
            "spans_written": kept,
            "names": [{"label": label, "layer": layer}
                      for label, layer in self.names],
            "spans": {
                "name": self._name[:kept].tolist(),
                "start_s": [round(t - origin, 7)
                            for t in self._start[:kept]],
                "end_s": [round(t - origin, 7) for t in self._end[:kept]],
                "parent": self._parent[:kept].tolist(),
                "op": self._op[:kept].tolist(),
            },
        }
