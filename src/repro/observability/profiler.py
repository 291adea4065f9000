"""Wall-clock profiler for the DES hot loop.

Every scale goal on the roadmap is gated on wall-clock per simulated
message, and the benchmarks only ever said how *much* wall a run cost —
never *where* it went.  :class:`SimProfiler` answers that: it hooks the
four layers every simulated message crosses —

* ``Scheduler._dispatch`` event dispatch (the outermost loop),
* ``Network._deliver`` message delivery,
* ``Router.dispatch`` web-service handler invocation,
* ``Broker._on_message`` / ``MiddlewarePeer._on_message`` frame handling

— and attributes wall-clock to ``(node, message-kind, handler)``
buckets with call counts, self/cumulative time and the simulated-vs-wall
ratio of the run.  Frames nest (an event contains a delivery contains a
broker verb), so *self* time is a frame's elapsed wall minus its
children's — the number the next optimisation PR sorts by.

Design constraints, in the tracer's tradition (``tracing.py``):

* **Zero overhead when off.**  ``network.profiler`` and
  ``scheduler.profiler`` are ``None`` by default and every hook is one
  attribute load + ``None`` check (verified by the guard-cost
  microbenchmark in ``tests/test_profiler.py``).
* **Low overhead when on.**  Hot-path state lives in ``__slots__``
  classes; keys are small string tuples; per-instance reply ports are
  collapsed by :func:`port_family` so bucket cardinality stays bounded.
* **Pure observation.**  The profiler never schedules events or touches
  payloads, so a profiled run is message-for-message identical to an
  unprofiled twin (asserted by the O3 soak benchmark).

Activation: ``ScenarioConfig(profile=True)`` or
:func:`install_profiler` directly.  Results
render as a top-N self-time table (:func:`render_profile_table`), an
ASCII flame-style attribution tree (:func:`render_profile_tree`), or
export as JSON (:func:`export_profile`) — all reachable from the
``repro profile`` CLI.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

BucketKey = Tuple[str, str, str]

_DIGITS = "0123456789"


def port_family(port: str) -> str:
    """Collapse per-instance numbered ports into one bucket name.

    A middleware peer's port carries a peer-unique suffix
    (``pubsub-peer-17``); keying buckets on the raw port would grow one
    bucket per peer.  Stripping the numeric tail maps them all onto
    ``pubsub-peer`` while leaving unnumbered ports (``http``,
    ``http-reply``, ``pubsub``) untouched.
    """
    stripped = port.rstrip(_DIGITS)
    if stripped is not port and stripped.endswith("-"):
        stripped = stripped[:-1]
    return stripped or port


class ProfileBucket:
    """Aggregate wall-clock cost of one (node, kind, handler) bucket."""

    __slots__ = ("node", "kind", "handler", "calls", "cum", "self_time")

    def __init__(self, node: str, kind: str, handler: str):
        self.node = node
        self.kind = kind
        self.handler = handler
        self.calls = 0
        self.cum = 0.0
        self.self_time = 0.0

    @property
    def key(self) -> BucketKey:
        return (self.node, self.kind, self.handler)

    @property
    def label(self) -> str:
        return f"{self.node} · {self.kind} · {self.handler}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "kind": self.kind,
            "handler": self.handler,
            "calls": self.calls,
            "cum_seconds": self.cum,
            "self_seconds": self.self_time,
        }


class _Frame:
    """One open profiled activation (cheap: made once per hook entry)."""

    __slots__ = ("key", "start", "child")

    def __init__(self, key: BucketKey, start: float):
        self.key = key
        self.start = start
        self.child = 0.0


class _TreeNode:
    """Aggregated call-tree node: one bucket under one parent path."""

    __slots__ = ("key", "calls", "cum", "self_time", "children")

    def __init__(self, key: BucketKey):
        self.key = key
        self.calls = 0
        self.cum = 0.0
        self.self_time = 0.0
        self.children: Dict[BucketKey, "_TreeNode"] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.key[0],
            "kind": self.key[1],
            "handler": self.key[2],
            "calls": self.calls,
            "cum_seconds": self.cum,
            "self_seconds": self.self_time,
            "children": [child.to_dict() for child in
                         sorted(self.children.values(),
                                key=lambda n: -n.cum)],
        }


class SimProfiler:
    """Attributes DES hot-loop wall time to (node, kind, handler) buckets.

    The profiler keeps an activation stack mirroring the call nesting of
    the instrumented layers.  :meth:`enter` opens a frame, :meth:`exit`
    charges the bucket and the aggregated call tree.
    ``Scheduler._dispatch`` additionally accounts the *whole* top-level
    loop (heap pops included) into :attr:`loop_wall`, so
    ``attributed / loop_wall`` — :attr:`attribution` — measures how much
    of the hot loop the named buckets explain.  :func:`uninstall_profiler`
    is the off switch.

    *time_fn* defaults to :func:`time.perf_counter`; tests inject a fake
    clock for deterministic renderer goldens.
    """

    def __init__(self, scheduler, time_fn: Callable[[], float] = time.perf_counter):
        self.scheduler = scheduler
        self._time = time_fn
        #: wall seconds spent inside top-level dispatch loops (dispatch +
        #: heap maintenance); the attribution denominator
        self.loop_wall = 0.0
        #: wall seconds inside top-level profiled frames; the numerator
        self.attributed_wall = 0.0
        #: simulated seconds advanced while profiling
        self.sim_seconds = 0.0
        #: events dispatched while profiling
        self.events = 0
        self._buckets: Dict[BucketKey, ProfileBucket] = {}
        self._stack: List[_Frame] = []
        self._root = _TreeNode(("", "", "run"))
        self._tree_stack: List[_TreeNode] = [self._root]

    # -- hot path ----------------------------------------------------------

    def enter(self, node: str, kind: str, handler: str,
              start: Optional[float] = None) -> _Frame:
        """Open a profiled frame.

        *start* backdates the frame (the scheduler passes the stamp where
        the previous event's frame closed, so heap maintenance and key
        derivation count as part of the event they served, keeping
        attribution honest and high).
        """
        key = (node, kind, handler)
        parent = self._tree_stack[-1]
        tree_node = parent.children.get(key)
        if tree_node is None:
            tree_node = _TreeNode(key)
            parent.children[key] = tree_node
        self._tree_stack.append(tree_node)
        frame = _Frame(key, self._time() if start is None else start)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        """Close a frame from :meth:`enter`."""
        elapsed = self._time() - frame.start
        self_time = elapsed - frame.child
        key = frame.key
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = ProfileBucket(*key)
            self._buckets[key] = bucket
        bucket.calls += 1
        bucket.cum += elapsed
        bucket.self_time += self_time
        tree_node = self._tree_stack.pop()
        tree_node.calls += 1
        tree_node.cum += elapsed
        tree_node.self_time += self_time
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1].child += elapsed
        else:
            self.attributed_wall += elapsed

    def enter_event(self, callback: Callable, sim_delta: float,
                    start: Optional[float] = None) -> _Frame:
        """Open the frame for one scheduler event dispatch.

        The bucket is derived from the callback: its owner's host (or
        name, or type) becomes the node, its qualname the handler.  The
        finer-grained layers (delivery, broker verbs, routed handlers)
        nest their own frames underneath, so a generic event frame's
        *self* time is pure dispatch overhead.
        """
        self.events += 1
        self.sim_seconds += sim_delta
        handler = getattr(callback, "__qualname__", None) or repr(callback)
        owner = getattr(callback, "__self__", None)
        if handler == "PeriodicTask._fire" and owner is not None:
            # attribute periodic work to the wrapped callback, not the
            # timer plumbing — "firmware sampling", not "PeriodicTask"
            inner = getattr(owner, "_callback", None)
            if inner is not None:
                callback = inner
                handler = getattr(callback, "__qualname__", None) \
                    or repr(callback)
                owner = getattr(callback, "__self__", None)
        node = ""
        if owner is not None:
            host = getattr(owner, "host", None)
            if host is not None:
                node = getattr(host, "name", "") or ""
            if not node:
                name = getattr(owner, "name", None)
                node = name if isinstance(name, str) and name \
                    else type(owner).__name__
        else:
            node = getattr(callback, "__module__", "") or "scheduler"
        return self.enter(node, "event", handler, start=start)

    def enter_delivery(self, recipient: str, port: str) -> _Frame:
        """Open the frame for one transport delivery.

        Owns the :func:`port_family` collapse so the transport layer
        needs no import of this module (it would be circular).
        """
        return self.enter(recipient, "deliver", port_family(port))

    @property
    def in_frame(self) -> bool:
        """Whether a profiled frame is open (a nested dispatch loop)."""
        return bool(self._stack)

    # -- results -----------------------------------------------------------

    @property
    def attribution(self) -> float:
        """Fraction of hot-loop wall explained by named buckets."""
        if self.loop_wall <= 0.0:
            return 1.0
        return min(self.attributed_wall / self.loop_wall, 1.0)

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall second of hot loop (the speedup)."""
        if self.loop_wall <= 0.0:
            return 0.0
        return self.sim_seconds / self.loop_wall

    def buckets(self) -> List[ProfileBucket]:
        """All buckets, largest self time first."""
        return sorted(self._buckets.values(), key=lambda b: -b.self_time)

    @property
    def tree(self) -> _TreeNode:
        """Root of the aggregated call tree (the synthetic ``run`` node)."""
        return self._root

    def reset(self) -> None:
        """Drop recorded data (open frames survive; counters restart)."""
        self.loop_wall = 0.0
        self.attributed_wall = 0.0
        self.sim_seconds = 0.0
        self.events = 0
        self._buckets.clear()
        self._root = _TreeNode(("", "", "run"))
        self._tree_stack = [self._root] + \
            [_TreeNode(frame.key) for frame in self._stack]


def install_profiler(network, time_fn: Callable[[], float] = time.perf_counter
                     ) -> SimProfiler:
    """Attach a :class:`SimProfiler` to *network* (idempotent).

    Sets both attachment points — ``network.profiler`` for the delivery
    and handler layers, ``scheduler.profiler`` for event dispatch — so
    one install covers the whole hot loop.
    """
    if getattr(network, "profiler", None) is None:
        profiler = SimProfiler(network.scheduler, time_fn=time_fn)
        network.profiler = profiler
        network.scheduler.profiler = profiler
    return network.profiler


def uninstall_profiler(network) -> None:
    """Detach the profiler; every hook reverts to the one None check."""
    network.profiler = None
    network.scheduler.profiler = None


# -- rendering ---------------------------------------------------------------


def _totals_line(profiler: SimProfiler) -> str:
    events_per_sec = profiler.events / profiler.loop_wall \
        if profiler.loop_wall > 0 else 0.0
    return (f"hot loop {profiler.loop_wall:.3f}s wall, "
            f"{profiler.attribution * 100:.1f}% attributed, "
            f"{profiler.events} events ({events_per_sec:,.0f}/s), "
            f"sim {profiler.sim_seconds:.1f}s "
            f"(x{profiler.sim_wall_ratio:,.1f} sim/wall)")


def render_profile_table(profiler: SimProfiler, top: int = 20) -> str:
    """Top-N buckets by self time, one line each."""
    lines = [f"sim profiler — {_totals_line(profiler)}",
             f"{'self(s)':>9s} {'cum(s)':>9s} {'calls':>9s} {'self%':>6s}"
             f"  bucket (node · kind · handler)"]
    total = max(profiler.loop_wall, 1e-12)
    buckets = profiler.buckets()
    for bucket in buckets[:top]:
        lines.append(
            f"{bucket.self_time:9.4f} {bucket.cum:9.4f} "
            f"{bucket.calls:9d} {bucket.self_time / total * 100:5.1f}%"
            f"  {bucket.label}"
        )
    if len(buckets) > top:
        rest = sum(b.self_time for b in buckets[top:])
        lines.append(f"{rest:9.4f} {'':>9s} {'':>9s} {'':>6s}"
                     f"  ... {len(buckets) - top} more buckets")
    return "\n".join(lines)


def render_profile_tree(profiler: SimProfiler, width: int = 32,
                        max_lines: int = 60, min_fraction: float = 0.005
                        ) -> str:
    """ASCII flame-style attribution tree.

    Same visual grammar as the trace waterfall
    (:func:`repro.observability.tracing.render_waterfall`): indentation
    is nesting, the bar is the share of total attributed wall, and the
    right columns print cumulative/self milliseconds and calls.
    Subtrees below *min_fraction* of the total are elided.
    """
    root = profiler.tree
    total = max(profiler.attributed_wall, 1e-12)
    lines = [f"sim profiler tree — {_totals_line(profiler)}"]
    emitted = [0]
    elided = [0]

    def bar(cum: float) -> str:
        fill = max(int(round(cum / total * width)), 1)
        fill = min(fill, width)
        return "#" * fill + " " * (width - fill)

    def walk(node: _TreeNode, depth: int) -> None:
        if emitted[0] >= max_lines:
            elided[0] += 1
            return
        if node.cum < total * min_fraction:
            elided[0] += 1
            return
        emitted[0] += 1
        label = "  " * depth + f"{node.key[0]} {node.key[1]} {node.key[2]}"
        lines.append(
            f"{label:<52.52s} |{bar(node.cum)}| "
            f"{node.cum * 1e3:9.2f}ms {node.self_time * 1e3:9.2f}ms "
            f"{node.calls:8d}x"
        )
        for child in sorted(node.children.values(), key=lambda n: -n.cum):
            walk(child, depth + 1)

    for child in sorted(root.children.values(), key=lambda n: -n.cum):
        walk(child, 0)
    if elided[0]:
        lines.append(f"... {elided[0]} subtrees below "
                     f"{min_fraction * 100:.1f}% elided")
    return "\n".join(lines)


def export_profile(profiler: SimProfiler) -> Dict[str, Any]:
    """JSON-able encoding of the whole profile (table + tree + totals)."""
    return {
        "loop_wall_seconds": profiler.loop_wall,
        "attributed_seconds": profiler.attributed_wall,
        "attribution": profiler.attribution,
        "sim_seconds": profiler.sim_seconds,
        "sim_wall_ratio": profiler.sim_wall_ratio,
        "events": profiler.events,
        "buckets": [bucket.to_dict() for bucket in profiler.buckets()],
        "tree": profiler.tree.to_dict(),
    }
