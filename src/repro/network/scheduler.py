"""Discrete-event scheduler driving all simulated activity.

Every asynchronous thing in the framework — network message delivery,
device sampling, periodic publication, query workloads — is an event on
one shared :class:`Scheduler`.  Events execute in (time, insertion)
order, so runs are fully deterministic for a fixed seed.

Hot-loop design:

* Heap entries are plain ``(time, seq, event)`` tuples, so ``heapq``
  orders them with C tuple comparison — the dataclass-generated Python
  ``__lt__`` the seed paid per sift step is gone.  ``seq`` is unique,
  so the comparison never reaches the :class:`_Event` payload.
* :class:`_Event` is a ``__slots__`` record (callback, args, two flag
  bits) — cheap to allocate, no per-instance ``__dict__``.
* Cancelled events are *tombstones*: :meth:`EventHandle.cancel` only
  flags them, but the scheduler counts live tombstones and compacts the
  heap (filter + ``heapify``) when they exceed both
  :attr:`Scheduler.compact_threshold` and half the queue — so the
  re-arm/cancel patterns upstack (broker delivery-ack timers,
  device-proxy batch age timers) can no longer grow the heap without
  bound, and :attr:`Scheduler.pending` reports **live** events only.
* One loop, :meth:`Scheduler._dispatch`, fires every event: it peeks
  the head, pops tombstones, stops past a deadline and fires at most a
  budget of events — one heap pop per event.  :meth:`~Scheduler.step`,
  :meth:`~Scheduler.run_until` and :meth:`~Scheduler.run_until_idle`
  are that loop with a deadline and a budget, and an attached profiler
  is one ``None`` test inside it.

The seed's peek-then-step loop lives on as ``ReferenceScheduler`` in
``tests/reference_loop.py``; the determinism twin tests run the same
workload on both loops and assert byte-identical behaviour.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.common.simtime import SimClock
from repro.errors import ConfigurationError


class _Event:
    """One scheduled callback; ordering lives in the heap tuple.

    The event *is* its own cancellation handle (``EventHandle`` is an
    alias) — one allocation per schedule, not two.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "queued",
                 "scheduler")

    def __init__(self, time: float, callback: Callable, args: Tuple,
                 scheduler: "Scheduler"):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: still sitting in the heap (popped events are not tombstones)
        self.queued = True
        self.scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if not self.cancelled:
            self.cancelled = True
            if self.queued:
                self.scheduler._note_tombstone()


#: public name for the cancellation handle :meth:`Scheduler.schedule`
#: returns
EventHandle = _Event


class PeriodicTask:
    """A repeating event; cancel it via :meth:`stop`.

    A callback that raises no longer kills the task silently: the
    error is counted (:attr:`errors`, and
    :attr:`Scheduler.periodic_task_errors` fleet-wide), reported
    through :attr:`Scheduler.on_periodic_error` (the network layer
    forwards it as a ``periodic_task_error`` trace event) and the task
    re-arms in a ``finally`` — one bad sample cannot permanently stop
    heartbeats, compaction sweeps or metric scrapes.
    """

    def __init__(self, scheduler: "Scheduler", period: float,
                 callback: Callable, args: Tuple):
        if period <= 0:
            raise ConfigurationError("periodic task period must be positive")
        self._scheduler = scheduler
        self._period = period
        self._callback = callback
        self._args = args
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        #: callback exceptions absorbed by this task
        self.errors = 0

    def start(self, initial_delay: float = 0.0) -> "PeriodicTask":
        """Arm the task; first firing after *initial_delay* seconds."""
        self._handle = self._scheduler.schedule(
            initial_delay, self._fire
        )
        return self

    def _fire(self) -> None:
        if self._stopped:
            return
        scheduler = self._scheduler
        try:
            self._callback(*self._args)
        except Exception as exc:
            self.errors += 1
            scheduler.periodic_task_errors += 1
            hook = scheduler.on_periodic_error
            if hook is not None:
                hook(self, exc)
        finally:
            if not self._stopped:
                self._handle = scheduler.schedule(self._period, self._fire)

    def stop(self) -> None:
        """Stop future firings; an in-flight firing still completes."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


class Scheduler:
    """Priority-queue discrete-event scheduler over a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        #: heap of (time, seq, _Event) — tuple comparison never reaches
        #: the event because seq is unique
        self._queue: List[Tuple[float, int, _Event]] = []
        self._counter = itertools.count()
        self._events_processed = 0
        #: cancelled events still occupying heap slots
        self._tombstones = 0
        #: tombstones tolerated before a compaction is considered
        self.compact_threshold = 512
        #: heap rebuilds performed to evict tombstones
        self.compactions = 0
        #: periodic-task callback exceptions absorbed fleet-wide
        self.periodic_task_errors = 0
        #: optional ``f(task, exc)`` hook fired on each absorbed periodic
        #: error; the Network wires it to a ``periodic_task_error``
        #: trace event
        self.on_periodic_error: Optional[Callable] = None
        #: hot-loop profiler attachment point (None = disabled, the
        #: default): a repro.observability.profiler.SimProfiler set by
        #: install_profiler().  The dispatch loop pays one None check
        #: per event when off — the entire disabled-mode cost.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of **live** events still queued.

        Cancelled-but-unfired tombstones are excluded — the seed
        overcounted them until their due time.
        """
        return len(self._queue) - self._tombstones

    def schedule(self, delay: float, callback: Callable, *args: Any
                 ) -> EventHandle:
        """Schedule *callback(*args)* after *delay* simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past ({delay})")
        time = self.clock._now + delay
        event = _Event(time, callback, args, self)
        heapq.heappush(self._queue, (time, next(self._counter), event))
        return event

    def schedule_at(self, time: float, callback: Callable, *args: Any
                    ) -> EventHandle:
        """Schedule *callback(*args)* at absolute simulated time *time*."""
        if time < self.clock._now:
            raise ConfigurationError(
                f"cannot schedule in the past ({time} < {self.clock._now})"
            )
        event = _Event(time, callback, args, self)
        heapq.heappush(self._queue, (time, next(self._counter), event))
        return event

    def every(self, period: float, callback: Callable, *args: Any,
              initial_delay: Optional[float] = None) -> PeriodicTask:
        """Create and start a periodic task firing every *period* seconds."""
        task = PeriodicTask(self, period, callback, args)
        first = period if initial_delay is None else initial_delay
        return task.start(first)

    # -- tombstone compaction ----------------------------------------------

    def _note_tombstone(self) -> None:
        """Account one cancelled-in-queue event; compact past threshold."""
        self._tombstones += 1
        if (self._tombstones > self.compact_threshold
                and self._tombstones * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (O(live) heapify).

        In place — the dispatch loop holds a local alias to the queue
        list across callbacks, so the list object must stay the same.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._tombstones = 0
        self.compactions += 1

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, until: float, budget: float) -> int:
        """The one dispatch loop: fire at most *budget* events due at or
        before *until*, in order; returns how many fired.

        Peeks the head, pops tombstones, stops at the first live event
        past *until*.  With a profiler attached each event runs in a
        profiler frame that opens where the previous one closed (the
        loop's start, for the first), so heap pops and skips are charged
        to the event they precede; a top-level loop adds its whole wall
        time to ``loop_wall``, the attribution denominator.  A nested
        loop (a synchronous client driving the scheduler from inside a
        handler) runs inside an open frame and adds nothing to it.
        """
        queue = self._queue
        clock = self.clock
        pop = heapq.heappop
        profiler = self.profiler
        if profiler is not None:
            top_level = not profiler.in_frame
            start = loop_start = profiler._time()
        fired = 0
        try:
            while queue and fired < budget:
                head = queue[0]
                event = head[2]
                if event.cancelled:
                    pop(queue)
                    self._tombstones -= 1
                    continue
                due = head[0]
                if due > until:
                    break
                pop(queue)
                event.queued = False
                fired += 1
                self._events_processed += 1
                if profiler is None:
                    clock.advance_to(due)
                    event.callback(*event.args)
                    continue
                previous = clock._now
                clock.advance_to(due)
                frame = profiler.enter_event(event.callback, due - previous,
                                             start=start)
                try:
                    event.callback(*event.args)
                finally:
                    profiler.exit(frame)
                start = profiler._time()
        finally:
            if profiler is not None and top_level:
                profiler.loop_wall += profiler._time() - loop_start
        return fired

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue empty."""
        return self._dispatch(math.inf, 1) == 1

    def run_until(self, time: float) -> None:
        """Run all events due at or before *time*, then advance to it."""
        self._dispatch(time, math.inf)
        if time > self.clock._now:
            self.clock.advance_to(time)

    def run_for(self, duration: float) -> None:
        """Run the simulation forward by *duration* seconds."""
        self.run_until(self.clock._now + duration)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue; returns the number of events executed.

        Guards against runaway periodic tasks via *max_events*: raises
        only when that many events ran and live ones are still queued.
        """
        executed = self._dispatch(math.inf, max_events)
        if executed >= max_events and self.pending:
            raise ConfigurationError(
                "run_until_idle exceeded max_events; "
                "is a periodic task still running?"
            )
        return executed
