"""The seed-shape scheduler loop, kept as the reference the fast one is
held to.

:class:`ReferenceScheduler` is a :class:`~repro.network.scheduler.
Scheduler` whose ``step``, ``run_until`` and ``run_until_idle`` are the
seed's own code: ``step`` pops until it fires one live event,
``run_until`` peeks the head and calls ``step`` for each due event, and
``run_until_idle`` calls ``step`` until the queue runs dry or the budget
is spent.  It never compacts tombstones.  It shares no dispatch code
with ``Scheduler._dispatch``, so a twin test that runs one workload on
both loops compares two implementations, not one.  It ignores an
attached profiler: the profiled path is held to it through the fast
loop.

:func:`reference_loop` makes every deployment built inside the block
(:func:`~repro.simulation.scenario.deploy`,
:func:`~repro.simulation.soak.run_soak`) run on it.
"""

import heapq
from contextlib import contextmanager

from repro.errors import ConfigurationError
from repro.network.scheduler import Scheduler
from repro.simulation import scenario


class ReferenceScheduler(Scheduler):
    """The seed's peek-then-step dispatch loop, without compaction."""

    def _note_tombstone(self) -> None:
        self._tombstones += 1

    def step(self) -> bool:
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                self._tombstones -= 1
                continue
            event.queued = False
            self.clock.advance_to(time)
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run_until(self, time: float) -> None:
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2].cancelled:
                heapq.heappop(queue)
                self._tombstones -= 1
                continue
            if head[0] > time:
                break
            self.step()
        if time > self.clock._now:
            self.clock.advance_to(time)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        executed = 0
        while executed < max_events and self.step():
            executed += 1
        if executed >= max_events and self.pending:
            raise ConfigurationError(
                "run_until_idle exceeded max_events; "
                "is a periodic task still running?"
            )
        return executed


@contextmanager
def reference_loop():
    """Deploy on :class:`ReferenceScheduler` inside the block."""
    fast = scenario.Scheduler
    scenario.Scheduler = ReferenceScheduler
    try:
        yield
    finally:
        scenario.Scheduler = fast
