"""Tests for the discrete-event scheduler."""

import pytest

from repro.errors import ConfigurationError
from repro.network.scheduler import Scheduler
from repro.observability.profiler import SimProfiler
from tests.reference_loop import ReferenceScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sched = Scheduler()
        fired = []
        sched.schedule(3.0, fired.append, "c")
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(2.0, fired.append, "b")
        sched.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sched = Scheduler()
        fired = []
        for name in "abc":
            sched.schedule(1.0, fired.append, name)
        sched.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sched = Scheduler()
        seen = []
        sched.schedule(5.0, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [5.0]
        assert sched.now == 5.0

    def test_schedule_in_past_rejected(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.run_until_idle()
        with pytest.raises(ConfigurationError):
            sched.schedule(-0.5, lambda: None)
        with pytest.raises(ConfigurationError):
            sched.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_event(self):
        sched = Scheduler()
        fired = []

        def outer():
            fired.append("outer")
            sched.schedule(1.0, lambda: fired.append("inner"))

        sched.schedule(1.0, outer)
        sched.run_until_idle()
        assert fired == ["outer", "inner"]
        assert sched.now == 2.0

    def test_cancel_prevents_firing(self):
        sched = Scheduler()
        fired = []
        handle = sched.schedule(1.0, fired.append, "x")
        handle.cancel()
        sched.run_until_idle()
        assert fired == []
        assert handle.cancelled

    def test_events_processed_counter(self):
        sched = Scheduler()
        for i in range(4):
            sched.schedule(float(i + 1), lambda: None)
        sched.run_until_idle()
        assert sched.events_processed == 4


class TestRunUntil:
    def test_run_until_executes_due_events_only(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "early")
        sched.schedule(10.0, fired.append, "late")
        sched.run_until(5.0)
        assert fired == ["early"]
        assert sched.now == 5.0

    def test_run_until_includes_boundary(self):
        sched = Scheduler()
        fired = []
        sched.schedule(5.0, fired.append, "edge")
        sched.run_until(5.0)
        assert fired == ["edge"]

    def test_run_for_relative(self):
        sched = Scheduler()
        sched.run_for(10.0)
        assert sched.now == 10.0
        sched.run_for(5.0)
        assert sched.now == 15.0

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False


class TestPeriodicTask:
    def test_fires_every_period(self):
        sched = Scheduler()
        times = []
        sched.every(2.0, lambda: times.append(sched.now))
        sched.run_until(7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_initial_delay(self):
        sched = Scheduler()
        times = []
        sched.every(2.0, lambda: times.append(sched.now), initial_delay=0.5)
        sched.run_until(5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop_halts_firings(self):
        sched = Scheduler()
        times = []
        task = sched.every(1.0, lambda: times.append(sched.now))
        sched.run_until(2.5)
        task.stop()
        sched.run_until(10.0)
        assert times == [1.0, 2.0]

    def test_stop_from_within_callback(self):
        sched = Scheduler()
        count = []

        def tick():
            count.append(sched.now)
            if len(count) == 3:
                task.stop()

        task = sched.every(1.0, tick)
        sched.run_until(10.0)
        assert len(count) == 3

    def test_zero_period_rejected(self):
        sched = Scheduler()
        with pytest.raises(ConfigurationError):
            sched.every(0.0, lambda: None)

    def test_run_until_idle_guards_against_runaway(self):
        sched = Scheduler()
        sched.every(1.0, lambda: None)
        with pytest.raises(ConfigurationError):
            sched.run_until_idle(max_events=100)

    @pytest.mark.parametrize("reference", [False, True])
    def test_run_until_idle_budget_spent_on_an_idle_queue(self, reference):
        # regression: exactly max_events one-shot events drained the
        # queue and still raised, because only the count was tested
        sched = ReferenceScheduler() if reference else Scheduler()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sched.schedule(delay, fired.append, delay)
        sched.schedule(4.0, fired.append, 4.0).cancel()
        assert sched.run_until_idle(max_events=3) == 3
        assert fired == [1.0, 2.0, 3.0] and sched.pending == 0
        sched.schedule(1.0, fired.append, 5.0)
        sched.schedule(2.0, fired.append, 6.0)
        with pytest.raises(ConfigurationError):
            sched.run_until_idle(max_events=1)


class TestTombstoneCompaction:
    """The cancel-heavy churn patterns must not grow the heap unbounded."""

    def test_cancel_heavy_churn_keeps_heap_bounded(self):
        # regression: the seed scheduler never removed a cancelled event
        # before its due time, so re-arm/cancel churn (delivery-ack
        # timers, batch age timers) accumulated tombstones without bound
        sched = Scheduler()
        for i in range(20_000):
            sched.schedule(1_000.0 + i, lambda: None).cancel()
        assert len(sched._queue) < 5_000
        assert sched.compactions > 0

    def test_pending_counts_live_events_only(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        doomed = sched.schedule(2.0, lambda: None)
        doomed.cancel()
        assert sched.pending == 1

    def test_cancelled_events_never_fire_after_compaction(self):
        sched = Scheduler()
        sched.compact_threshold = 16
        fired = []
        doomed = [sched.schedule(5.0, fired.append, i) for i in range(100)]
        live = [sched.schedule(6.0, fired.append, f"live-{i}")
                for i in range(5)]
        for handle in doomed:
            handle.cancel()
        assert sched.compactions >= 1
        sched.run_until(10.0)
        assert fired == [f"live-{i}" for i in range(5)]
        assert live[0].queued is False

    def test_compaction_from_inside_a_callback_no_double_fire(self):
        # compaction rebuilds the heap in place; the dispatch loop holds
        # a local alias across callbacks, so an out-of-place rebuild
        # would let live events fire twice
        sched = Scheduler()
        sched.compact_threshold = 8
        fired = []
        doomed = [sched.schedule(5.0, fired.append, i) for i in range(100)]
        sched.schedule(1.0, lambda: [h.cancel() for h in doomed])
        for i in range(5):
            sched.schedule(6.0, fired.append, f"live-{i}")
        sched.run_until(10.0)
        assert fired == [f"live-{i}" for i in range(5)]
        assert sched.compactions >= 1

    def test_double_cancel_counts_one_tombstone(self):
        sched = Scheduler()
        handle = sched.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sched._tombstones == 1
        assert sched.pending == 0

    def test_reference_and_fast_path_fire_identically(self):
        def run(sched, profiled=False, stepped=False):
            if profiled:
                sched.profiler = SimProfiler(sched)
            sched.compact_threshold = 4
            fired = []
            for i in range(60):
                handle = sched.schedule(1.0 + i * 0.1, fired.append, i)
                if i % 3:
                    handle.cancel()
            task = sched.every(2.0, lambda: fired.append("tick"))
            sched.run_until(9.0)
            task.stop()
            if stepped:
                while sched.step():
                    pass
            else:
                sched.run_until_idle()
            return fired, sched.events_processed, sched.now

        reference = run(ReferenceScheduler())
        assert run(Scheduler()) == reference
        assert run(Scheduler(), profiled=True) == reference
        assert run(Scheduler(), stepped=True) == reference


class TestPeriodicTaskErrors:
    """A raising callback must not silently kill the task."""

    def test_raise_then_recover(self):
        # regression: the seed re-armed only after the callback
        # returned, so one exception permanently stopped the task
        sched = Scheduler()
        calls = []

        def flaky():
            calls.append(sched.now)
            if len(calls) == 2:
                raise RuntimeError("boom")

        task = sched.every(1.0, flaky)
        sched.run_until(5.5)
        assert calls == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert task.errors == 1
        assert sched.periodic_task_errors == 1

    def test_error_hook_sees_task_and_exception(self):
        sched = Scheduler()
        seen = []
        sched.on_periodic_error = lambda task, exc: seen.append(
            (task, str(exc)))

        def bad():
            raise ValueError("nope")

        task = sched.every(1.0, bad)
        sched.run_until(2.5)
        assert task.errors == 2
        assert seen == [(task, "nope"), (task, "nope")]

    def test_stop_inside_failing_callback_does_not_rearm(self):
        sched = Scheduler()
        calls = []

        def fail_and_stop():
            calls.append(sched.now)
            task.stop()
            raise RuntimeError("dying breath")

        task = sched.every(1.0, fail_and_stop)
        sched.run_until(5.0)
        assert calls == [1.0]
        assert task.errors == 1
