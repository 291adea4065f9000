"""Experiment O4 — DES core speed: scheduler-only event throughput.

The soak (O3) and pub/sub burst (C4) benches measure the whole stack;
this one isolates the scheduler itself, so a regression in the heap
loop, the tombstone compactor or the periodic-task re-arm shows up
undiluted by transport and handler work.  Three deterministic
workloads, modelled on what the framework actually schedules:

* **dispatch** — a pre-filled heap of one-shot events drained by
  ``run_until_idle`` (message deliveries);
* **timer churn** — schedule-then-cancel re-arm patterns (delivery-ack
  timers, batch age timers), which must trigger tombstone compaction
  and keep the heap bounded;
* **periodic tasks** — a fleet of repeating tasks driven through
  ``run_until`` windows (heartbeats, samplers, scrapes).

The scheduler has no transport messages, so ``messages_total`` in the
``BENCH_O4.json`` record carries **events executed** — the scheduler's
unit of work — making the recorded ``msgs_per_sec`` an events/sec rate.
The CI ``perf-smoke`` job uploads the record as a report; it gates on
this file's own assertions, not on a wall-clock baseline.

Set ``REPRO_BENCH_QUICK=1`` for a shortened CI smoke run.
"""

import os

import pytest

from repro.network.scheduler import Scheduler

EXPERIMENT = "O4"
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: one-shot events pre-filled into the heap for the dispatch phase
DISPATCH_EVENTS = 50_000 if QUICK else 200_000
#: schedule+cancel re-arm cycles of the churn phase
CHURN_CYCLES = 25_000 if QUICK else 100_000
#: periodic tasks x simulated seconds of the periodic phase
PERIODIC_TASKS = 50
PERIODIC_SECONDS = 600.0 if QUICK else 2_400.0


def _core_workload() -> dict:
    """Run all three scheduler workloads; returns observed counters."""
    sched = Scheduler()

    # dispatch: a deep pre-filled heap drained in one fused loop
    sink = []
    append = sink.append
    for i in range(DISPATCH_EVENTS):
        sched.schedule(1.0 + (i % 97) * 0.25, append, i)
    sched.run_until_idle()

    # timer churn: every cycle re-arms a timer and cancels the previous
    # one — the pattern that grows tombstones and forces compaction
    handle = sched.schedule(1e6, append, None)
    for i in range(CHURN_CYCLES):
        handle.cancel()
        handle = sched.schedule(1e6 + i, append, None)
    handle.cancel()
    sched.run_until_idle()

    # periodic fleet: repeating tasks stepped through run_until windows
    ticks = [0]

    def tick():
        ticks[0] += 1

    start = sched.now
    tasks = [sched.every(1.0 + (i % 7) * 0.5, tick)
             for i in range(PERIODIC_TASKS)]
    for window in range(8):
        sched.run_until(start + PERIODIC_SECONDS * (window + 1) / 8.0)
    for task in tasks:
        task.stop()
    sched.run_until_idle()

    return {
        "events": sched.events_processed,
        "dispatched": len(sink),
        "ticks": ticks[0],
        "compactions": sched.compactions,
        "heap_left": len(sched._queue),
    }


@pytest.mark.slow
def test_scheduler_core_event_throughput(benchmark, report):
    with report.measure(EXPERIMENT):
        observed = benchmark.pedantic(_core_workload, rounds=1,
                                      iterations=1)

    # the record's message count is the scheduler's unit of work
    rec = report.record(EXPERIMENT,
                        messages_total=observed["events"],
                        compactions=float(observed["compactions"]))
    events_per_sec = observed["events"] / max(rec.wall_seconds, 1e-9)
    report.record(EXPERIMENT, events_per_sec=events_per_sec)

    report.header(EXPERIMENT,
                  "DES core speed: scheduler-only event throughput")
    report.add(EXPERIMENT,
               f"events={observed['events']:<9,d} "
               f"wall={rec.wall_seconds:6.3f}s "
               f"rate={events_per_sec:11,.0f} events/s")
    report.add(EXPERIMENT,
               f"dispatch={observed['dispatched']:,} one-shots, "
               f"churn={CHURN_CYCLES:,} re-arm cycles "
               f"({observed['compactions']} compactions), "
               f"periodic ticks={observed['ticks']:,}")

    # correctness floors: the workload really exercised what it claims
    assert observed["dispatched"] == DISPATCH_EVENTS
    assert observed["ticks"] > PERIODIC_TASKS * PERIODIC_SECONDS / 4.0
    assert observed["compactions"] > 0, (
        "churn phase never triggered tombstone compaction"
    )
    # the churn phase must not leave a tombstone-bloated heap behind
    assert observed["heap_left"] < CHURN_CYCLES / 2
