"""Experiment O3 — the soak: sustained mixed workload under the profiler.

Runs :func:`repro.simulation.soak.run_soak` — heartbeat registrations,
batched device ingest, paced whole-district resolves and subscriber
churn, all at once — and asserts the hot-loop profiler's contract on
top of the throughput numbers:

* **attribution** — with the profiler on, >= 95% of the hot loop's
  wall clock lands in named (node, kind, handler) buckets; the
  remainder is heap maintenance the profiler itself accounts as
  unattributed loop overhead;
* **pure observation** — the profiled run and an unprofiled twin on
  the identical config deliver exactly the same message count, execute
  the same number of scheduler events and ingest the same samples: the
  profiler observes the simulation, it never perturbs it;
* **bounded overhead** — the profiled twin's wall clock stays within a
  generous factor of the plain run (the bound is deliberately loose:
  CI machines are noisy, and the profiler is for development runs, not
  the zero-cost default path).

The sustained ``msgs_per_sec`` recorded here is a report the CI
``perf-smoke`` job uploads; no gate compares it with a wall-clock
baseline (the job's "nothing moved" check compares districtbench's
exact counters instead).

Set ``REPRO_BENCH_QUICK=1`` for a shortened CI smoke run.
"""

import os

import pytest

from repro.observability import render_profile_table
from repro.simulation import SoakConfig, run_soak

EXPERIMENT = "O3"
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SIM_DURATION = 600.0 if QUICK else 1800.0
ATTRIBUTION_FLOOR = 0.95
OVERHEAD_CEILING = 3.0  # profiled/plain wall ratio, deliberately loose


def _config(profile: bool) -> SoakConfig:
    return SoakConfig(sim_duration=SIM_DURATION, profile=profile)


@pytest.mark.slow
def test_soak_profiler_attribution_and_identity(benchmark, report):
    with report.measure(EXPERIMENT):
        plain = benchmark.pedantic(run_soak, args=(_config(False),),
                                   rounds=1, iterations=1)
    profiled = run_soak(_config(True))

    # pure observation: the profiled twin's simulation is untouched
    assert profiled.messages_total == plain.messages_total
    assert profiled.events_processed == plain.events_processed
    assert profiled.samples_ingested == plain.samples_ingested
    assert profiled.sim_seconds == plain.sim_seconds
    assert profiled.resolves == plain.resolves

    prof = profiled.profiler
    assert prof is not None and plain.profiler is None
    attribution = prof.attribution
    overhead = profiled.wall_seconds / max(plain.wall_seconds, 1e-9)

    report.record(EXPERIMENT,
                  sim_seconds=plain.sim_seconds,
                  messages_total=plain.messages_total,
                  attribution_pct=attribution * 100.0,
                  profiler_overhead_x=overhead)
    report.header(EXPERIMENT,
                  "soak: sustained mixed workload + hot-loop attribution")
    report.add(EXPERIMENT,
               f"plain    wall={plain.wall_seconds:7.2f}s "
               f"msgs={plain.messages_total:<7d} "
               f"rate={plain.msgs_per_sec:9,.0f}/s "
               f"events={plain.events_processed:<7d} "
               f"ingested={plain.samples_ingested}")
    report.add(EXPERIMENT,
               f"profiled wall={profiled.wall_seconds:7.2f}s "
               f"(x{overhead:.2f}) attribution="
               f"{attribution * 100.0:5.2f}% over "
               f"{len(prof.buckets())} buckets, {prof.events} events")
    for line in render_profile_table(prof, top=5).splitlines():
        report.add(EXPERIMENT, "  | " + line)

    # the acceptance floors
    assert attribution >= ATTRIBUTION_FLOOR, (
        f"only {attribution:.1%} of hot-loop wall attributed to named "
        f"buckets (floor {ATTRIBUTION_FLOOR:.0%})"
    )
    assert overhead < OVERHEAD_CEILING, (
        f"profiling inflated the soak wall clock x{overhead:.2f} "
        f"(ceiling x{OVERHEAD_CEILING:.1f})"
    )
    # the workload genuinely exercised every path it claims to
    assert plain.samples_ingested > 0
    assert plain.resolves >= 10
    assert plain.churn_cycles >= 5
    assert plain.churn_events_received > 0
