"""Experiment O2 — fleet SLO alerting under churn.

Deploys one district with the fleet monitor scraping every node
(:mod:`repro.observability.collector`) and subjects it to an R1-style
churn schedule: Device-proxies and the broker taken offline and
restored on a seeded schedule.  Measured:

* *detection latency* — simulated seconds from each injected fault to
  the victim's ``target-up`` alert entering FIRING (floor: within
  3 scrape intervals, the bound the multi-window burn-rate rules and
  ``for_duration`` are sized for);
* *resolution* — every alert returns to OK after the final heal;
* *false positives* — alerts fired during the steady-state phase
  (floor: zero);
* *scrape overhead* — extra transport messages of the monitored run
  over an unmonitored twin on the identical schedule (floor: < 5 % of
  total traffic).

The twin run doubles as the zero-overhead-when-disabled check: with
``fleet_monitor`` unset the deployment sends no scrape traffic at all.
"""

import os

import pytest

from repro.observability.collector import FleetMonitorConfig
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy

EXPERIMENT = "O2"
SEED = 31
#: REPRO_BENCH_QUICK=1 shrinks the schedule for a CI smoke run
#: (2 rounds: one device-proxy fault plus one broker outage)
ROUNDS = 2 if os.environ.get("REPRO_BENCH_QUICK") else 4
#: the scrape interval is matched to the slowest device cadence (300 s
#: sample periods) — scraping much faster than the data changes only
#: burns messages, and the detection floor is defined in intervals
INTERVAL = 300.0
WARMUP = 120.0            # devices sampling, first scrapes landing
STEADY = 8 * INTERVAL     # fault-free phase: any alert is a false positive
OUTAGE = 3 * INTERVAL     # detection must land inside this window
RECOVERY = 6 * INTERVAL   # heal-to-resolution window per round
DRAIN = 8 * INTERVAL      # final settle: every alert must return to OK
HEARTBEAT = 15.0          # registration heartbeats as base traffic


def _deploy(monitored: bool):
    config = ScenarioConfig(
        seed=SEED, n_buildings=6, devices_per_building=4, n_networks=1,
        net_jitter=0.0,
        heartbeat_period=HEARTBEAT,
        peer_keepalive=HEARTBEAT,
        fleet_monitor=FleetMonitorConfig(scrape_interval=INTERVAL)
        if monitored else None,
    )
    return deploy(config)


def _churn_run(monitored: bool):
    district = _deploy(monitored)
    injector = FaultInjector(district)
    monitor = district.fleet
    district.run(WARMUP)

    # steady state: nothing is broken, so nothing may fire
    district.run(STEADY)
    false_positives = monitor.alerts.counters()["alerts_fired"] \
        if monitored else 0

    proxy_keys = sorted(district.device_proxies)
    detections = []  # (victim, latency in seconds) per injected fault
    for round_no in range(ROUNDS):
        if round_no % 2 == 0:
            entity_id, protocol = proxy_keys[round_no % len(proxy_keys)]
            victim = injector.kill_device_proxy(entity_id, protocol)
        else:
            victim = district.broker.name
            injector.kill_broker()
        fault_at = district.scheduler.now
        district.run(OUTAGE)
        if monitored:
            firing = [a for a in monitor.alerts.firing_for(victim)
                      if a.slo.name == "target-up"]
            latency = firing[0].since - fault_at if firing else None
            detections.append((victim, latency))
        injector.restore(victim)
        district.run(RECOVERY)

    district.run(DRAIN)
    return {
        "district": district,
        "messages": district.network.stats.messages_sent,
        "false_positives": false_positives,
        "detections": detections,
        "alerts": monitor.alerts.counters() if monitored else {},
        "scrapes": monitor.collector.counters() if monitored else {},
    }


@pytest.mark.slow
def test_fleet_slo_detection(benchmark, report):
    with report.measure(EXPERIMENT):
        result = benchmark.pedantic(_churn_run, args=(True,),
                                    rounds=1, iterations=1)
    twin = _churn_run(False)
    monitored = result["district"]
    report.record(EXPERIMENT,
                  sim_seconds=monitored.scheduler.now,
                  messages_total=monitored.network.stats
                  .messages_delivered)

    overhead = (result["messages"] - twin["messages"]) \
        / result["messages"]
    alerts = result["alerts"]
    scrapes = result["scrapes"]

    report.header(EXPERIMENT,
                  "fleet SLO alerting: detection, resolution, overhead")
    for victim, latency in result["detections"]:
        shown = "missed" if latency is None \
            else f"{latency:6.1f}s ({latency / INTERVAL:.1f} intervals)"
        report.add(EXPERIMENT, f"fault {victim:<24s} detected in {shown}")
    report.add(
        EXPERIMENT,
        f"false positives={result['false_positives']} "
        f"fired={alerts['alerts_fired']} "
        f"resolved={alerts['alerts_resolved']} "
        f"active={alerts['alerts_active']}"
    )
    report.add(
        EXPERIMENT,
        f"scrape overhead={overhead:6.2%} "
        f"({result['messages'] - twin['messages']} of "
        f"{result['messages']} messages, "
        f"{scrapes['scrape_rounds']} rounds over "
        f"{len(result['district'].fleet.collector.targets)} targets)"
    )

    # floors: every fault alerts within 3 scrape intervals, steady state
    # stays silent, everything resolves, and scraping stays cheap
    assert result["false_positives"] == 0
    for victim, latency in result["detections"]:
        assert latency is not None, f"fault on {victim} never alerted"
        assert latency <= 3 * INTERVAL
    assert alerts["alerts_fired"] >= len(result["detections"])
    assert alerts["alerts_active"] == 0, "alerts left firing after heal"
    assert overhead < 0.05
    # the unmonitored twin sends no scrape traffic at all
    assert twin["district"].fleet is None
