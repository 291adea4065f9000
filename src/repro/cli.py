"""Command-line interface.

Gives a downstream user the whole stack without writing Python::

    repro demo                         # deploy, run, integrate, summarise
    repro monitor --buildings 6 --days 2
    repro generate --buildings 8 --networks 2
    repro protocols
    repro experiments

Installed as the ``repro`` console script (see ``pyproject.toml``); also
runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.simtime import duration, isoformat
from repro.core.monitoring import ConsumptionProfiler, awareness_report
from repro.datasources.generators import synthesize_district
from repro.ontology import AreaQuery
from repro.protocols import available_protocols, make_adapter
from repro.simulation import ScenarioConfig, deploy

#: the experiment index of DESIGN.md §3, kept here so `repro experiments`
#: answers without the docs at hand
EXPERIMENTS = (
    ("F1a", "Figure 1(a) infrastructure end-to-end",
     "bench_fig1a_infrastructure.py"),
    ("F1b", "Figure 1(b) Device-proxy per-layer costs",
     "bench_fig1b_device_proxy.py"),
    ("C1", "scalability: latency vs district size",
     "bench_c1_scalability.py"),
    ("C2", "interoperability across protocol mixes",
     "bench_c2_heterogeneity.py"),
    ("C3", "distributed vs centralized union DB",
     "bench_c3_vs_centralized.py"),
    ("C4", "pub/sub fan-out latency and throughput",
     "bench_c4_pubsub.py"),
    ("C5", "translation to the common data format",
     "bench_c5_translation.py"),
    ("C6", "ontology resolution vs size/selectivity",
     "bench_c6_ontology.py"),
    ("C7", "multi-resolution profiling vs ground truth",
     "bench_c7_profiling.py"),
    ("C8", "remote actuation round-trips and churn",
     "bench_c8_actuation.py"),
    ("C9", "resolve fast path: cache speedup and churn freshness",
     "bench_c9_resolve_cache.py"),
    ("C10", "batch-frame vs per-publish ingest into the columnar TSDB",
     "bench_c10_ingest_tsdb.py"),
    ("A1", "ablation: redirect vs relay-through-master",
     "bench_a1_redirect_vs_relay.py"),
    ("R1", "resilience under churn: availability + staleness",
     "bench_r1_resilience.py"),
    ("R2", "master HA: availability through kill/partition/heal",
     "bench_r2_master_ha.py"),
    ("R3", "durable data plane: loss, duplicates, flood goodput",
     "bench_r3_data_plane.py"),
    ("R4", "broker HA: durable state + failover through kill/partition",
     "bench_r4_broker_ha.py"),
    ("O1", "observability: attribution, churn events, overhead",
     "bench_o1_observability.py"),
    ("O2", "fleet SLO alerting: detection latency, false positives",
     "bench_o2_fleet_slo.py"),
    ("O3", "soak: sustained mixed workload + hot-loop attribution",
     "bench_o3_soak.py"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="District energy data integration framework "
                    "(DATE 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="deploy, run one hour, integrate")
    demo.add_argument("--buildings", type=int, default=4)
    demo.add_argument("--devices", type=int, default=5)
    demo.add_argument("--networks", type=int, default=1)
    demo.add_argument("--seed", type=int, default=7)

    monitor = sub.add_parser("monitor",
                             help="run days of data, print profiles and "
                                  "the awareness report")
    monitor.add_argument("--buildings", type=int, default=6)
    monitor.add_argument("--days", type=float, default=1.0)
    monitor.add_argument("--seed", type=int, default=11)

    generate = sub.add_parser("generate",
                              help="generate a district and describe its "
                                   "data sources")
    generate.add_argument("--buildings", type=int, default=8)
    generate.add_argument("--networks", type=int, default=1)
    generate.add_argument("--devices", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)

    dashboard = sub.add_parser(
        "dashboard", help="render an HTML district dashboard"
    )
    dashboard.add_argument("output", nargs="?",
                           default="district_dashboard.html")
    dashboard.add_argument("--buildings", type=int, default=6)
    dashboard.add_argument("--days", type=float, default=1.0)
    dashboard.add_argument("--seed", type=int, default=13)

    energy = sub.add_parser(
        "energy", help="project device battery lifetimes for a district"
    )
    energy.add_argument("--buildings", type=int, default=4)
    energy.add_argument("--days", type=float, default=1.0)
    energy.add_argument("--seed", type=int, default=9)

    fleet = sub.add_parser(
        "fleet", help="deploy with the fleet monitor and show the "
                      "operator view (fleet table + alert log)"
    )
    fleet.add_argument("--buildings", type=int, default=4)
    fleet.add_argument("--devices", type=int, default=4)
    fleet.add_argument("--hours", type=float, default=1.0)
    fleet.add_argument("--interval", type=float, default=30.0,
                       help="scrape interval, simulated seconds")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--chaos", action="store_true",
                       help="inject a mid-run broker outage to "
                            "demonstrate the alert lifecycle")

    soak = sub.add_parser(
        "soak", help="run the sustained mixed-workload stress scenario "
                     "and print the throughput summary"
    )
    soak.add_argument("--buildings", type=int, default=6)
    soak.add_argument("--devices", type=int, default=4)
    soak.add_argument("--minutes", type=float, default=30.0,
                      help="simulated minutes of measured workload")
    soak.add_argument("--seed", type=int, default=17)
    soak.add_argument("--profile", action="store_true",
                      help="run under the hot-loop profiler and print "
                           "the attribution table")

    profile = sub.add_parser(
        "profile", help="profile the DES hot loop over the soak "
                        "workload: top-N self-time table + call tree"
    )
    profile.add_argument("--buildings", type=int, default=6)
    profile.add_argument("--devices", type=int, default=4)
    profile.add_argument("--minutes", type=float, default=10.0,
                         help="simulated minutes of profiled workload")
    profile.add_argument("--seed", type=int, default=17)
    profile.add_argument("--top", type=int, default=20,
                         help="buckets in the self-time table")
    profile.add_argument("--json", dest="json_path", default=None,
                         metavar="PATH",
                         help="also export the full profile as JSON")

    sub.add_parser("protocols", help="list supported field protocols")
    sub.add_parser("experiments", help="list the experiment index")
    return parser


def cmd_demo(args: argparse.Namespace) -> int:
    district = deploy(ScenarioConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=args.devices, n_networks=args.networks,
    ))
    district.run(3600.0)
    client = district.client()
    model = client.build_area_model(
        AreaQuery(district_id=district.district_id), with_data=True,
    )
    print(f"district {district.district_id}: "
          f"{len(model.buildings)} buildings, "
          f"{len(model.networks)} networks, "
          f"{model.device_count} devices integrated")
    print(f"global measurement DB ingested "
          f"{district.measurement_db.ingested} samples in one hour")
    for building in model.buildings:
        power_devices = [d for d in building.devices
                         if "power" in d.quantities]
        latest = 0.0
        for device in power_devices[:1]:
            samples = building.samples(device.device_id, "power")
            if samples:
                latest = samples[-1][1]
        print(f"  {building.entity_id} {building.name:<14s} "
              f"{building.properties.get('use', '?'):<12s} "
              f"P={latest:9.0f} W  sources="
              f"{'+'.join(building.source_kinds)}")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    district = deploy(ScenarioConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=5, n_networks=1,
    ))
    start = duration(days=4)  # Monday
    district.run(start)
    district.run(duration(days=args.days))
    client = district.client()
    model = client.build_area_model(
        AreaQuery(district_id=district.district_id),
        with_data=True, data_start=start,
    )
    profiler = ConsumptionProfiler(model, bucket=3600.0)
    peak_t, peak_w = profiler.peak()
    print(f"district peak {peak_w / 1e3:.1f} kW at {isoformat(peak_t)}")
    report = awareness_report(model, bucket=3600.0)
    print(f"district energy {report.district_energy_wh / 1e3:.1f} kWh "
          f"over {report.window_hours:.1f} h")
    print(f"{'building':<10s} {'kWh':>9s} {'Wh/m2':>8s} {'vs avg':>7s}")
    for entry in report.ranked:
        print(f"{entry.entity_id:<10s} {entry.energy_wh / 1e3:9.1f} "
              f"{entry.intensity_wh_per_m2:8.2f} "
              f"{entry.vs_district_average:6.2f}x")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    district = synthesize_district(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=args.devices, n_networks=args.networks,
    )
    print(f"{district.district_id} ({district.name}), seed {args.seed}")
    print(f"GIS: {len(district.gis)} features")
    for building in district.buildings:
        print(f"  {building.entity_id} {building.use:<12s} "
              f"{building.floor_area_m2:8.0f} m2  "
              f"cadastral {building.cadastral_id}  "
              f"BIM records: {len(building.bim)}  devices: "
              f"{len(building.devices)}")
    for network in district.networks:
        print(f"  {network.entity_id} {network.commodity:<12s} "
              f"{network.sim.total_length_m():8.0f} m routes  "
              f"substations: {len(network.devices)}")
    protocols = {}
    for device in district.devices:
        protocols[device.protocol] = protocols.get(device.protocol, 0) + 1
    print("device protocols: " + ", ".join(
        f"{name}={count}" for name, count in sorted(protocols.items())
    ))
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.visualization import build_dashboard

    district = deploy(ScenarioConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=5, n_networks=1,
    ))
    start = duration(days=4)
    district.run(start + duration(days=args.days))
    client = district.client()
    model = client.build_area_model(
        AreaQuery(district_id=district.district_id),
        with_data=True, data_start=start, data_bucket=3600.0,
    )
    html = build_dashboard(model)
    with open(args.output, "w") as handle:
        handle.write(html)
    print(f"dashboard written to {args.output} "
          f"({html.count('<svg')} figures)")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    district = deploy(ScenarioConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=5, n_networks=1,
    ))
    district.run(duration(days=args.days))
    rows = district.energy_report()
    print(f"{'device':<10s} {'protocol':<12s} {'charge':>7s} "
          f"{'life (days)':>12s} {'frames':>7s}")
    for row in rows:
        lifetime = ("mains/harvest"
                    if row.projected_lifetime_days == float("inf")
                    else f"{row.projected_lifetime_days:12.0f}")
        print(f"{row.device_id:<10s} {row.protocol:<12s} "
              f"{row.state_of_charge * 100:6.2f}% {lifetime:>13s} "
              f"{row.frames_sent:7d}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.observability.collector import (
        FleetMonitorConfig,
        render_fleet,
    )
    from repro.observability.slo import render_alert_log
    from repro.simulation import FaultInjector

    district = deploy(ScenarioConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=args.devices, n_networks=1,
        fleet_monitor=FleetMonitorConfig(scrape_interval=args.interval),
    ))
    total = duration(hours=args.hours)
    if args.chaos:
        district.run(total / 3)
        injector = FaultInjector(district)
        injector.kill_broker()
        district.run(total / 3)
        injector.restore_broker()
        district.run(total / 3)
    else:
        district.run(total)
    print(render_fleet(district.fleet))
    print()
    print(render_alert_log(district.fleet.alerts))
    return 0


def _soak_summary(result) -> None:
    print(f"soak: {result.sim_seconds:,.0f} simulated seconds in "
          f"{result.wall_seconds:.2f}s wall "
          f"(x{result.sim_seconds / max(result.wall_seconds, 1e-9):,.0f} "
          f"sim/wall)")
    print(f"  messages delivered   {result.messages_total:>10,}  "
          f"({result.msgs_per_sec:,.0f} msgs/s sustained)")
    print(f"  scheduler events     {result.events_processed:>10,}")
    print(f"  samples ingested     {result.samples_ingested:>10,}")
    print(f"  resolves             {result.resolves:>10,}")
    print(f"  subscriber churn     {result.churn_cycles:>10,} cycles, "
          f"{result.churn_events_received:,} events to churners")


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.observability import render_profile_table
    from repro.simulation import SoakConfig, run_soak

    result = run_soak(SoakConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=args.devices,
        sim_duration=args.minutes * 60.0, profile=args.profile,
    ))
    _soak_summary(result)
    if args.profile:
        print()
        print(render_profile_table(result.profiler))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.observability import (
        export_profile,
        render_profile_table,
        render_profile_tree,
    )
    from repro.simulation import SoakConfig, run_soak

    result = run_soak(SoakConfig(
        seed=args.seed, n_buildings=args.buildings,
        devices_per_building=args.devices,
        sim_duration=args.minutes * 60.0, profile=True,
    ))
    _soak_summary(result)
    print()
    print(render_profile_table(result.profiler, top=args.top))
    print()
    print(render_profile_tree(result.profiler))
    if args.json_path:
        import json

        with open(args.json_path, "w") as handle:
            json.dump(export_profile(result.profiler), handle, indent=2)
        print(f"\nfull profile exported to {args.json_path}")
    return 0


def cmd_protocols(_args: argparse.Namespace) -> int:
    for name in available_protocols():
        adapter = make_adapter(name)
        quantities = ", ".join(adapter.uplink_quantities())
        print(f"{name:<12s} uplink quantities: {quantities}")
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    print(f"{'id':<5s} {'bench target':<36s} description")
    for exp_id, description, target in EXPERIMENTS:
        print(f"{exp_id:<5s} {target:<36s} {description}")
    print("\nrun them all with:  pytest benchmarks/ --benchmark-only")
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "monitor": cmd_monitor,
    "generate": cmd_generate,
    "dashboard": cmd_dashboard,
    "energy": cmd_energy,
    "fleet": cmd_fleet,
    "soak": cmd_soak,
    "profile": cmd_profile,
    "protocols": cmd_protocols,
    "experiments": cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
