"""Experiment R2 — master availability through kill, partition and heal.

The paper's master is the unique entry point of the district — and its
unique point of failure.  This experiment drives one district through
an identical fault schedule under two configurations:

* **single** — the seed architecture: one master, no replication;
* **replicated** — a three-member master group
  (:mod:`repro.core.replication`): log streaming to two standbys,
  read-only standby resolves, epoch-fenced seniority failover, and
  clients/proxies on a :class:`FailoverSet` over the whole group.

Schedule (identical phases, identical probe cadence):

1. *steady* — warm-up and baseline probes;
2. *kill* — the primary master goes dark; probes continue;
3. *heal* — the old primary returns (and, replicated, rejoins as a
   standby of the new epoch);
4. *partition* — the current primary is cut off together with a
   stale-writer host that keeps POSTing registrations straight at it:
   every write the deposed side accepts would be a split-brain write;
5. *final* — the partition heals; convergence probes.

Measured per configuration:

* *resolve availability* — fraction of area-query probes answered;
* *registration durability* — resolved device count after the full
  schedule vs. before any fault;
* *split-brain writes* — registrations accepted by a deposed primary
  during the partition (must be zero);
* the replication counters (promotions, fencings, stepdowns, ...).

Expected shape: the single master loses every probe while its host is
down or cut off (availability ~= the healthy phases' share), while the
replicated group serves reads from standbys within one probe of the
kill and keeps availability >= 95%, with zero split-brain writes.

A second, exact-integer gate pins what a registration heartbeat costs
while nothing changes: one idle round is a lease *renewal* — at most
320 wire bytes per registrant (request + reply), the same bytes for a
2-device and a 16-device proxy, and on a three-member group exactly
one small log record per standby.  A heartbeat that ships the
descriptor again fails all three on any runner.

Set ``REPRO_BENCH_QUICK=1`` for a shortened CI smoke run.
"""

import os

import pytest

from repro.core.master import MasterNode
from repro.core.replication import ReplicationConfig, replicate
from repro.devices.catalog import power_meter
from repro.devices.firmware import RadioLink
from repro.devices.profiles import ConstantProfile
from repro.middleware.broker import Broker
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network, estimate_size
from repro.network.webservice import HttpClient
from repro.ontology import AreaQuery
from repro.protocols import make_adapter
from repro.proxies.device_proxy import DeviceProxy
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig

EXPERIMENT = "R2"
SEED = 31
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PHASE = 60.0 if QUICK else 150.0  # length of each schedule phase
PROBE_PERIOD = 5.0
HEARTBEAT = 10.0                  # proxy registration heartbeat
REPLICATION = ReplicationConfig(heartbeat_period=2.0, fencing_timeout=5.0,
                                failover_timeout=8.0, promotion_stagger=4.0,
                                snapshot_period=30.0)
SPLIT_BRAIN_ATTEMPTS = 3 if QUICK else 10


def _deploy(replicated: bool):
    config = ScenarioConfig(
        seed=SEED, n_buildings=4, devices_per_building=3, n_networks=1,
        net_jitter=0.0, heartbeat_period=HEARTBEAT,
        master=HubConfig(standbys=2, replication=REPLICATION)
        if replicated else None,
    )
    district = deploy(config)
    client = district.client("ha-user", with_broker=False)
    client.http.timeout = 1.0
    return district, client


def _probe_phase(district, client, query, stats):
    """One schedule phase: resolve probes every PROBE_PERIOD."""
    for _ in range(int(PHASE / PROBE_PERIOD)):
        district.run(PROBE_PERIOD)
        stats["attempts"] += 1
        try:
            resolved = client.resolve(query)
            stats["successes"] += 1
            stats["last_devices"] = sum(len(e.devices)
                                        for e in resolved.entities)
        except Exception:
            pass


def _split_brain_attempts(district, writer_client, deposed_uri):
    """POST registrations straight at the deposed primary; count 2xx."""
    accepted = 0
    payload = {"proxy_kind": "measurement",
               "district_id": district.district_id,
               "uri": "svc://rogue-mdb/"}
    for _ in range(SPLIT_BRAIN_ATTEMPTS):
        district.run(PROBE_PERIOD)
        try:
            writer_client.post(deposed_uri.rstrip("/") + "/register",
                               body=payload)
            accepted += 1
        except Exception:
            pass  # 503 (fenced/standby) or timeout: the write was refused
    return accepted


def _ha_run(replicated: bool):
    district, client = _deploy(replicated)
    injector = FaultInjector(district)
    query = AreaQuery(district_id=district.district_id)
    stats = {"attempts": 0, "successes": 0, "last_devices": 0}
    # the stale writer must sit on the primary's side of the later
    # partition, so create its host up front
    writer_host = district.network.add_host("stale-writer")
    writer_client = HttpClient(writer_host, timeout=1.0)

    district.run(60.0)  # warm-up: registrations + first heartbeats
    _probe_phase(district, client, query, stats)          # 1. steady
    devices_before = stats["last_devices"]

    primary_host = district.replication.acting().host.name
    injector.take_offline(primary_host)
    _probe_phase(district, client, query, stats)          # 2. kill
    injector.restore(primary_host)
    _probe_phase(district, client, query, stats)          # 3. heal

    deposed_host = injector.partition_master(
        with_hosts=[writer_host.name]
    )                                                     # 4. partition
    if replicated:
        # the stale writer hammers the deposed primary from inside the
        # partition; with epoch fencing every write must be refused
        split_brain = _split_brain_attempts(
            district, writer_client, f"svc://{deposed_host}/"
        )
    else:
        # a lone master cannot split-brain; just ride out the phase
        district.run(SPLIT_BRAIN_ATTEMPTS * PROBE_PERIOD)
        split_brain = 0
    injector.heal_partition()
    _probe_phase(district, client, query, stats)          # 5. final

    return {
        "messages": district.network.stats.messages_delivered,
        "sim_seconds": district.scheduler.now,
        "availability": stats["successes"] / stats["attempts"],
        "devices_before": devices_before,
        "devices_after": stats["last_devices"],
        "split_brain": split_brain,
        "failovers": client.master_failovers,
        "counters": district.replication.counters(),
    }


@pytest.mark.slow
@pytest.mark.parametrize("replicated", [False, True],
                         ids=["single", "replicated"])
def test_master_availability_through_failover(replicated, benchmark,
                                              report):
    with report.measure(EXPERIMENT):
        result = benchmark.pedantic(_ha_run, args=(replicated,),
                                    rounds=1, iterations=1)
    label = "replicated" if replicated else "single"
    counters = result["counters"]
    report.header(EXPERIMENT,
                  "master availability through kill/partition/heal")
    report.record(EXPERIMENT,
                  sim_seconds=result["sim_seconds"],
                  messages_total=result["messages"])
    report.add(
        EXPERIMENT,
        f"{label:<10s} availability={result['availability']:6.1%} "
        f"devices resolved before/after="
        f"{result['devices_before']}/{result['devices_after']} "
        f"split_brain_writes={result['split_brain']} "
        f"client_failovers={result['failovers']}"
    )
    if replicated:
        report.add(
            EXPERIMENT,
            f"{'':<10s} promotions={counters.get('promotions', 0)} "
            f"stepdowns={counters.get('stepdowns', 0)} "
            f"fencings={counters.get('fencings', 0)} "
            f"entries_applied={counters.get('entries_applied', 0)} "
            f"snapshots_applied={counters.get('snapshots_applied', 0)}"
        )
    assert result["split_brain"] == 0  # both configs: no ghost writes
    if replicated:
        # the tentpole claim: area queries stay >= 95% available through
        # a primary kill, a partition of its successor, and both heals
        assert result["availability"] >= 0.95
        assert result["devices_after"] == result["devices_before"]
        assert counters["promotions"] >= 1
        assert counters["stepdowns"] >= 1
        assert counters["fencings"] >= 1
    else:
        # the single master loses the kill and partition phases outright
        assert result["availability"] < 0.95


HEARTBEAT_ROUND_BYTES_MAX = 320
RENEWAL_RECORD_BYTES_MAX = 96


def _idle_heartbeat_round(n_devices: int, standbys: int):
    """One idle heartbeat round of a lone *n_devices* Device-proxy.

    Returns ``(wire bytes of the round, log records the standbys
    applied, the largest record's size)``.  No firmware runs, so
    without standbys the ``NetworkStats.bytes_sent`` delta is the
    heartbeat's request + reply and nothing else.
    """
    network = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(network.add_host("broker"))
    master = MasterNode(network.add_host("master"))
    uris = [master.uri]
    applied = []
    if standbys:
        group = replicate(master, standbys, REPLICATION)
        uris = group.uris()
        for node in group.nodes()[1:]:
            node.apply = lambda record, real=node.apply: \
                applied.append(record) or real(record)
    proxy = DeviceProxy(network.add_host("proxy"),
                        adapter=make_adapter("zigbee"),
                        broker_host="broker", district_id="dst-0001")
    for index in range(n_devices):
        proxy.attach_device(
            power_meter(f"dev-{index:04d}", "zigbee",
                        f"00:12:4b:00:00:00:00:{index:02x}", "bld-0001",
                        ConstantProfile(100.0)),
            RadioLink(network.scheduler))
    proxy.register_with(uris, lease=3 * HEARTBEAT)
    proxy.start_heartbeat(uris, HEARTBEAT, lease=3 * HEARTBEAT)
    network.scheduler.run_for(1.5 * HEARTBEAT)  # first renewal is behind
    del applied[:]
    sent, renewals = network.stats.bytes_sent, master.lease_renewals
    network.scheduler.run_for(HEARTBEAT)
    assert master.lease_renewals == renewals + 1
    assert master.registrations == 1 and master.renewals_refused == 0
    return (network.stats.bytes_sent - sent, len(applied),
            max(map(estimate_size, applied), default=0))


def test_idle_heartbeat_is_a_renewal_not_a_descriptor(report):
    small, _, _ = _idle_heartbeat_round(2, standbys=0)
    large, _, _ = _idle_heartbeat_round(16, standbys=0)
    _, records, record_bytes = _idle_heartbeat_round(16, standbys=2)
    report.record(EXPERIMENT, heartbeat_round_bytes=large,
                  heartbeat_bytes_16_vs_2_devices=large - small,
                  replication_records_per_renewal=records)
    report.header(EXPERIMENT,
                  "master availability through kill/partition/heal")
    report.add(EXPERIMENT,
               f"idle heartbeat round: {large} B per registrant "
               f"(2 devices: {small} B), {records} log records of "
               f"<= {record_bytes} B across 2 standbys")
    assert large <= HEARTBEAT_ROUND_BYTES_MAX, (
        f"an idle heartbeat costs {large} B: the descriptor is on the "
        f"wire again")
    assert large == small  # nothing in it scales with the descriptor
    assert records <= 2 and record_bytes <= RENEWAL_RECORD_BYTES_MAX
