"""Experiment C9 — the resolve fast path (indexes + epoch caching).

Three phases:

* **Repeat-query sweep** — for each district size the same repeated
  whole-district resolve workload is issued *cold* (``use_cache=False``:
  the full redirect table every time), *warm* by the **default** client
  (every repeat revalidated against the master's ontology epoch and
  answered by a bodyless 304) and by a *TTL* client (which also skips
  the round trip inside its TTL).  The default client's repeat must
  cost at most 1 KiB on the wire at every size and at least 5x less
  simulated time from 40 buildings up (below that the bare round trip
  dominates a small body); the TTL client must be at least 5x faster
  on **both** clocks at every size.  Hit ratio and the master's
  ``resolves_served`` (full answers and 304s) are reported alongside;
  the master holds no answers of its own.

* **Heartbeat + churn phase** — under registration heartbeats the
  district first idles: nothing a resolve can return changes, so the
  ontology epoch must not move at all (``idle_epoch_bumps == 0``) and
  the default client's repeat across those heartbeat rounds is still a
  304 (``repeat_resolve_bytes <= 1024`` — exact byte counts, so an
  unconditional epoch bump per heartbeat fails this on any runner).
  Then a device proxy is killed and the run continues past its lease
  expiry.  Every post-churn resolve, by the default client and by a
  TTL client, is checked against the evicted proxy's URI: the epoch
  bump at eviction must invalidate the clients' held entries, so the
  count of stale answers is asserted to be exactly zero.

* **Models, one hop later** — the fetch step revalidates the same way.
  After a warm-up ``build_area_model`` a repeat over the unchanged area
  must ship **0** full bodies, the resolve included, and cause **0**
  new translations; after one ``BimStore.set_property`` exactly that
  building's BIM model is a 200 and carries the edit.

* **Device data, the same way** — a repeat ``build_area_model(whole,
  with_data=True)`` at the same simulated instant ships **0** full
  bodies, every ``/data`` included; after 60 simulated seconds exactly
  the Device-proxies that stored a sample answer 200, and the
  measurements equal a cold client's.

Set ``REPRO_BENCH_QUICK=1`` for a shortened CI smoke run.
"""

import os
from contextlib import contextmanager

import pytest

from repro.observability import MetricsRegistry
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy
from repro.simulation.faults import FaultInjector

EXPERIMENT = "C9"
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SIZES = (10, 40) if QUICK else (10, 40, 80)
ROUNDS = 2 if QUICK else 5  # resolve rounds per client
ROUND_RESOLVES = 20  # resolves per round; TTL expires between rounds
CACHE_TTL = 50.0
ROUND_GAP = 60.0  # simulated idle between rounds (> TTL)

_deployments = {}


def district_of(n_buildings):
    if n_buildings not in _deployments:
        deployment = deploy(ScenarioConfig(
            seed=900 + n_buildings, n_buildings=n_buildings,
            devices_per_building=4, n_networks=1,
        ))
        deployment.run(600.0)
        _deployments[n_buildings] = deployment
    return _deployments[n_buildings]


@contextmanager
def bytes_received_by(network, host_name):
    """Exact wire bytes delivered to one host inside the block."""
    received = [0]
    deliver = network._deliver

    def spy(sender, recipient, port, payload, size, sent_at):
        if recipient == host_name:
            received[0] += size
        deliver(sender, recipient, port, payload, size, sent_at)

    network._deliver = spy
    try:
        yield received
    finally:
        del network._deliver  # back to the class's method


def run_workload(district, client, metrics, label, use_cache=True):
    """ROUNDS x ROUND_RESOLVES whole-district resolves, TTL gaps between."""
    whole = AreaQuery(district_id=district.district_id)
    area = None
    for _ in range(ROUNDS):
        with metrics.wallclock(f"{label} wall"):
            for _ in range(ROUND_RESOLVES):
                with metrics.simulated(f"{label} resolve",
                                       district.scheduler):
                    area = client.resolve(whole, use_cache=use_cache)
        district.run(ROUND_GAP)
    return area


def total(summary):
    return summary.mean * summary.count


@pytest.mark.parametrize("n_buildings", SIZES)
def test_repeat_resolve_speedup(n_buildings, benchmark, report):
    district = district_of(n_buildings)
    metrics = MetricsRegistry()
    whole = AreaQuery(district_id=district.district_id)

    cold = district.client(f"c9-cold-{n_buildings}", with_broker=False)
    with report.measure(EXPERIMENT, district.network):
        cold_area = run_workload(district, cold, metrics, "cold",
                                 use_cache=False)
    with bytes_received_by(district.network, cold.host.name) as cold_bytes:
        cold.resolve(whole, use_cache=False)

    warm = district.client(f"c9-warm-{n_buildings}", with_broker=False)
    with report.measure(EXPERIMENT, district.network):
        warm_area = run_workload(district, warm, metrics, "warm")
    with bytes_received_by(district.network, warm.host.name) as warm_bytes:
        warm.resolve(whole)

    ttl = district.client(f"c9-ttl-{n_buildings}", with_broker=False,
                          resolve_cache_ttl=CACHE_TTL)
    with report.measure(EXPERIMENT, district.network):
        ttl_area = run_workload(district, ttl, metrics, "ttl")

    # the fast path must not change answers
    assert warm_area == cold_area and ttl_area == cold_area

    benchmark.pedantic(lambda: warm.resolve(whole), rounds=3,
                       iterations=10)

    cold_sim = metrics.summary("cold resolve")
    warm_sim = metrics.summary("warm resolve")
    ttl_sim = metrics.summary("ttl resolve")
    hit_ratio = ttl.held_hits / (ROUNDS * ROUND_RESOLVES)
    warm_speedup = total(cold_sim) / total(warm_sim)
    ttl_speedup = total(cold_sim) / max(total(ttl_sim), 1e-12)
    ttl_wall_speedup = total(metrics.summary("cold wall")) \
        / max(total(metrics.summary("ttl wall")), 1e-12)

    master = district.master
    report.header(EXPERIMENT,
                  "resolve fast path: repeat whole-district queries")
    report.add(EXPERIMENT,
               f"buildings={n_buildings:<4d}"
               f" cold p50={cold_sim.p50 * 1e3:6.2f}ms {cold_bytes[0]:6d}B"
               f" | default p50={warm_sim.p50 * 1e3:5.2f}ms"
               f" {warm_bytes[0]:4d}B sim x{warm_speedup:5.1f}"
               f" 304s={warm.not_modified}"
               f" | ttl p50={ttl_sim.p50 * 1e3:5.2f}ms"
               f" sim x{ttl_speedup:6.1f} wall x{ttl_wall_speedup:5.1f}"
               f" hit ratio={hit_ratio:.2f}"
               f" | master resolves={master.resolves_served}")

    # acceptance, default client: every repeat is a bodyless 304 ...
    assert warm.http.requests_sent - warm.revalidations == 1
    assert warm.not_modified == warm.revalidations \
        >= warm_sim.count - 1
    assert warm_bytes[0] <= 1024 < cold_bytes[0]
    assert warm_sim.p50 < cold_sim.p50
    if n_buildings >= 40:
        # ... and 5x cheaper wherever the body outweighs the round trip
        assert warm_speedup >= 5.0, (
            f"default-client simulated speedup only x{warm_speedup:.1f}"
        )
    # acceptance, TTL client: >= 5x faster on both clocks (simulated
    # network latency avoided, serialization skipped)
    assert ttl_speedup >= 5.0, (
        f"simulated speedup only x{ttl_speedup:.1f}"
    )
    assert ttl_wall_speedup >= 5.0, (
        f"wall-clock speedup only x{ttl_wall_speedup:.1f}"
    )
    assert hit_ratio > 0.5
    assert ttl.not_modified >= 1  # the 304 path was exercised


def proxy_uris_of(area):
    return {d.proxy_uri for e in area.entities for d in e.devices}


def test_heartbeats_keep_tokens_and_churn_never_serves_evicted_uri(report):
    district = deploy(ScenarioConfig(
        seed=901, n_buildings=4, devices_per_building=3,
        n_networks=1, heartbeat_period=10.0,
    ))
    district.run(120.0)
    master = district.master
    clients = [district.client("c9-churn", with_broker=False),
               district.client("c9-churn-ttl", with_broker=False,
                               resolve_cache_ttl=15.0)]
    default = clients[0]
    whole = AreaQuery(district_id=district.district_id)

    entity_id = district.dataset.buildings[0].entity_id
    protocol = next(proto for (e_id, proto) in district.device_proxies
                    if e_id == entity_id)
    dead_uri = district.device_proxies[(entity_id, protocol)].uri

    # heartbeat phase: 12 rounds of lease renewals and not one change
    with bytes_received_by(district.network, default.host.name) as cold:
        first = default.resolve(whole)
    assert dead_uri in proxy_uris_of(clients[1].resolve(whole))
    epoch_before = master.ontology_epoch
    renewals_before = master.lease_renewals
    district.run(120.0)
    idle_epoch_bumps = master.ontology_epoch - epoch_before
    heartbeats = master.lease_renewals - renewals_before
    with bytes_received_by(district.network, default.host.name) as repeat:
        again = default.resolve(whole)
    report.record(EXPERIMENT, cold_resolve_bytes=cold[0],
                  repeat_resolve_bytes=repeat[0],
                  idle_epoch_bumps=idle_epoch_bumps)
    report.header(EXPERIMENT,
                  "resolve fast path: repeat whole-district queries")
    report.add(EXPERIMENT,
               f"heartbeat phase: {heartbeats} heartbeats in 120 s idle, "
               f"epoch bumps={idle_epoch_bumps}, default client's repeat "
               f"resolve {repeat[0]} B (cold {cold[0]} B)")
    assert heartbeats > 100
    assert idle_epoch_bumps == 0, (
        f"{idle_epoch_bumps} epoch bumps with no forest change: "
        f"heartbeats are invalidating every client's answers again"
    )
    assert repeat[0] <= 1024 < cold[0]
    assert again is first  # the 304 handed back the held answer

    epoch_before = master.ontology_epoch
    FaultInjector(district).kill_device_proxy(entity_id, protocol)
    # run past the lease (3 heartbeat periods) and the client TTL, so
    # the eviction has landed and the held entries must revalidate
    district.run(60.0)

    stale_answers = 0
    checks = 3 if QUICK else 10
    for _ in range(checks):
        for client in clients:
            if dead_uri in proxy_uris_of(client.resolve(whole)):
                stale_answers += 1
        district.run(20.0)  # expire the TTL again before the next check

    report.add(EXPERIMENT,
               f"churn phase: post-churn resolves={checks * len(clients)} "
               f"stale answers={stale_answers} lease evictions="
               f"{master.lease_evictions} epoch "
               f"{epoch_before}->{master.ontology_epoch}")
    assert stale_answers == 0, (
        f"{stale_answers} post-churn resolves still redirected to the "
        f"evicted proxy {dead_uri}"
    )
    assert master.lease_evictions >= 1
    assert master.ontology_epoch > epoch_before
    # after the eviction's one full body the default client is back on 304s
    assert default.revalidations - default.not_modified == 1


def test_unchanged_models_are_revalidated_not_retranslated(report):
    district = deploy(ScenarioConfig(
        seed=902, n_buildings=10, devices_per_building=4, n_networks=1,
    ))
    district.run(120.0)
    proxies = [district.gis_proxy, *district.bim_proxies.values(),
               *district.sim_proxies.values()]
    client = district.client("c9-models", with_broker=False)
    whole = AreaQuery(district_id=district.district_id)

    def translations():
        return sum(proxy.translations for proxy in proxies)

    with bytes_received_by(district.network, client.host.name) as cold:
        client.build_area_model(whole)
    models = client.models_fetched
    before = translations()
    sent = client.http.requests_sent
    with bytes_received_by(district.network, client.host.name) as repeat:
        client.build_area_model(whole)
    repeat_translations = translations() - before
    repeat_304s = client.not_modified
    # every request of the repeat was answered 304: the resolve and
    # every model, so not one full body crossed the wire
    repeat_bodies = client.http.requests_sent - sent - repeat_304s

    building = district.dataset.buildings[0]
    bim = building.bim
    pset, = [record for record in bim.by_type("IfcPropertySet")
             if record["parent"] == bim.root()["GlobalId"]]
    bim.set_property(pset["GlobalId"], "YearOfConstruction", 2015)
    before = translations()
    edited_before = district.bim_proxies[building.entity_id].translations
    model = client.build_area_model(whole)
    edit_translations = translations() - before
    edit_304s = client.not_modified - repeat_304s

    report.record(EXPERIMENT, cold_area_model_bytes=cold[0],
                  repeat_area_model_bytes=repeat[0],
                  repeat_full_bodies=repeat_bodies,
                  repeat_model_translations=repeat_translations)
    report.header(EXPERIMENT,
                  "resolve fast path: repeat whole-district queries")
    report.add(EXPERIMENT,
               f"model revalidation: {models} models, repeat area model "
               f"{repeat[0]} B (cold {cold[0]} B), {repeat_304s} 304s, "
               f"{repeat_bodies} full bodies, {repeat_translations} "
               f"translations; after one "
               f"set_property {edit_translations} translation")
    assert repeat_translations == 0
    assert repeat_bodies == 0
    assert repeat_304s == models + 1 > 1  # every model and the resolve
    assert repeat[0] < cold[0]
    assert edit_translations == 1
    assert district.bim_proxies[building.entity_id].translations \
        == edited_before + 1
    assert edit_304s == models  # the resolve and every other model
    assert model.entity(building.entity_id).sources["bim"] \
        .properties["year_built"] == 2015


def test_unchanged_device_data_is_revalidated_not_reaggregated(report):
    district = deploy(ScenarioConfig(
        seed=903, n_buildings=10, devices_per_building=4, n_networks=1,
    ))
    district.run(120.0)
    proxies = list(district.device_proxies.values())
    client = district.client("c9-data", with_broker=False)
    whole = AreaQuery(district_id=district.district_id)
    data_200s = []  # Device-proxy URI of every /data answered with a body
    wait = client.http.wait

    def spy(pending, indices):
        outcomes = wait(pending, indices)
        calls = [pending.calls[index] for index in indices]
        data_200s.extend(call["uri"][:-len("/data")]
                         for call, outcome in zip(calls, outcomes)
                         if call["uri"].endswith("/data")
                         and getattr(outcome, "status", None) == 200)
        return outcomes

    client.http.wait = spy

    def inserts():
        return {proxy.uri.rstrip("/"): proxy.database.inserts
                for proxy in proxies}

    with bytes_received_by(district.network, client.host.name) as cold:
        client.build_area_model(whole, with_data=True)
    requests = client.data_requests
    stored = inserts()
    sent, not_modified = client.http.requests_sent, client.not_modified
    with bytes_received_by(district.network, client.host.name) as repeat:
        client.build_area_model(whole, with_data=True)
    assert inserts() == stored  # the repeat ran at the same instant
    repeat_304s = client.not_modified - not_modified
    repeat_bodies = client.http.requests_sent - sent - repeat_304s

    district.run(60.0)
    inserted = {uri for uri, count in inserts().items()
                if count != stored[uri]}
    stored = inserts()
    del data_200s[:]
    warm = client.build_area_model(whole, with_data=True)
    refreshed = set(data_200s)
    cold_client = district.client("c9-data-cold", with_broker=False)
    fresh = cold_client.build_area_model(whole, with_data=True)
    assert inserts() == stored  # nothing stored during the two builds

    report.record(EXPERIMENT, cold_area_data_bytes=cold[0],
                  repeat_area_data_bytes=repeat[0],
                  repeat_data_full_bodies=repeat_bodies,
                  refreshed_data_proxies=len(refreshed))
    report.header(EXPERIMENT,
                  "resolve fast path: repeat whole-district queries")
    report.add(EXPERIMENT,
               f"data revalidation: {len(proxies)} Device-proxies, repeat "
               f"area model with data {repeat[0]} B (cold {cold[0]} B), "
               f"{repeat_304s} 304s, {repeat_bodies} full bodies; after "
               f"60 s, {len(inserted)} proxies inserted and "
               f"{len(refreshed)} /data answered 200")
    assert requests == len(proxies) == 30
    assert repeat_bodies == 0
    assert repeat_304s == 1 + 21 + 30  # the resolve, every model, every /data
    assert repeat[0] < cold[0]
    # exactly the proxies that stored a sample aggregated again
    assert refreshed == inserted and len(refreshed) == 17
    assert {entity_id: entity.measurements
            for entity_id, entity in warm.entities.items()} == \
        {entity_id: entity.measurements
         for entity_id, entity in fresh.entities.items()}
