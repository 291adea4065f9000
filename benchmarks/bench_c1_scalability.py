"""Experiment C1 — the "scalable" claim (Conclusion §IV).

Sweeps district size and measures, at each size:

* simulated master resolve latency, *cold* (``use_cache=False``: the
  full redirect table, which grows mildly — the ontology walk is linear
  but the answer is URIs only) and *warm* (the default client's repeat
  query: a conditional GET answered by a bodyless 304, flat in the
  district size);
* simulated end-to-end integration latency for a *fixed-size* area
  query (one building) — the paper's scalability story: clients pay
  for what they query, not for the district size;
* simulated integration latency for the whole district, the median of
  five (grows with the returned data, as it must — but the fetch stage
  is one concurrent round, so it stays within a small multiple of a
  cold resolve instead of growing with the number of proxies); the
  repeats revalidate what the first integrate fetched, so five more,
  each by a fresh client, time the cold fetch round under the same
  bound.

The pytest-benchmark table (grouped by size) tracks the wall-clock cost
of the fixed-size workflow, which should stay flat.
"""

import pytest

from repro.observability import MetricsRegistry
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy

EXPERIMENT = "C1"
SIZES = (5, 10, 20, 40, 80)

_deployments = {}
_single_building_p50 = {}
_warm_resolve_p50 = {}


def district_of(n_buildings):
    if n_buildings not in _deployments:
        deployment = deploy(ScenarioConfig(
            seed=100 + n_buildings, n_buildings=n_buildings,
            devices_per_building=4, n_networks=1,
        ))
        deployment.run(600.0)
        _deployments[n_buildings] = deployment
    return _deployments[n_buildings]


@pytest.mark.parametrize("n_buildings", SIZES)
def test_scalability(n_buildings, benchmark, report):
    district = district_of(n_buildings)
    client = district.client(f"c1-user-{n_buildings}")
    metrics = MetricsRegistry()

    whole = AreaQuery(district_id=district.district_id)
    single = AreaQuery(
        district_id=district.district_id,
        entity_ids=(district.dataset.buildings[0].entity_id,),
    )

    for _ in range(5):
        with metrics.simulated("resolve", district.scheduler):
            client.resolve(whole, use_cache=False)
        with metrics.simulated("warm resolve", district.scheduler):
            client.resolve(whole)
        with metrics.simulated("single-building integrate",
                               district.scheduler):
            client.build_area_model(single, with_data=True,
                                    data_bucket=300.0)
    # a whole-district integrate is the slowest of many concurrent
    # requests, so one draw swings with one jitter factor: report the
    # median of five
    for _ in range(5):
        with metrics.simulated("whole-district integrate",
                               district.scheduler):
            model = client.build_area_model(whole, with_data=True,
                                            data_bucket=300.0)
        assert len(model.buildings) == n_buildings
    # the median above revalidates what the first one fetched; a fresh
    # client holds nothing, so these time the cold fetch round itself
    for attempt in range(5):
        cold_client = district.client(f"c1-cold-{n_buildings}-{attempt}")
        with metrics.simulated("cold whole-district integrate",
                               district.scheduler):
            model = cold_client.build_area_model(whole, with_data=True,
                                                 data_bucket=300.0)
        assert len(model.buildings) == n_buildings

    def fixed_size_workflow():
        return client.build_area_model(single, with_data=True,
                                       data_bucket=300.0)

    with report.measure(EXPERIMENT, district.network):
        benchmark.pedantic(fixed_size_workflow, rounds=3, iterations=1)

    resolve = metrics.summary("resolve")
    warm = metrics.summary("warm resolve")
    one = metrics.summary("single-building integrate")
    all_b = metrics.summary("whole-district integrate")
    cold = metrics.summary("cold whole-district integrate")
    _single_building_p50[n_buildings] = one.p50
    # deterministic shape of the concurrent fetch round: after the
    # resolve, the whole district costs its slowest proxy answer, not
    # the sum of them (sequentially it was 37-70x the resolve)
    assert all_b.p50 < 3 * resolve.p50, (
        f"whole-district integrate {all_b.p50 * 1e3:.1f} ms is not within "
        f"3x the cold whole-district resolve {resolve.p50 * 1e3:.1f} ms: "
        f"the fetch stage is paying per-proxy round trips again"
    )
    assert cold.p50 < 3 * resolve.p50, (
        f"cold whole-district integrate {cold.p50 * 1e3:.1f} ms is not "
        f"within 3x the cold whole-district resolve "
        f"{resolve.p50 * 1e3:.1f} ms: the cold fetch round is paying "
        f"per-proxy round trips again"
    )
    # and of the resolve path: nothing changed between the two calls,
    # so the repeat is a 304 that ships no redirect table — one bare
    # round trip (~4.4 ms) whatever the district size, which is under a
    # fifth of the cold resolve from 40 buildings up (below that the
    # cold body is small enough that the round trip itself dominates)
    assert client.not_modified >= 5
    _warm_resolve_p50[n_buildings] = warm.p50
    assert warm.p50 < resolve.p50
    assert warm.p50 < 1.25 * _warm_resolve_p50[min(_warm_resolve_p50)], (
        f"warm resolve {warm.p50 * 1e3:.2f} ms grows with the district: "
        f"repeat resolves ship the body again"
    )
    if n_buildings >= 40:
        assert warm.p50 < resolve.p50 / 5, (
            f"warm resolve {warm.p50 * 1e3:.2f} ms is not 5x under the "
            f"cold {resolve.p50 * 1e3:.2f} ms"
        )
    report.header(EXPERIMENT,
                  "scalability: latency vs district size (simulated)")
    report.add(EXPERIMENT,
               f"buildings={n_buildings:<4d} devices="
               f"{len(district.dataset.devices):<5d}"
               f" resolve p50 cold={resolve.p50 * 1e3:7.2f}ms"
               f" warm={warm.p50 * 1e3:5.2f}ms"
               f"  1-building integrate p50={one.p50 * 1e3:8.2f}ms"
               f"  whole-district integrate={all_b.p50 * 1e3:9.2f}ms"
               f" cold={cold.p50 * 1e3:9.2f}ms"
               f" ({cold.p50 / resolve.p50:.2f}x resolve)")

    if n_buildings == SIZES[-1] and SIZES[0] in _single_building_p50:
        # the headline shape: a fixed-size query does not pay for
        # district growth (redirect architecture)
        ratio = (_single_building_p50[SIZES[-1]]
                 / _single_building_p50[SIZES[0]])
        report.add(EXPERIMENT,
                   f"{SIZES[-1] // SIZES[0]}x district growth -> "
                   f"single-building query cost x{ratio:.2f} "
                   f"(claim: ~flat; <2x accepted)")
        assert ratio < 2.0, (
            f"single-building query slowed {ratio:.2f}x as the district "
            f"grew: redirect architecture is not delivering scalability"
        )
