"""Experiment F1a — Figure 1(a), the infrastructure schema.

Deploys the full architecture (master, broker, measurement DB, GIS/BIM/
SIM proxies, Device-proxies, devices) and verifies that *every arrow in
the schema carries traffic*, reporting the simulated latency of each
interaction class:

* device -> Device-proxy (radio frames),
* Device-proxy -> middleware -> measurement DB (pub/sub),
* proxy -> master (registration),
* user -> master (resolve; redirect-only),
* user -> proxies (model + data retrieval),
* client-side integration of the comprehensive area model.

The wall-clock benchmark measures the end-user workflow (resolve +
fetch + integrate) on a 20-building district.
"""

import pytest

from repro.observability import MetricsRegistry
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy

EXPERIMENT = "F1a"


@pytest.fixture(scope="module")
def district():
    deployment = deploy(ScenarioConfig(
        seed=20, n_buildings=20, devices_per_building=5, n_networks=2,
    ))
    deployment.run(1800.0)  # 30 simulated minutes of operation
    return deployment


def test_fig1a_infrastructure(district, benchmark, report):
    client = district.client("f1a-user")
    query = AreaQuery(district_id=district.district_id)
    metrics = MetricsRegistry()

    def workflow():
        with metrics.simulated("end-to-end integrate",
                               district.scheduler):
            return client.build_area_model(query, with_data=True,
                                           data_bucket=900.0)

    with report.measure(EXPERIMENT, district.network):
        model = benchmark.pedantic(workflow, rounds=3, iterations=1)

    # every box and arrow of the schema carried traffic
    assert district.master.registrations >= 20 + 2 + 1 + 1
    assert district.measurement_db.ingested > 0
    frames = sum(p.frames_received
                 for p in district.device_proxies.values())
    published = sum(p.measurements_published
                    for p in district.device_proxies.values())
    assert frames > 0 and published > 0
    assert len(model.buildings) == 20
    assert len(model.networks) == 2
    assert model.device_count == len(district.dataset.devices)
    assert all(set(b.source_kinds) == {"bim", "gis"}
               for b in model.buildings)

    with metrics.simulated("master resolve", district.scheduler):
        resolved = client.resolve(query)
    entity = resolved.entities[0]
    with metrics.simulated("model fetch (BIM+GIS)", district.scheduler):
        client.fetch_entity_models(entity, resolved.gis_uris)
    device = next(d for e in resolved.entities for d in e.devices
                  if "power" in d.quantities)
    with metrics.simulated("data fetch (device proxy)",
                           district.scheduler):
        client.fetch_device_data(device, "power")

    report.header(EXPERIMENT, "Figure 1(a) infrastructure: every "
                              "component exercised, simulated latencies")
    report.add(EXPERIMENT,
               f"district: 20 buildings, 2 networks, "
               f"{len(district.dataset.devices)} devices, "
               f"{len(district.device_proxies)} device-proxies")
    report.add(EXPERIMENT,
               f"registrations on master: {district.master.registrations}"
               f"   pub/sub events published: {published}"
               f"   global-DB ingested: {district.measurement_db.ingested}")
    for summary in map(metrics.summary, metrics.names()):
        report.add(EXPERIMENT, "  " + summary.row())
    report.add(EXPERIMENT,
               f"integrated model: {len(model.entities)} entities, "
               f"{model.device_count} devices, "
               f"{len(model.conflicts)} conflicts")
