"""Experiment C3 — distributed proxies vs the centralized union DB (§II).

The paper claims the union of the heterogeneous databases into a single
one is "usually not feasible" and its model "efficiently manage[s] and
integrate[s]" instead.  This bench runs the *same synthetic district*
on both architectures and compares:

* **ingest concentration** — messages received at the hottest host
  (the central server funnels everything; the distributed design
  spreads ingest across proxies);
* **conflict handling** — properties silently overwritten by the union
  import vs conflicts preserved with provenance by the integration;
* **staleness** — a BIM correction is visible immediately through the
  Database-proxy, but only after the next bulk sync in the union DB;
* **query latency** — whole-area with data on both systems (the
  centralized server answers from one box in one large message; the
  distributed client pays a resolve plus one concurrent round over the
  proxies — its slowest answer — and never funnels).
"""

import pytest

from repro.baselines.centralized import deploy_centralized
from repro.datasources.generators import synthesize_district
from repro.observability import MetricsRegistry
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy

EXPERIMENT = "C3"
N_BUILDINGS = 12


@pytest.fixture(scope="module")
def dataset():
    district = synthesize_district(seed=33, n_buildings=N_BUILDINGS,
                                   devices_per_building=4, n_networks=1)
    # plant one genuine cross-source disagreement: the GIS survey and
    # the BIM disagree about a building's construction year — the
    # "conflicting values across different databases" of §II
    building = district.buildings[0]
    feature = district.gis.feature(building.feature_id)
    feature.properties["year_built"] = 1979
    return district


@pytest.fixture(scope="module")
def distributed(dataset):
    deployment = deploy(
        ScenarioConfig(seed=33, n_buildings=N_BUILDINGS,
                       devices_per_building=4, n_networks=1),
        dataset=dataset,
    )
    deployment.run(1800.0)
    return deployment


@pytest.fixture(scope="module")
def centralized(dataset):
    deployment = deploy_centralized(dataset, seed=33, sync_period=3600.0)
    deployment.run(1800.0)
    return deployment


def hottest_host(network, exclude=()):
    received = network.stats.per_host_received
    name, count = max(
        ((host, n) for host, n in received.items()
         if host not in exclude),
        key=lambda item: item[1],
    )
    return name, count


def test_vs_centralized(distributed, centralized, dataset, benchmark,
                        report):
    report.header(EXPERIMENT,
                  "distributed redirect vs centralized union DB "
                  f"({N_BUILDINGS} buildings, 30 sim-min)")

    # -- entry-point concentration -----------------------------------------
    # the architectural contrast: the paper's unique entry point (the
    # master) only handles registration and resolution, while the
    # centralized entry point funnels every measurement and every data
    # byte.  (The pub/sub broker is middleware, not the entry point —
    # SEEMPubS is p2p; it is reported separately for honesty.)
    dist_received = distributed.network.stats.per_host_received
    cent_received = centralized.network.stats.per_host_received
    total_dist = sum(dist_received.values())
    total_cent = sum(cent_received.values())
    master_share = dist_received.get("master", 0) / total_dist
    central_share = cent_received.get("central", 0) / total_cent
    broker_share = dist_received.get("broker", 0) / total_dist
    report.add(EXPERIMENT,
               f"entry-point load: master received "
               f"{100 * master_share:.1f}% of all messages "
               f"(broker/middleware: {100 * broker_share:.1f}%)")
    report.add(EXPERIMENT,
               f"entry-point load: central server received "
               f"{100 * central_share:.1f}% of all messages")
    assert central_share > 5 * master_share, (
        "the centralized entry point should funnel vastly more traffic "
        "than the redirect-only master"
    )

    # -- conflict handling ---------------------------------------------------
    client = distributed.client("c3-user")
    model = client.build_area_model(
        AreaQuery(district_id=distributed.district_id)
    )
    preserved = len(model.conflicts)
    overwritten = centralized.server.database.conflicts_overwritten
    report.add(EXPERIMENT,
               f"property conflicts: distributed preserved={preserved} "
               f"(with provenance), centralized overwritten="
               f"{overwritten} (silently)")
    conflicted = model.conflicts[0]
    assert conflicted.prop == "year_built"
    assert preserved >= 1 and overwritten >= 1

    # -- staleness -----------------------------------------------------------
    building = dataset.buildings[0]
    root_guid = building.bim.root()["GlobalId"]
    for record in building.bim.by_type("IfcPropertySet"):
        if record["parent"] == root_guid and \
                "YearOfConstruction" in record["props"]:
            building.bim.set_property(record["GlobalId"],
                                      "YearOfConstruction", 2015)
    fresh = client.build_area_model(AreaQuery(
        district_id=distributed.district_id,
        entity_ids=(building.entity_id,),
    ))
    dist_value = fresh.entity(building.entity_id).properties["year_built"]
    cent_row = centralized.server.database.entities[building.entity_id]
    cent_value = cent_row["properties"]["year_built"]
    report.add(EXPERIMENT,
               f"source edit visibility: distributed sees year_built="
               f"{dist_value} immediately; centralized still serves "
               f"{cent_value} until the next sync "
               f"(period {centralized.sync_period}s)")
    assert dist_value == 2015
    assert cent_value != 2015

    # -- query latency -------------------------------------------------------
    metrics = MetricsRegistry()
    query = AreaQuery(district_id=distributed.district_id)
    for _ in range(5):
        with metrics.simulated("distributed whole-area",
                               distributed.scheduler):
            client.build_area_model(query, with_data=True,
                                    data_bucket=900.0)
    central_client = centralized.client_host("c3-central-user")
    for _ in range(5):
        with metrics.simulated("centralized whole-area",
                               centralized.scheduler):
            central_client.get(
                centralized.server.uri.rstrip("/") + "/area",
                params={"with_data": "1"},
            )
    for summary in map(metrics.summary, metrics.names()):
        report.add(EXPERIMENT, "  " + summary.row())

    def distributed_query():
        return client.build_area_model(query, with_data=True,
                                       data_bucket=900.0)

    with report.measure(EXPERIMENT, distributed.network):
        benchmark.pedantic(distributed_query, rounds=3, iterations=1)
