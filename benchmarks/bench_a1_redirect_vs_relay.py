"""Ablation A1 — redirect (the paper's design) vs relay-through-master.

DESIGN.md §4: "Redirect, not relay: master returns URIs; clients fetch
from proxies directly."  This ablation runs both modes on the same
district and measures what the redirect buys:

* with concurrent clients, relay answers queue behind the master's
  single host (its latency grows with client count) while redirect
  clients fan out to different proxies;
* the master's message load under relay grows with the *data volume*,
  under redirect only with the *query count*.
"""

import pytest

from repro.core.client import DistrictClient
from repro.core.relay import RelayingMaster
from repro.datasources.generators import synthesize_district
from repro.middleware.broker import Broker
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.observability import MetricsRegistry
from repro.ontology.queries import AreaQuery
from repro.proxies.database_proxy import BimProxy, GisProxy

EXPERIMENT = "A1"
N_BUILDINGS = 16
CLIENT_COUNTS = (1, 4, 16)


def build_relay_district():
    """A model-only district (no devices) under a RelayingMaster."""
    dataset = synthesize_district(seed=44, n_buildings=N_BUILDINGS,
                                  devices_per_building=1, n_networks=0)
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(net.add_host("broker"))
    master = RelayingMaster(net.add_host("master"))
    gis = GisProxy(net.add_host("proxy-gis"), dataset.gis,
                   dataset.district_id)
    gis.register_with(master.uri)
    for building in dataset.buildings:
        feature = dataset.gis.feature(building.feature_id)
        proxy = BimProxy(
            net.add_host(f"proxy-bim-{building.entity_id}"),
            building.bim, building.entity_id, dataset.district_id,
            name=building.name, gis_feature_id=building.feature_id,
            bounds=feature.geometry.bounds(),
        )
        proxy.register_with(master.uri)
    return dataset, net, master


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_redirect_vs_relay(clients, benchmark, report):
    dataset, net, master = build_relay_district()
    query = AreaQuery(district_id=dataset.district_id)
    metrics = MetricsRegistry()

    redirect_clients = [
        DistrictClient(net.add_host(f"rc-{clients}-{i}"), master.uri)
        for i in range(clients)
    ]
    relay_clients = [
        HttpClient(net.add_host(f"lc-{clients}-{i}"), timeout=120.0)
        for i in range(clients)
    ]

    def run_redirect():
        for client in redirect_clients:
            with metrics.simulated(f"redirect x{clients}", net.scheduler):
                model = client.build_area_model(query)
            assert len(model.entities) == N_BUILDINGS

    def run_relay():
        for client in relay_clients:
            with metrics.simulated(f"relay x{clients}", net.scheduler):
                response = client.get(
                    master.uri.rstrip("/") + "/fetch",
                    params=query.to_params(),
                )
            assert len(response.body["entities"]) == N_BUILDINGS

    master_before = net.stats.per_host_received.get("master", 0)
    with report.measure(EXPERIMENT, net):
        run_redirect()
    master_redirect = (net.stats.per_host_received.get("master", 0)
                       - master_before)
    master_before = net.stats.per_host_received.get("master", 0)
    with report.measure(EXPERIMENT, net):
        benchmark.pedantic(run_relay, rounds=1, iterations=1)
    master_relay = (net.stats.per_host_received.get("master", 0)
                    - master_before)

    redirect = metrics.summary(f"redirect x{clients}")
    relay = metrics.summary(f"relay x{clients}")
    report.header(EXPERIMENT,
                  "ablation: redirect (paper) vs relay-through-master "
                  f"({N_BUILDINGS} buildings)")
    report.add(EXPERIMENT,
               f"clients={clients:<3d} per-query p50: "
               f"redirect={redirect.p50 * 1e3:9.2f}ms "
               f"relay={relay.p50 * 1e3:9.2f}ms   master msgs/query: "
               f"redirect={master_redirect / clients:6.1f} "
               f"relay={master_relay / clients:6.1f}")
    # the relay funnels the whole answer through the master: it must
    # handle at least an order of magnitude more messages per query
    assert master_relay > 10 * master_redirect
