"""Tests for the distribution-network flow solver."""

import pytest

from repro.datasources.sim import (
    COMMODITY_ELECTRICITY,
    NODE_CONSUMER,
    NODE_JUNCTION,
    NODE_PLANT,
    SimStore,
)
from repro.errors import IntegrationError, QueryError
from repro.gridsim.flow import FlowSolver, demands_from_model


def radial_network():
    """plant --e1-- j1 --e2-- c1, j1 --e3-- c2 (a small feeder tree)."""
    sim = SimStore("feeder-1", COMMODITY_ELECTRICITY)
    sim.add_node("plant", NODE_PLANT, 0, 0, capacity_kw=1000)
    sim.add_node("j1", NODE_JUNCTION, 100, 0)
    sim.add_node("c1", NODE_CONSUMER, 200, 0, capacity_kw=100)
    sim.add_node("c2", NODE_CONSUMER, 100, 100, capacity_kw=100)
    sim.add_edge("e1", "plant", "j1", length_m=1000, rating=200,
                 loss_coeff=0.02)
    sim.add_edge("e2", "j1", "c1", length_m=500, rating=100,
                 loss_coeff=0.02)
    sim.add_edge("e3", "j1", "c2", length_m=500, rating=100,
                 loss_coeff=0.02)
    sim.add_service_point("c1", "TO-01-1000")
    sim.add_service_point("c2", "TO-01-1001")
    return sim


class TestFlowSolver:
    def test_flows_accumulate_towards_plant(self):
        solver = FlowSolver(radial_network())
        state = solver.solve({"c1": 50.0, "c2": 30.0})
        assert state.segments["e2"].flow_kw == pytest.approx(50.0)
        assert state.segments["e3"].flow_kw == pytest.approx(30.0)
        assert state.segments["e1"].flow_kw == pytest.approx(80.0)

    def test_losses_quadratic_in_utilisation(self):
        solver = FlowSolver(radial_network())
        low = solver.solve({"c1": 25.0})
        high = solver.solve({"c1": 50.0})
        # double the flow -> four times the loss on every loaded segment
        assert high.segments["e2"].loss_kw == pytest.approx(
            4.0 * low.segments["e2"].loss_kw
        )

    def test_expected_loss_value(self):
        solver = FlowSolver(radial_network())
        state = solver.solve({"c1": 50.0})
        # e2: 0.02 * 0.5 km * 100 kW * (50/100)^2 = 0.25 kW
        assert state.segments["e2"].loss_kw == pytest.approx(0.25)

    def test_efficiency_and_injection(self):
        solver = FlowSolver(radial_network())
        state = solver.solve({"c1": 50.0, "c2": 30.0})
        assert state.delivered_kw == pytest.approx(80.0)
        assert state.injected_kw == pytest.approx(
            80.0 + state.losses_kw
        )
        assert 0.9 < state.efficiency < 1.0

    def test_idle_network_is_lossless(self):
        solver = FlowSolver(radial_network())
        state = solver.solve({})
        assert state.losses_kw == 0.0
        assert state.efficiency == 1.0

    def test_overload_detection(self):
        solver = FlowSolver(radial_network())
        state = solver.solve({"c1": 150.0})
        overloaded = state.overloaded_segments
        assert [s.edge_id for s in overloaded] == ["e2"]
        assert overloaded[0].utilisation == pytest.approx(1.5)

    def test_worst_segments_ranked(self):
        solver = FlowSolver(radial_network())
        state = solver.solve({"c1": 90.0, "c2": 10.0})
        worst = state.worst_segments(2)
        assert worst[0].edge_id == "e2"

    def test_negative_demand_reduces_upstream_flow(self):
        # PV at c2 injecting 20 kW while c1 draws 50
        solver = FlowSolver(radial_network())
        state = solver.solve({"c1": 50.0, "c2": -20.0})
        assert state.segments["e1"].flow_kw == pytest.approx(30.0)

    def test_non_consumer_demand_rejected(self):
        solver = FlowSolver(radial_network())
        with pytest.raises(QueryError):
            solver.solve({"j1": 10.0})

    def test_generated_district_network_solves(self):
        from repro.datasources.generators import synthesize_district

        district = synthesize_district(seed=8, n_buildings=6, n_networks=1)
        sim = district.networks[0].sim
        solver = FlowSolver(sim)
        demands = {node["node_id"]: 25.0
                   for node in sim.nodes(NODE_CONSUMER)}
        state = solver.solve(demands)
        assert state.delivered_kw == pytest.approx(25.0 * len(demands))
        assert state.losses_kw > 0.0
        assert 0.0 < state.efficiency <= 1.0


class TestDemandsFromModel:
    def build_model(self, watts=40_000.0):
        from repro.common.cdf import EntityModel
        from repro.core.integration import integrate
        from repro.ontology.queries import (
            ResolvedArea,
            ResolvedDevice,
            ResolvedEntity,
        )

        feeder = ResolvedDevice("dev-0100", "svc://p/", "zigbee",
                                ("power", "energy"), False)
        building = ResolvedEntity("bld-0001", "building", "B1", {}, "",
                                  (feeder,))
        network = ResolvedEntity("net-0001", "network", "N1", {}, "", ())
        resolved = ResolvedArea("dst-0001", "D", (), (),
                                (building, network))
        bim = EntityModel(entity_id="bld-0001", entity_type="building",
                          source_kind="bim", name="B1",
                          properties={"cadastral_id": "TO-01-1000"})
        return integrate(resolved, {"bld-0001": [bim]}, {
            "bld-0001": {("dev-0100", "power"): [(0.0, watts)]},
        })

    def test_demands_joined_via_cadastral(self):
        model = self.build_model(watts=40_000.0)
        demands = demands_from_model(model, "net-0001", radial_network())
        assert demands == {"c1": pytest.approx(40.0)}

    def test_load_fraction_scales(self):
        model = self.build_model(watts=40_000.0)
        demands = demands_from_model(model, "net-0001", radial_network(),
                                     load_fraction=0.5)
        assert demands["c1"] == pytest.approx(20.0)

    def test_bad_fraction_rejected(self):
        model = self.build_model()
        with pytest.raises(QueryError):
            demands_from_model(model, "net-0001", radial_network(),
                               load_fraction=0.0)

    def test_no_served_buildings_raises(self):
        model = self.build_model()
        sim = SimStore("empty-net", COMMODITY_ELECTRICITY)
        sim.add_node("plant", NODE_PLANT, 0, 0)
        with pytest.raises(IntegrationError):
            demands_from_model(model, "net-0001", sim)

    def test_only_an_unserved_parcel_is_skipped(self, monkeypatch):
        # UnknownEntityError means "this network does not serve the
        # parcel"; any other exception is a bug and propagates
        model = self.build_model(watts=40_000.0)
        sim = radial_network()

        def broken(cadastral_id):
            raise KeyError("not an unserved parcel")

        monkeypatch.setattr(sim, "consumer_for_parcel", broken)
        with pytest.raises(KeyError):
            demands_from_model(model, "net-0001", sim)

    def test_unknown_network_raises(self):
        model = self.build_model()
        with pytest.raises(IntegrationError):
            demands_from_model(model, "net-0404", radial_network())
