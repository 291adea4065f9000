"""Experiment C8 — remote control of actuator devices (§II).

Device-proxies "allow the remote control of actuator devices".
Measures, per protocol:

* simulated actuation round-trip (client POST -> command frame ->
  device applies -> post-command report -> ActuationResult on the
  middleware);
* success rate under device churn (a fraction of actuators offline);
* command-storm behaviour: every actuator in a district commanded at
  once.
"""

import pytest

from repro.common.cdf import ActuationResult
from repro.observability import MetricsRegistry
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy

EXPERIMENT = "C8"


@pytest.fixture(scope="module")
def district():
    deployment = deploy(ScenarioConfig(
        seed=88, n_buildings=8, devices_per_building=6, n_networks=1,
    ))
    deployment.run(600.0)
    return deployment


def actuators_of(district, client):
    resolved = client.resolve(AreaQuery(district_id=district.district_id))
    return [d for e in resolved.entities for d in e.devices
            if d.is_actuator]


def test_actuation_round_trip(district, benchmark, report):
    client = district.client("c8-user")
    actuators = actuators_of(district, client)
    assert actuators
    metrics = MetricsRegistry()
    by_protocol = {}

    def actuate_all():
        outcomes = []
        for device in actuators:
            command = ("setpoint" if "setpoint" in device.quantities
                       else "switch" if "state" in device.quantities
                       else "dim")
            value = {"setpoint": 19.0, "switch": 1.0, "dim": 0.8}[command]
            results = []
            start = district.scheduler.now
            client.actuate(device, command, value,
                           on_result=results.append)
            district.run(6.0)
            assert results, f"no actuation result for {device.device_id}"
            result = results[-1]
            elapsed = result.completed_at - start
            metrics.histogram("round-trip").observe(elapsed)
            by_protocol.setdefault(device.protocol, []).append(elapsed)
            outcomes.append(result.accepted)
        return outcomes

    with report.measure(EXPERIMENT, district.network):
        outcomes = benchmark.pedantic(actuate_all, rounds=1, iterations=1)
    assert all(outcomes)
    summary = metrics.summary("round-trip")
    report.header(EXPERIMENT, "remote actuation through Device-proxies")
    report.add(EXPERIMENT,
               f"{len(outcomes)} commands, all confirmed; round-trip "
               f"p50={summary.p50 * 1e3:7.2f}ms "
               f"p99={summary.p99 * 1e3:7.2f}ms")
    for protocol, values in sorted(by_protocol.items()):
        mean = sum(values) / len(values)
        report.add(EXPERIMENT,
                   f"  protocol {protocol:<11s} n={len(values):<3d} "
                   f"mean round-trip={mean * 1e3:7.2f}ms")


def test_actuation_under_churn(district, benchmark, report):
    client = district.client("c8-churn-user")
    actuators = actuators_of(district, client)
    # take every third actuator's device offline
    downed = []
    for index, device in enumerate(actuators):
        if index % 3 == 0:
            for firmware in district.firmwares:
                if firmware.device.device_id == device.device_id:
                    firmware.stop()
                    downed.append(device.device_id)

    def storm():
        pending = {}
        for device in actuators:
            command = ("setpoint" if "setpoint" in device.quantities
                       else "switch" if "state" in device.quantities
                       else "dim")
            value = {"setpoint": 18.0, "switch": 1.0, "dim": 0.5}[command]
            results = []
            client.actuate(device, command, value,
                           on_result=results.append)
            pending[device.device_id] = results
        district.run(8.0)  # > the proxies' actuation timeout
        return pending

    pending = benchmark.pedantic(storm, rounds=1, iterations=1)
    confirmed = rejected = 0
    for device_id, results in pending.items():
        assert results, f"no result at all for {device_id}"
        result = results[-1]
        assert isinstance(result, ActuationResult)
        if result.accepted:
            confirmed += 1
            assert device_id not in downed
        else:
            rejected += 1
            assert device_id in downed, (
                f"{device_id} is online but its actuation timed out"
            )
    report.add(EXPERIMENT,
               f"churn storm: {len(pending)} commands with "
               f"{len(downed)} devices offline -> {confirmed} confirmed, "
               f"{rejected} timed out (every failure correctly "
               f"attributed to an offline device)")
