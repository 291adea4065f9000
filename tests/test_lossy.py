"""Robustness under packet loss: lossy radio links and a lossy network.

The infrastructure must degrade (fewer samples), never corrupt (every
stored sample is still a valid measurement) and never wedge (queries
keep answering).
"""

from functools import partial

import pytest

from repro.devices.firmware import RadioLink
from repro.ontology import AreaQuery
from repro.simulation import ScenarioConfig, deploy, scenario


@pytest.fixture(scope="module")
def lossy_radio_district():
    # every radio link loses 30 % of its frames from the first one on:
    # deploy() already sends a frame, so setting link.loss afterwards
    # would skip that frame's draw and shift the links' loss streams
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "RadioLink", partial(RadioLink, loss=0.3))
        d = deploy(ScenarioConfig(seed=61, n_buildings=3,
                                  devices_per_building=3, n_networks=0,
                                  net_jitter=0.0))
    d.run(1800.0)
    return d


class TestLossyRadio:
    def test_some_frames_lost_but_data_flows(self, lossy_radio_district):
        d = lossy_radio_district
        dropped = sum(f.link.frames_dropped for f in d.firmwares)
        received = sum(p.frames_received
                       for p in d.device_proxies.values())
        assert dropped > 0
        assert received > 0
        assert d.measurement_db.ingested > 0

    def test_loss_rate_roughly_matches(self, lossy_radio_district):
        d = lossy_radio_district
        dropped = sum(f.link.frames_dropped for f in d.firmwares)
        delivered = sum(f.link.frames_up for f in d.firmwares)
        rate = dropped / (dropped + delivered)
        assert 0.2 < rate < 0.4  # configured 0.3

    def test_stored_values_remain_sane(self, lossy_radio_district):
        d = lossy_radio_district
        for proxy in d.device_proxies.values():
            assert proxy.frames_rejected == 0  # loss, not corruption
            for device in proxy.devices():
                for quantity in device.quantities:
                    if not proxy.database.has_series(device.device_id,
                                                     quantity):
                        continue  # every sample of this series was lost
                    _t, value = proxy.database.latest(device.device_id,
                                                      quantity)
                    truth = device.channel(quantity).read(
                        d.scheduler.now
                    )
                    # sanity scale check, not exactness: last sample may
                    # be older than `now`
                    assert abs(value) <= abs(truth) * 10 + 1e5

    def test_queries_still_answer(self, lossy_radio_district):
        d = lossy_radio_district
        client = d.client("lossy-user", with_broker=False)
        model = client.build_area_model(
            AreaQuery(district_id=d.district_id), with_data=True,
        )
        assert len(model.buildings) == 3


class TestLossyNetwork:
    def test_end_to_end_survives_ip_loss(self):
        # 5% loss on the simulated IP network: pub/sub events and even
        # some request/response pairs vanish; timeouts must cover it
        d = deploy(ScenarioConfig(seed=62, n_buildings=2,
                                  devices_per_building=2, n_networks=0,
                                  net_jitter=0.0))
        d.network.drop_probability = 0.05
        d.run(900.0)
        assert d.network.stats.messages_dropped > 0
        assert d.measurement_db.ingested > 0
        client = d.client("ip-lossy-user", with_broker=False)
        client.http.timeout = 1.0
        # retry loop: a dropped request/response shows up as a timeout,
        # which a real client retries
        from repro.errors import RequestTimeoutError
        model = None
        for _attempt in range(10):
            try:
                model = client.build_area_model(
                    AreaQuery(district_id=d.district_id), strict=False,
                )
                break
            except RequestTimeoutError:
                continue
        assert model is not None
        assert len(model.buildings) == 2
