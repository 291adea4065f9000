"""Tests for the proxy-local DB, query objects and global measurement DB."""

import math
import random

import pytest

from repro.common.cdf import Measurement
from repro.errors import QueryError, SeriesNotFoundError
from repro.middleware.broker import Broker
from repro.middleware.peer import connect
from repro.middleware.topics import measurement_topic
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.storage.localdb import LocalDatabase
from repro.storage.measurementdb import MeasurementDatabase
from repro.storage.query import RangeQuery, RollupQuery
from repro.storage.timeseries import AGGREGATIONS, TimeSeries


def meas(device="dev-0001", quantity="power", value=100.0, t=0.0,
         entity="bld-0001"):
    return Measurement(device_id=device, entity_id=entity,
                       quantity=quantity, value=value, timestamp=t)


class TestLocalDatabase:
    def test_insert_and_latest(self):
        db = LocalDatabase()
        db.insert(meas(value=1.0, t=0.0))
        db.insert(meas(value=2.0, t=60.0))
        assert db.latest("dev-0001", "power") == (60.0, 2.0)
        assert db.inserts == 2

    def test_devices_and_quantities(self):
        db = LocalDatabase()
        db.insert(meas(device="dev-0002", quantity="power"))
        db.insert(meas(device="dev-0001", quantity="temperature"))
        db.insert(meas(device="dev-0001", quantity="power"))
        assert db.devices() == ["dev-0001", "dev-0002"]
        assert db.quantities("dev-0001") == ["power", "temperature"]

    def test_missing_series_raises(self):
        db = LocalDatabase()
        with pytest.raises(SeriesNotFoundError):
            db.series("dev-0009", "power")

    def test_query_raw(self):
        db = LocalDatabase()
        for i in range(5):
            db.insert(meas(value=float(i), t=i * 60.0))
        result = db.query(RangeQuery("dev-0001", "power", start=60.0,
                                     end=240.0))
        assert result == [(60.0, 1.0), (120.0, 2.0), (180.0, 3.0)]

    def test_query_aggregated(self):
        db = LocalDatabase()
        for i in range(4):
            db.insert(meas(value=float(i), t=i * 30.0))
        result = db.query(RangeQuery("dev-0001", "power", bucket=60.0,
                                     agg="mean"))
        assert result == [(0.0, 0.5), (60.0, 2.5)]

    def test_query_unbounded_window(self):
        db = LocalDatabase()
        db.insert(meas(value=7.0, t=100.0))
        assert db.query(RangeQuery("dev-0001", "power")) == [(100.0, 7.0)]

    def test_retention_prunes(self):
        db = LocalDatabase(retention=100.0)
        db.insert(meas(value=1.0, t=0.0))
        db.insert(meas(value=2.0, t=50.0))
        db.insert(meas(value=3.0, t=200.0))
        series = db.series("dev-0001", "power")
        assert series.to_pairs() == [(200.0, 3.0)]

    def test_sample_count(self):
        db = LocalDatabase()
        db.insert(meas())
        db.insert(meas(quantity="temperature", value=20.0))
        assert db.sample_count() == 2

    def test_has_series(self):
        db = LocalDatabase()
        assert not db.has_series("dev-0001", "power")
        db.insert(meas())
        assert db.has_series("dev-0001", "power")


class TestLocalQueryIsWindowThenResample:
    """``LocalDatabase.query`` bisects the series and aggregates the
    slice in place; it must answer what the copy-then-aggregate road
    ``series.window(...).resample(...)`` / ``.to_pairs()`` answers."""

    #: before, at the edges of, inside and after the data (60 .. 2400)
    BOUNDS = (None, -math.inf, -50.0, 60.0, 61.0, 1000.0, 2400.0, 2401.0,
              9e9, math.inf)

    @staticmethod
    def expected(series, query):
        windowed = series.window(
            -math.inf if query.start is None else query.start,
            math.inf if query.end is None else query.end)
        if query.bucket is None:
            return windowed.to_pairs()
        return windowed.resample(query.bucket, query.agg)

    def check(self, db, **window):
        series = db.series("dev-0001", "power")
        for bucket in (None, 7.0, 300.0, 1e6):
            for agg in AGGREGATIONS if bucket else ("mean",):
                query = RangeQuery("dev-0001", "power", bucket=bucket,
                                   agg=agg, **window)
                answer = db.query(query)
                assert answer == self.expected(series, query)
                assert repr(answer) == repr(self.expected(series, query))

    def test_every_pair_of_bounds(self):
        rng = random.Random(3)
        db = LocalDatabase()
        for t in rng.sample(range(60, 2401, 20), 80) + [60, 2400, 2400]:
            db.insert(meas(value=rng.uniform(-1e4, 1e4), t=float(t)))
        for start in self.BOUNDS:
            for end in self.BOUNDS:
                if start is None or end is None or start <= end:
                    self.check(db, start=start, end=end)

    def test_empty_window_and_window_outside_the_data(self):
        db = LocalDatabase()
        db.insert(meas(value=1.0, t=100.0))
        for window in ({"start": 100.0, "end": 100.0},
                       {"start": 500.0}, {"end": 50.0},
                       {"start": 200.0, "end": 300.0}):
            for bucket in (None, 60.0):
                assert db.query(RangeQuery("dev-0001", "power",
                                           bucket=bucket, **window)) == []

    def test_open_start_with_end_before_the_data_is_empty(self):
        # was a StorageError ("reversed window"), a 500 through /data:
        # the open start was replaced by the first sample's time
        db = LocalDatabase()
        db.insert(meas(value=1.0, t=100.0))
        assert db.query(RangeQuery("dev-0001", "power", end=10.0)) == []

    def test_series_emptied_by_pruning(self):
        db = LocalDatabase()
        db.insert(meas(value=1.0, t=100.0))
        db.series("dev-0001", "power").prune_before(1e9)
        for bucket in (None, 60.0):
            for window in ({}, {"start": 0.0}, {"end": 1e9}):
                assert db.query(RangeQuery("dev-0001", "power",
                                           bucket=bucket, **window)) == []
        assert TimeSeries().resample(60.0) == []


class TestSeriesListParams:
    """``list_from_params`` parses the window its entries share once; it
    must decode what a ``from_params`` per entry decodes, and fail the
    way that fails."""

    WINDOWS = ({}, {"start": "10.0"}, {"end": "1e3", "agg": "max"},
               {"start": "-inf", "end": "inf", "bucket": "300.0"},
               {"start": "0", "end": "0", "bucket": "7", "agg": "count"},
               {"bucket": "", "start": ""})
    ENTRIES = ("dev-0001/power", "dev-0001/energy", "dev-0002/a/b",
               "dev-0001/power")

    @staticmethod
    def per_entry(params):
        """The pre-PR-22 decode: one ``from_params`` per series entry."""
        queries = []
        for entry in params["series"].split(","):
            device_id, _, quantity = entry.partition("/")
            if not device_id or not quantity:
                raise QueryError(f"malformed series entry {entry!r}")
            queries.append(RangeQuery.from_params(
                {**params, "device_id": device_id, "quantity": quantity}))
        return queries

    def outcome(self, decode, params):
        try:
            return decode(params)
        except QueryError as exc:
            return str(exc)

    def test_well_formed_requests(self):
        for window in self.WINDOWS:
            for n in range(1, len(self.ENTRIES) + 1):
                params = {**window, "series": ",".join(self.ENTRIES[:n])}
                queries = RangeQuery.list_from_params(params)
                assert queries == self.per_entry(params)
                assert [q.quantity for q in queries][:3] == \
                    ["power", "energy", "a/b"][:n]
                assert RangeQuery.list_from_params(
                    RangeQuery.to_series_params(queries)) == queries

    def test_single_series_form(self):
        params = {"device_id": "d", "quantity": "q", "bucket": "60"}
        assert RangeQuery.list_from_params(params) == \
            [RangeQuery.from_params(params)]

    @pytest.mark.parametrize("bad_window", [
        {"start": "20", "end": "10"}, {"agg": "p95"}, {"bucket": "0"},
        {"bucket": "soon"}, {"bucket": "nan"}, {"bucket": "inf"},
        {"start": "nan"}, {"end": "nan"}, {},
    ])
    @pytest.mark.parametrize("bad_entry", ["", "dev-0001", "/power",
                                           "dev-0001/", None])
    def test_same_error_wherever_it_stands(self, bad_window, bad_entry):
        if not bad_window and bad_entry is None:
            return  # nothing wrong with this one
        for position in range(4):
            entries = list(self.ENTRIES[:3])
            if bad_entry is not None:
                entries.insert(position, bad_entry)
            params = {**bad_window, "series": ",".join(entries)}
            expected = self.outcome(self.per_entry, params)
            assert isinstance(expected, str)
            assert self.outcome(RangeQuery.list_from_params, params) == \
                expected


class TestNonFiniteQueries:
    """NaN never reaches the wire: a non-finite bucket / step or a NaN
    bound is rejected where the query is built."""

    @pytest.mark.parametrize("bucket", [math.nan, math.inf, -math.inf,
                                        0.0, -1.0])
    def test_bucket_and_step_must_be_finite_and_positive(self, bucket):
        with pytest.raises(QueryError):
            RangeQuery("d", "power", bucket=bucket)
        with pytest.raises(QueryError):
            RollupQuery("d", "power", 0.0, 10.0, step=bucket)

    def test_nan_bounds_rejected_infinite_bounds_are_open(self):
        for window in ({"start": math.nan}, {"end": math.nan},
                       {"start": math.nan, "end": math.nan}):
            with pytest.raises(QueryError):
                RangeQuery("d", "power", **window)
            with pytest.raises(QueryError):
                RollupQuery("d", "power", **{"start": 0.0, "end": 1.0,
                                             **window}, step=60.0)
        assert RangeQuery("d", "power", start=-math.inf, end=math.inf)
        assert RollupQuery("d", "power", -math.inf, math.inf, 60.0)

    def test_from_params_spellings(self):
        for raw in ("nan", "NaN", "inf", "-inf", "Infinity"):
            with pytest.raises(QueryError):
                RangeQuery.from_params({"device_id": "d",
                                        "quantity": "q", "bucket": raw})
            with pytest.raises(QueryError):
                RollupQuery.from_params({"target": "d", "quantity": "q",
                                         "start": "0", "end": "1",
                                         "step": raw})


class TestRangeQuery:
    def test_params_round_trip(self):
        q = RangeQuery("dev-0001", "power", start=10.0, end=20.0,
                       bucket=900.0, agg="max")
        assert RangeQuery.from_params(q.to_params()) == q

    def test_optional_fields_round_trip(self):
        q = RangeQuery("dev-0001", "power")
        again = RangeQuery.from_params(q.to_params())
        assert again.start is None and again.bucket is None

    def test_reversed_window_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery("d", "power", start=20.0, end=10.0)

    def test_bad_bucket_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery("d", "power", bucket=-5.0)

    def test_unknown_agg_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery("d", "power", agg="p95")

    def test_missing_params_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery.from_params({"quantity": "power"})

    def test_bad_numeric_param_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery.from_params(
                {"device_id": "d", "quantity": "power", "start": "soon"}
            )


@pytest.fixture
def district_net():
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(net.add_host("broker"))
    mdb = MeasurementDatabase(net.add_host("mdb"), "broker", "dst-0001")
    publisher = connect(net.add_host("proxy"), "broker")
    # run_for, not run_until_idle: the store's periodic compaction tick
    # keeps the event queue from ever idling
    net.scheduler.run_for(1.0)  # subscription handshake
    return net, mdb, publisher


class TestMeasurementDatabase:
    def publish(self, net, publisher, m):
        topic = measurement_topic("dst-0001", m.entity_id, m.device_id,
                                  m.quantity)
        publisher.publish(topic, m.to_dict())
        net.scheduler.run_for(1.0)

    def test_ingests_published_measurements(self, district_net):
        net, mdb, publisher = district_net
        self.publish(net, publisher, meas(value=42.0, t=10.0))
        assert mdb.ingested == 1
        assert mdb.store.latest("dev-0001", "power") == (10.0, 42.0)

    def test_rejects_non_measurement_payloads(self, district_net):
        net, mdb, publisher = district_net
        topic = measurement_topic("dst-0001", "bld-0001", "dev-0001", "power")
        publisher.publish(topic, {"record": "hologram"})
        publisher.publish(topic, "not even a dict")
        net.scheduler.run_for(1.0)
        assert mdb.ingested == 0
        assert mdb.rejected == 2

    def test_freshness_tracks_newest(self, district_net):
        net, mdb, publisher = district_net
        self.publish(net, publisher, meas(t=100.0))
        self.publish(net, publisher, meas(t=50.0))  # late arrival
        assert mdb.freshness("dev-0001") == 100.0
        assert mdb.freshness("dev-0009") is None

    def test_ignores_other_districts(self, district_net):
        net, mdb, publisher = district_net
        m = meas()
        topic = measurement_topic("dst-0999", m.entity_id, m.device_id,
                                  m.quantity)
        publisher.publish(topic, m.to_dict())
        net.scheduler.run_for(1.0)
        assert mdb.ingested == 0

    def test_web_service_query(self, district_net):
        net, mdb, publisher = district_net
        for i in range(3):
            self.publish(net, publisher, meas(value=float(i), t=i * 60.0))
        query = RangeQuery("dev-0001", "power", start=0.0, end=1000.0)
        assert mdb.query(query) == [(0.0, 0.0), (60.0, 1.0), (120.0, 2.0)]

    def test_web_service_404_for_unknown_series(self, district_net):
        net, mdb, publisher = district_net
        with pytest.raises(SeriesNotFoundError):
            mdb.query(RangeQuery("dev-0404", "power"))

    def test_web_service_400_for_bad_query(self, district_net):
        with pytest.raises(QueryError):
            RangeQuery.from_params({"device_id": "d"})

    def test_devices_route(self, district_net):
        net, mdb, publisher = district_net
        self.publish(net, publisher, meas(device="dev-0002"))
        assert mdb.store.devices() == ["dev-0002"]

    def test_freshness_route(self, district_net):
        net, mdb, publisher = district_net
        self.publish(net, publisher, meas(t=77.0))
        assert mdb.freshness("dev-0001") == 77.0
        assert mdb.freshness("dev-0404") is None
