"""Conditional GET: a model, a resolve or a data answer travels once.

Every ``/model`` and ``/feature/{id}`` answer carries ``token``, the
proxy store's version, every ``/data`` answer the Device-proxy local
database's insert count, and every ``/resolve`` answer the master's
ontology epoch token; a client that holds an answer sends that token
back as ``if_none_match`` and gets a bodyless 304 while the source has
not changed, reusing the answer it already decoded.  The contract:

* equal (URI, params, token) => an equal answer, and that answer is what
  a fresh translate + encode (or a fresh resolve, or a fresh aggregate)
  gives;
* every store mutation, sample insert, registration and eviction is
  visible on the next fetch, so a 304 never answers across one;
* ``translations`` counts 200 model answers, never 304s;
* a repeat fetch with no mutation in between is a 304;
* a dark proxy's answer is missing, never served from the held copy,
  and the held copy revalidates once the proxy is back.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common import serialization
from repro.common.cdf import Measurement
from repro.core.client import DistrictClient
from repro.core.master import MasterNode
from repro.datasources.bim import IFC_PROPERTY_SET, IFC_SPACE, IFC_STOREY
from repro.datasources.generators import synthesize_district
from repro.datasources.geometry import rectangle
from repro.datasources.gis import LAYER_BUILDINGS
from repro.datasources.sim import NODE_JUNCTION
from repro.devices.catalog import power_meter
from repro.devices.firmware import RadioLink
from repro.devices.profiles import ConstantProfile
from repro.errors import RequestTimeoutError, SeriesNotFoundError, \
    ServiceError
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import GET, HttpClient, Response, WebService
from repro.ontology.queries import (
    AreaQuery,
    ResolvedDevice,
    ResolvedEntity,
    resolve,
)
from repro.protocols import make_adapter
from repro.proxies.database_proxy import BimProxy, GisProxy, SimProxy
from repro.proxies.device_proxy import DeviceProxy
from repro.storage.query import RangeQuery

SOURCES = ("bim", "sim", "gis")
DEVICES = ("dev-0001", "dev-0002")
QUANTITIES = ("power", "energy")
#: the series the data rules read and write: one per device, so a run
#: often re-reads a series it wrote to
SERIES = (("dev-0001", "power"), ("dev-0002", "energy"))
#: short enough that inserts late in a run prune early samples
RETENTION = 900.0
#: few enough that a run re-asks the same (series, window) often
windows = st.sampled_from([
    {"start": None, "end": None, "bucket": None, "agg": "mean"},
    {"start": 600.0, "end": 1800.0, "bucket": None, "agg": "mean"},
    {"start": None, "end": 2400.0, "bucket": 300.0, "agg": "mean"},
    {"start": 0.0, "end": None, "bucket": 300.0, "agg": "max"},
])


class Sources:
    """One BIM, one SIM and the GIS proxy of a two-building district and
    a Device-proxy with two power meters in the first building, all
    registered on a master, and a client that has fetched nothing yet.
    No firmware runs: the Device-proxy stores only what a test inserts."""

    def __init__(self):
        dataset = synthesize_district(seed=5, n_buildings=2, n_networks=1)
        self.net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        building, network = dataset.buildings[0], dataset.networks[0]
        self.feature_id = building.feature_id
        self.proxies = {
            "bim": BimProxy(self.net.add_host("proxy-bim"), building.bim,
                            building.entity_id, dataset.district_id),
            "sim": SimProxy(self.net.add_host("proxy-sim"), network.sim,
                            network.entity_id, dataset.district_id),
            "gis": GisProxy(self.net.add_host("proxy-gis"), dataset.gis,
                            dataset.district_id),
        }
        self.district_id = dataset.district_id
        self.device_proxy = DeviceProxy(
            self.net.add_host("proxy-dev"), make_adapter("zigbee"),
            "broker", dataset.district_id, retention=RETENTION)
        for index, device_id in enumerate(DEVICES):
            self.device_proxy.attach_device(
                power_meter(device_id, "zigbee",
                            f"00:12:4b:00:00:00:00:{index:02x}",
                            building.entity_id, ConstantProfile(0.0)),
                RadioLink(self.net.scheduler))
        #: every proxy that registers: the model sources and "dev"
        self.registrants = {**self.proxies, "dev": self.device_proxy}
        self.master = MasterNode(self.net.add_host("master"))
        for proxy in self.registrants.values():
            self.master.register(proxy._registration(None, full=True))
        self.client = DistrictClient(self.net.add_host("user"),
                                     self.master.uri)
        self.client.http.timeout = 0.5

    def entity(self, source, entity_id="bld-0001"):
        """The resolve answer that sends a client to one source only."""
        if source == "gis":
            return ResolvedEntity(entity_id, "building", "", {},
                                  self.feature_id, ())
        proxy = self.proxies[source]
        kind = "building" if source == "bim" else "network"
        return ResolvedEntity(proxy.entity_id, kind, "",
                              {source: proxy.uri}, "", ())

    def fresh(self, source, entity_id="bld-0001"):
        """What the source translates to right now."""
        if source == "gis":
            return self.proxies["gis"].translate_feature(self.feature_id,
                                                         entity_id)
        return self.proxies[source].translate()

    def fetch(self, source, entity_id="bld-0001", fmt="json", strict=True):
        return self.client.fetch_entity_models(
            self.entity(source, entity_id), (self.proxies["gis"].uri,),
            fmt, strict=strict)

    def fetch_data(self, device_id, quantity, window, strict=True):
        return self.client.fetch_device_data(
            ResolvedDevice(device_id, self.device_proxy.uri, "zigbee",
                           QUANTITIES, False),
            quantity, strict=strict, **window)

    def fresh_samples(self, device_id, quantity, window):
        """What a fresh read of the Device-proxy's database gives."""
        try:
            return self.device_proxy.database.query(
                RangeQuery(device_id, quantity, **window))
        except SeriesNotFoundError:
            return []


class RevalidationMachine(RuleBasedStateMachine):
    """Store verbs, Device-proxy sample inserts, registrations and lease
    evictions interleaved with warm (revalidating) and cold fetches of
    BIM and SIM models and of GIS features under varying entity ids, in
    JSON and XML; warm ``/data`` reads under varying windows, across
    Device-proxy outages too; whole-workflow builds of one building with
    its data; and warm resolves of the whole district and of one
    building."""

    def __init__(self):
        super().__init__()
        self.sources = Sources()
        self.reader = HttpClient(self.sources.net.add_host("reader"))
        self.names = iter(range(10**6))
        #: every request the client waited for, with its outcome
        self.wire = []
        #: (round, index) of every request sent and not yet waited for
        self.unwaited = {}
        http = self.sources.client.http
        issue, self.wait = http.issue, http.wait

        def spy_issue(calls):
            pending = issue(calls)
            self.unwaited.update(dict.fromkeys(
                (pending, index) for index in range(len(calls))))
            return pending

        def spy_wait(pending, indices):
            outcomes = self.wait(pending, indices)
            for index, outcome in zip(indices, outcomes):
                del self.unwaited[pending, index]
                self.wire.append((pending.calls[index], outcome))
            return outcomes

        http.issue, http.wait = spy_issue, spy_wait
        #: key -> source, for keys the client fetched since their
        #: source's last mutation
        self.unchanged = {}
        #: (key, token) -> the document or area a 200 carried under it
        self.documents = {}
        self.bodies = 0

    @property
    def bim(self):
        return self.sources.proxies["bim"].store

    @property
    def sim(self):
        return self.sources.proxies["sim"].store

    def mutated(self, source):
        self.unchanged = {key: kind for key, kind in self.unchanged.items()
                          if kind != source}

    def name(self, prefix, width=0):
        return f"{prefix}{next(self.names):0{width}d}"

    # -- store verbs -------------------------------------------------------

    @rule(pick=st.integers(0, 10**3))
    def add_record(self, pick):
        parents = [r["GlobalId"] for r in self.bim.by_type(IFC_STOREY)]
        self.bim.add_record(self.name("G", 21), IFC_SPACE,
                            f"Room {pick}", parents[pick % len(parents)])
        self.mutated("bim")

    @rule(pick=st.integers(0, 10**3), area=st.integers(1, 500))
    def add_property_set(self, pick, area):
        spaces = self.bim.spaces()
        self.bim.add_property_set(spaces[pick % len(spaces)]["GlobalId"],
                                  self.name("P", 21), "Pset_Space",
                                  {"NetArea": float(area)})
        self.mutated("bim")

    @rule(pick=st.integers(0, 10**3),
          name=st.sampled_from(["YearOfConstruction", "NetArea",
                                "Elevation", "LongName"]),
          value=st.integers(0, 3000))
    def set_property(self, pick, name, value):
        psets = self.bim.by_type(IFC_PROPERTY_SET)
        self.bim.set_property(psets[pick % len(psets)]["GlobalId"], name,
                              value)
        self.mutated("bim")

    @rule(x=st.integers(0, 500), y=st.integers(0, 500))
    def add_feature(self, x, y):
        self.sources.proxies["gis"].store.add_feature(
            LAYER_BUILDINGS, rectangle(float(x), float(y), 12.0, 8.0),
            {"cadastral_id": self.name("TO-09-", 4)})
        self.mutated("gis")

    @rule(x=st.integers(0, 500), y=st.integers(0, 500))
    def add_node(self, x, y):
        self.sim.add_node(self.name("n-x"), NODE_JUNCTION, float(x),
                          float(y))
        self.mutated("sim")

    @rule(tail=st.integers(0, 10**3), head=st.integers(0, 10**3),
          length=st.integers(1, 400))
    def add_edge(self, tail, head, length):
        nodes = [node["node_id"] for node in self.sim.nodes()]
        self.sim.add_edge(self.name("e-x"), nodes[tail % len(nodes)],
                          nodes[head % len(nodes)], float(length), 250.0)
        self.mutated("sim")

    @rule(series=st.sampled_from(SERIES), at=st.integers(0, 2400),
          value=st.integers(0, 10**4))
    def insert(self, series, at, value):
        """One Device-proxy sample, at any time: late, early or equal."""
        device_id, quantity = series
        self.sources.device_proxy.database.insert(Measurement(
            device_id=device_id, entity_id="bld-0001", quantity=quantity,
            value=float(value), timestamp=float(at)))
        self.mutated("dev")

    # -- the master: registrations and lease evictions --------------------

    @rule(source=st.sampled_from(SOURCES + ("dev",)),
          lease=st.sampled_from([None, 20.0]))
    def register(self, source, lease):
        proxy = self.sources.registrants[source]
        self.sources.master.register(proxy._registration(lease, full=True))

    @rule(source=st.sampled_from(SOURCES + ("dev",)))
    def evict(self, source):
        self.sources.master._evict_uri(self.sources.registrants[source].uri)

    @rule(seconds=st.sampled_from([5.0, 30.0]))
    def advance(self, seconds):
        """Let time pass: a leased registration may run out."""
        self.sources.net.scheduler.run_for(seconds)

    # -- fetches -----------------------------------------------------------

    @rule(source=st.sampled_from(SOURCES),
          entity_id=st.sampled_from(["bld-0001", "bld-0002"]),
          fmt=st.sampled_from(sorted(serialization.FORMATS)))
    def fetch(self, source, entity_id, fmt):
        model, = self.sources.fetch(source, entity_id, fmt)
        (call, outcome), = self.wire
        self.wire.clear()
        encoded = serialization.encode(self.sources.fresh(source, entity_id),
                                       fmt)
        # a 304 hands back a model exactly as fresh as a body would be
        assert model == serialization.decode(encoded, fmt)
        key, _ = self.revalidated(call, outcome, source)
        if outcome.status == 200:
            self.record(key, outcome.body, encoded)

    def revalidated(self, call, outcome, source):
        """Check one conditional GET: a bodyless 304 exactly when the
        client fetched this key since its source last changed.  Returns
        the key and the token its answer is held under."""
        claimed = call["params"].get("if_none_match")
        key = self.key_of(call)
        if key in self.unchanged:
            assert claimed is not None and outcome.status == 304
            assert outcome.body is None
            token = claimed
        else:
            assert outcome.status == 200
            token = outcome.body["token"]
        self.unchanged[key] = source
        return key, token

    @staticmethod
    def key_of(call):
        """The client's held-answer key of a request."""
        return (call["uri"], tuple(sorted(
            (name, value) for name, value in call["params"].items()
            if name != "if_none_match")))

    def held(self, key, token, answer):
        """Equal (key, token) => equal answer."""
        assert self.documents.setdefault((key, token), answer) == answer

    @rule(series=st.sampled_from(SERIES), window=windows)
    def fetch_data(self, series, window):
        """A warm ``/data`` read: a 304 exactly while the Device-proxy
        stored nothing new, and either way a fresh aggregate's answer."""
        samples = self.sources.fetch_data(*series, window)
        (call, outcome), = self.wire
        self.wire.clear()
        assert samples == self.sources.fresh_samples(*series, window)
        self.held(*self.revalidated(call, outcome, "dev"), [samples])

    @rule(series=st.sampled_from(SERIES), window=windows,
          at=st.integers(0, 2400), value=st.integers(0, 10**4))
    def reread_across_insert(self, series, window, at, value):
        """Read, store one sample in that series, read again: the first
        read leaves the answer held, so the second is where a 304 across
        the insert would show (``fetch_data`` demands a 200 and the
        fresh aggregate, new sample included)."""
        self.fetch_data(series, window)
        self.insert(series, at, value)
        self.fetch_data(series, window)

    @rule(series=st.sampled_from(SERIES), window=windows)
    def cold_fetch_data(self, series, window):
        """A reader holding nothing: always a 200 with the fresh
        aggregate, and the answer any earlier 200 under that token had."""
        _, ((key, call),), _ = DistrictClient._plan([], [(
            "bld-0001", self.sources.device_proxy.uri,
            RangeQuery(*series, **window))])
        response = self.reader.get(call["uri"], params=call["params"])
        samples = [tuple(sample) for sample in response.body["series"][0]]
        assert samples == self.sources.fresh_samples(*series, window)
        self.held(key, response.body["token"], [samples])

    @rule(series=st.sampled_from(SERIES), window=windows)
    def outage(self, series, window):
        """A dark Device-proxy: its series are empty under strict=False,
        never the held copy; back online, a held copy revalidates."""
        proxy, net = self.sources.device_proxy, self.sources.net
        failures = self.sources.client.fetch_failures
        net.set_host_online(proxy.host.name, False)
        proxy.online = False
        assert self.sources.fetch_data(*series, window, strict=False) == []
        assert self.sources.client.fetch_failures == failures + 1
        net.set_host_online(proxy.host.name, True)
        proxy.online = True
        self.wire.clear()
        self.fetch_data(series, window)

    def source_of(self, call):
        """The registrant a request went to."""
        source, = [name for name, proxy in self.sources.registrants.items()
                   if call["uri"].startswith(proxy.uri.rstrip("/"))]
        return source

    def dropped(self):
        """Every request the client sent and never waited for, each with
        its outcome once it has landed (the client holds none of them)."""
        dropped = [(pending.calls[index], self.wait(pending, [index])[0])
                   for pending, index in self.unwaited]
        self.unwaited.clear()
        return dropped

    @rule(window=windows)
    def build_with_data(self, window):
        """The whole workflow for the first building: every model and
        the one ``/data`` request the model used revalidate as the
        single fetches do, and every series is what a fresh aggregate
        gives.  A request sent from the held resolve that the fresh one
        no longer names adds nothing to the model."""
        sources = self.sources
        try:
            model = sources.client.build_area_model(
                AreaQuery(sources.district_id, entity_ids=("bld-0001",)),
                with_data=True, data_start=window["start"],
                data_end=window["end"], data_bucket=window["bucket"])
        except ServiceError as exc:
            assert exc.status == 404  # every registration was evicted
            model = None
        for call, outcome in self.dropped():
            source = self.source_of(call)
            if source != "dev" and outcome.status == 200:
                # a body the client dropped still cost a translation
                entity_id = call["params"].get("entity_id", "bld-0001")
                self.record(self.key_of(call), outcome.body,
                            serialization.encode(
                    sources.fresh(source, entity_id), "json"))
            entity = model and model.entities.get("bld-0001")
            if entity is None:
                continue  # no model, or nothing in it to add to
            if source == "dev":
                assert not {tuple(name.split("/")) for name
                            in call["params"]["series"].split(",")} \
                    & set(entity.measurements)
            else:
                assert source not in entity.sources
        if model is None:
            self.wire.clear()
            return
        _resolve, *fetches = self.wire
        self.wire.clear()
        fresh = {**window, "agg": "mean"}
        for call, outcome in fetches:
            source = self.source_of(call)
            key, token = self.revalidated(call, outcome, source)
            if source != "dev":
                if outcome.status == 200:
                    entity_id = call["params"].get("entity_id", "bld-0001")
                    self.record(key, outcome.body, serialization.encode(
                        sources.fresh(source, entity_id), "json"))
                continue
            series = [tuple(name.split("/"))
                      for name in call["params"]["series"].split(",")]
            answer = [model.entity("bld-0001").measurements[name]
                      for name in series]
            assert answer == [sources.fresh_samples(*name, fresh)
                              for name in series]
            self.held(key, token, answer)

    @rule(source=st.sampled_from(SOURCES),
          entity_id=st.sampled_from(["bld-0001", "bld-0002"]),
          fmt=st.sampled_from(sorted(serialization.FORMATS)))
    def cold_fetch(self, source, entity_id, fmt):
        """A reader holding nothing: always a 200, and the same bytes as
        any earlier 200 under the same token."""
        (_, call), = DistrictClient._model_calls(
            self.sources.entity(source, entity_id),
            (self.sources.proxies["gis"].uri,), fmt)
        response = self.reader.get(call["uri"], params=call["params"])
        key = (call["uri"], tuple(sorted(call["params"].items())))
        encoded = serialization.encode(self.sources.fresh(source, entity_id),
                                       fmt)
        self.record(key, response.body, encoded)

    @rule(entity_ids=st.sampled_from([(), ("bld-0001",)]))
    def resolve(self, entity_ids):
        """A warm resolve: a 304 exactly when the held token is still
        the master's, and either way the answer a fresh resolve gives;
        equal token => equal area, as for models."""
        master = self.sources.master
        query = AreaQuery(self.sources.district_id, entity_ids=entity_ids)
        try:
            area = self.sources.client.resolve(query)
        except ServiceError as exc:
            assert exc.status == 404  # every registration was evicted
            area = None
        (call, outcome), = self.wire
        self.wire.clear()
        if area is None:
            return
        params = dict(call["params"])
        claimed = params.pop("if_none_match", None)
        token = claimed if outcome.status == 304 else outcome.body["token"]
        assert outcome.status == (304 if claimed == token else 200)
        assert token == master.epoch_token()
        fresh = resolve(master.ontology, query).to_dict()
        assert area.to_dict() == fresh
        self.held((call["uri"], tuple(sorted(params.items()))), token, fresh)

    def record(self, key, body, encoded):
        self.bodies += 1
        assert body["document"] == encoded
        self.held(key, body["token"], body["document"])

    @invariant()
    def translations_count_bodies(self):
        assert sum(proxy.translations for proxy
                   in self.sources.proxies.values()) == self.bodies


RevalidationMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
TestRevalidationMachine = RevalidationMachine.TestCase


class LyingProxy:
    """Answers every request on *path* 304, whatever the client holds."""

    def __init__(self, net, path="/model"):
        service = WebService(net.add_host("liar"))
        service.add_route(GET, path,
                          lambda request: Response(304, None, "not modified"))
        self.uri = service.base_uri


class TestWhatA304CannotDo:
    def test_a_304_for_an_unheld_model_is_a_failed_fetch(self):
        sources = Sources()
        liar = LyingProxy(sources.net)
        entity = ResolvedEntity("bld-0001", "building", "",
                                {"bim": liar.uri}, "", ())
        client = sources.client
        with pytest.raises(ServiceError) as raised:
            client.fetch_entity_models(entity)
        assert raised.value.status == 304
        assert "does not hold" in raised.value.reason
        assert client.fetch_entity_models(entity, strict=False) == []
        assert client.fetch_failures == 1
        assert client.models_fetched == client.not_modified == 0

    def test_a_304_for_an_unheld_resolve_is_a_failed_fetch(self):
        sources = Sources()
        liar = LyingProxy(sources.net, "/resolve")
        client = DistrictClient(sources.net.add_host("lied-to"), liar.uri)
        with pytest.raises(ServiceError) as raised:
            client.resolve(AreaQuery(sources.district_id))
        assert raised.value.status == 304
        assert "does not hold" in raised.value.reason
        assert client.not_modified == 0

    def test_a_full_table_keeps_every_answer_a_batch_revalidates(
            self, monkeypatch):
        # bound = the area's model count: the table overflows on every
        # repeat build, and the answers whose tokens went out must still
        # be held when their 304s come back
        sources = Sources()
        client = sources.client
        query = AreaQuery(sources.district_id)
        first = client.build_area_model(query)
        models = client.models_fetched
        assert models >= 2
        monkeypatch.setattr("repro.core.client.HELD_ANSWERS_MAX", models)
        client.build_area_model(query)  # shrink the table to the bound
        for _ in range(2):
            before = client.not_modified
            again = client.build_area_model(query)
            assert client.not_modified - before == models - 1
            assert again.entities == first.entities
        assert client.fetch_failures == 0
        # trimmed before each round: over the bound by one round at most
        assert len(client._held) == models + 1

    @pytest.mark.parametrize("slack", [0, 1])
    def test_a_full_table_keeps_what_goes_out_beside_a_changed_resolve(
            self, monkeypatch, slack):
        # the table at its bound (or one over): the fetches of the held
        # area go out with the resolve's token, the resolve answers 200
        # and takes its slot again, and every 304 still finds its answer
        sources = Sources()
        client = sources.client
        query = AreaQuery(sources.district_id)
        first = client.build_area_model(query, with_data=True)
        bound = len(client._held) - slack
        monkeypatch.setattr("repro.core.client.HELD_ANSWERS_MAX", bound)
        dev = sources.device_proxy
        sources.master._evict_uri(dev.uri)  # the forest moves, no source
        sources.master.register(dev._registration(None, full=True))
        before = client.not_modified
        again = client.build_area_model(query, with_data=True)
        assert client.fetch_failures == 0
        assert again == first
        # at the bound every fetch is a 304; one over, the trim drops the
        # held resolve (nothing goes out early) and, once the resolve is
        # held again, the oldest answer: one fetch fewer, and a 200
        assert client.not_modified - before == bound - 1
        assert len(client._held) <= bound + slack

    def test_a_dark_proxy_is_missing_not_served_from_the_held_copy(self):
        sources = Sources()
        client = sources.client
        client.http.timeout = 0.5
        held, = sources.fetch("bim")
        host = sources.proxies["bim"].host.name
        sources.net.set_host_online(host, False)
        assert sources.fetch("bim", strict=False) == []
        assert client.fetch_failures == 1
        with pytest.raises(RequestTimeoutError):
            sources.fetch("bim")
        sources.net.set_host_online(host, True)
        # the outage did not drop the held copy: back online, a 304
        again, = sources.fetch("bim")
        assert again is held
        assert client.not_modified == 1
        assert client.models_fetched == 2
        assert sources.proxies["bim"].translations == 1


class TestModelFormat:
    """A proxy answers JSON unless asked otherwise, so a client sends
    ``format`` only for another format."""

    @pytest.mark.parametrize("source", ["bim", "gis"])
    def test_an_xml_model_fetch_sends_its_format_and_decodes(self, source):
        sources = Sources()
        sent = []
        send = sources.net.send

        def spy(sender, recipient, port, payload, size=None):
            if sender == "user" and port == "http":
                sent.append(payload.get("params", {}))
            send(sender, recipient, port, payload, size=size)

        sources.net.send = spy
        from_xml, = sources.fetch(source, fmt="xml")
        from_json, = sources.fetch(source)
        assert from_xml == from_json == sources.fresh(source)
        assert [params.get("format") for params in sent] == ["xml", None]
