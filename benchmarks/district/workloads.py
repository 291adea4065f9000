"""The four districtbench workloads.

Each workload turns ``(seed, units)`` into generated inputs (a district
dataset plus a plan of operations), deploys the district through the
public ``repro.simulation.scenario.deploy()``, runs one measured window
and then checks the system's outputs.  ``units`` scales the amount of
work, never the district: one unit is sized to about one host second of
measured window on the 2-core reference box, so ``--seconds 10`` gives
windows of roughly ten seconds while the work — and with it every
simulated-clock metric and every count — stays a pure function of the
seed.

The system under test only ever sees the generated inputs; the seed
itself reaches it solely as ``ScenarioConfig.seed`` (network jitter and
radio streams), which is part of the district's description.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from array import array
from contextlib import nullcontext
from dataclasses import replace
from math import isclose
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional

from repro.datasources.generators import synthesize_district
from repro.errors import ReproError
from repro.middleware.peer import connect
from repro.middleware.topics import (
    district_filter,
    measurement_filter,
    topic_matches,
)
from repro.ontology import AreaQuery
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.scenario import ScenarioConfig, build_device, deploy
from repro.storage.blocks import BlockStore, TsdbConfig
from repro.storage.durability import DurabilityConfig
from repro.storage.query import RollupQuery

#: simulated seconds before a window opens: registrations land, the 60 s
#: and 120 s channels have sampled (the slowest channel samples every
#: 900 s)
WARMUP_SIM_S = 120.0
#: simulated seconds a check lets in-flight traffic land after the
#: devices stop (covers the 10 s batch age bound and the radio hop)
DRAIN_SIM_S = 30.0


#: the kinds of operation ``area_query`` mixes
QUERY_KINDS = ("integrate", "query_range", "resolve")


class BenchError(Exception):
    """An output check failed: the run's numbers must not be used."""


class Workload:
    """Common shape: generate inputs, set up, measured window, check."""

    name = ""
    why = ""
    #: "open" (load arrives on the simulated clock whatever the system
    #: does) or "closed" (one client, next call after the reply)
    loop = ""
    #: what one operation is, for the report
    op = ""
    district_shape = dict(n_buildings=64, devices_per_building=16,
                          n_networks=2)
    #: simulated seconds per timed slice of an open-loop window
    SLICE_SIM_S = 30.0

    def __init__(self, seed: int, units: float, out_dir: Path,
                 operation: Callable = nullcontext):
        self.seed = seed
        self.units = units
        self.out_dir = out_dir
        #: context manager opened around each load-generator operation;
        #: the traced run passes ``Tracer.operation``
        self.operation = operation
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dataset = synthesize_district(seed=seed, **self.district_shape)
        self.inputs: Dict = self.generate()
        self.district = None
        self.clients: List = []
        self.ops = 0
        self.failed = 0
        #: simulated seconds, one entry per latency sample
        self.latencies = array("d")
        #: the same, split by kind of operation where a workload mixes
        self.by_kind: Dict[str, array] = {}
        #: open loop only: how late (simulated s) the generator ever ran
        self.generator_lag_max = 0.0

    # -- the four steps ----------------------------------------------------

    def generate(self) -> Dict:
        """Seeded plan of operations, as plain data."""
        raise NotImplementedError

    def scenario(self) -> ScenarioConfig:
        """The district every workload shares; subclasses add engines."""
        return ScenarioConfig(
            seed=self.seed, heartbeat_period=60.0, publish_buffer=256,
            peer_keepalive=120.0, **self.district_shape)

    def setup(self) -> None:
        """Deploy and bring the district to the start of the window."""
        self.district = deploy(self.scenario(), self.dataset)
        self.district.run(WARMUP_SIM_S)

    def window(self) -> Iterator[None]:
        """The measured window, yielding at the end of each slice.

        Slice boundaries are fixed by the inputs (simulated time or
        operation count), so slice *i* is the same work in every
        execution of the window and the runner can keep the fastest
        timing of each — a stretch of interference on the shared host
        then costs a few slices of one execution, not the metric.
        """
        raise NotImplementedError

    def run_sliced(self, total_sim_s: float, count_ops: Callable[[], int]
                   ) -> Iterator[None]:
        """Open loop: advance *total_sim_s* of simulated time in slices."""
        slices = max(1, round(total_sim_s / self.SLICE_SIM_S))
        start, before = self.now, count_ops()
        for index in range(1, slices + 1):
            self.district.scheduler.run_until(
                start + total_sim_s * index / slices)
            yield
        self.ops = count_ops() - before

    def check(self) -> None:
        """Raise :class:`BenchError` unless the outputs are correct."""
        if self.failed:
            raise BenchError(
                f"{self.name}: {self.failed} of {self.ops} operations failed")

    def teardown(self) -> None:
        """Release what the deployment holds outside the process."""
        if self.district is not None:
            self.district.measurement_db.close()

    # -- helpers -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.district.scheduler.now

    def describe(self) -> Dict:
        """Everything generated from the seed, for the determinism test."""
        return {
            "devices": [[d.device_id, d.kind, d.protocol, d.entity_id]
                        for d in self.dataset.devices],
            "inputs": self.inputs,
        }

    def quantities_of(self, spec) -> List[str]:
        """Sensed quantities of a dataset device (sorted)."""
        return build_device(spec, self.dataset).quantities


class IngestBatched(Workload):
    """Write path in production shape: batching, TSDB, WAL + snapshots."""

    name = "ingest_batched"
    why = ("write path as deployed: protocol decode, proxy batching, "
           "lineproto, broker fan-out 1, measurement DB, BlockStore and a "
           "WAL fsync per frame do the work; web service, master idle")
    loop = "open"
    op = "sample stored by the measurement DB"
    SIM_S_PER_UNIT = 240.0
    PROBE_PERIOD = 0.25
    #: fresh directory under ``out/`` holding this deployment's WAL and
    #: snapshot, removed at teardown
    state_dir: Optional[Path] = None

    def generate(self) -> Dict:
        device_ids = sorted(d.device_id for d in self.dataset.devices)
        return {
            "window_sim_s": self.SIM_S_PER_UNIT * self.units,
            "probe_panel": self.rng.sample(device_ids, 128),
            "check_devices": self.rng.sample(device_ids, 32),
        }

    def scenario(self) -> ScenarioConfig:
        return replace(
            super().scenario(),
            proxy_batching=BatchConfig(25, 10.0),
            mdb_tsdb=TsdbConfig(),
            mdb_durability=DurabilityConfig(
                wal_path=str(self.state_dir / "mdb.wal"),
                snapshot_path=str(self.state_dir / "mdb.snapshot"),
                snapshot_period=900.0, ack_deliveries=True),
        )

    def setup(self) -> None:
        self.state_dir = Path(tempfile.mkdtemp(prefix="wal-",
                                               dir=self.out_dir))
        super().setup()
        mdb = self.district.measurement_db
        self._freshness = mdb.freshness
        self._seen = {device: mdb.freshness(device)
                      for device in self.inputs["probe_panel"]}
        self._probe_task = self.district.scheduler.every(
            self.PROBE_PERIOD, self._probe)

    def _probe(self) -> None:
        """Sample timestamp -> first visible through ``freshness()``."""
        now = self.now
        seen = self._seen
        for device, last in seen.items():
            newest = self._freshness(device)
            if newest != last:
                seen[device] = newest
                self.latencies.append(now - newest)

    def window(self) -> Iterator[None]:
        mdb = self.district.measurement_db
        yield from self.run_sliced(self.inputs["window_sim_s"],
                                   lambda: mdb.ingested)
        self._probe_task.stop()

    def check(self) -> None:
        district = self.district
        mdb = district.measurement_db
        district.stop_devices()
        for proxy in district.device_proxies.values():
            proxy.flush_batch()
        district.run(DRAIN_SIM_S)
        published = sum(proxy.batch_samples_published
                        for proxy in district.device_proxies.values())
        stored = mdb.store.sample_count()
        self.failed = abs(published - mdb.ingested) \
            + abs(mdb.ingested - stored)
        super().check()
        # a slow channel may not have sampled yet in a short window, so
        # take each check device's first series that exists
        series = [(device_id, quantities[0])
                  for device_id in self.inputs["check_devices"]
                  if (quantities := mdb.store.quantities(device_id))]
        if not series:
            raise BenchError(f"{self.name}: no stored series to compare")
        for device_id, quantity in series:
            query = RollupQuery(device_id, quantity, 0.0, self.now, 900.0)
            rollup = mdb.query_range(query)
            raw = mdb.query_range(replace(query, prefer="raw"))
            if len(rollup) != len(raw) or not all(
                    a[0] == b[0] and isclose(a[1], b[1], rel_tol=1e-9)
                    for a, b in zip(rollup, raw)):
                raise BenchError(
                    f"{self.name}: rollup != raw for {device_id}/{quantity}")

    def teardown(self) -> None:
        super().teardown()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


class PubsubFanout(Workload):
    """Per-sample envelopes fanned out to many filtered subscribers."""

    name = "pubsub_fanout"
    why = ("same broker, peer and transport used the other way: one "
           "envelope per sample, 12 filtered dashboards plus churning "
           "subscribers; storage, lineproto and the WAL are bypassed")
    loop = "open"
    op = "event delivered to a fixed subscriber"
    district_shape = dict(n_buildings=32, devices_per_building=12,
                          n_networks=2)
    SIM_S_PER_UNIT = 640.0
    CHURN_POOL = 4
    CHURN_PERIOD = 120.0
    BUSY_QUANTITIES = ("power", "state", "occupancy")

    def generate(self) -> Dict:
        district_id = self.dataset.district_id
        buildings = self.dataset.buildings
        rng = self.rng

        def entity() -> str:
            return rng.choice(buildings).entity_id

        def entity_and_quantity():
            spec = rng.choice(rng.choice(buildings).devices)
            return spec.entity_id, rng.choice(self.quantities_of(spec))

        # the whole-district and per-quantity dashboards carry nearly all
        # deliveries, so they are fixed (the three busiest quantities) and
        # the seed picks the buildings, the building+quantity pairs and
        # the order: delivered volume stays comparable across seeds
        filters = [district_filter(district_id)] * 3
        filters += [measurement_filter(district_id, quantity=quantity)
                    for quantity in self.BUSY_QUANTITIES]
        filters += [measurement_filter(district_id, entity_id=entity())
                    for _ in range(3)]
        for _ in range(3):
            entity_id, quantity = entity_and_quantity()
            filters.append(measurement_filter(
                district_id, entity_id=entity_id, quantity=quantity))
        rng.shuffle(filters)
        return {"window_sim_s": self.SIM_S_PER_UNIT * self.units,
                "filters": filters}

    def _subscribe(self, host_name: str, pattern: str, callback):
        district = self.district
        peer = connect(district.network.add_host(host_name),
                       district.broker_hosts)
        return peer.subscribe(pattern, callback)

    def setup(self) -> None:
        district = self.district = deploy(self.scenario(), self.dataset)
        # subscribe at simulated time 0, before any device has sampled,
        # so every fixed subscriber and the auditor see the same events
        self.delivered = [0] * len(self.inputs["filters"])
        for index, pattern in enumerate(self.inputs["filters"]):
            self._subscribe(f"dashboard-{index}", pattern,
                            self._dashboard(index))
        self.audit: Dict[str, int] = {}
        self._subscribe("auditor", district_filter(district.district_id),
                        self._audit)
        self._churners: List = []
        self._churn_seq = 0
        for _ in range(self.CHURN_POOL):
            self._churn()
        district.run(WARMUP_SIM_S)
        district.scheduler.every(self.CHURN_PERIOD, self._churn)

    def _dashboard(self, index: int):
        delivered = self.delivered
        record = self.latencies.append

        def on_event(event) -> None:
            if not event.retained:
                delivered[index] += 1
                record(event.delivered_at - event.published_at)

        return on_event

    def _audit(self, event) -> None:
        if not event.retained:
            self.audit[event.topic] = self.audit.get(event.topic, 0) + 1

    def _churn(self) -> None:
        """One subscriber joins on ``#``; beyond the pool the oldest leaves."""
        self._churn_seq += 1
        self._churners.append(self._subscribe(
            f"churn-{self._churn_seq}", "#", lambda event: None))
        if len(self._churners) > self.CHURN_POOL:
            self._churners.pop(0).unsubscribe()

    def window(self) -> Iterator[None]:
        warmup_samples = len(self.latencies)
        yield from self.run_sliced(self.inputs["window_sim_s"],
                                   lambda: sum(self.delivered))
        del self.latencies[:warmup_samples]

    def check(self) -> None:
        self.district.stop_devices()
        self.district.run(DRAIN_SIM_S)
        for pattern, got in zip(self.inputs["filters"], self.delivered):
            expected = sum(count for topic, count in self.audit.items()
                           if topic_matches(pattern, topic))
            if got != expected:
                raise BenchError(
                    f"{self.name}: subscriber on {pattern} got {got} "
                    f"events, the auditor saw {expected}")


class AreaQueryMix(Workload):
    """Read path: the paper's area query, plus dashboard range queries."""

    name = "area_query"
    why = ("read path, the paper's headline operation: web-service "
           "dispatch, master + ontology, database proxies, serialization, "
           "client integration and storage reads; ingest layers idle")
    loop = "closed"
    op = "answered query"
    OPS_PER_UNIT = 250
    #: operations per timed slice
    SLICE_OPS = 10
    #: simulated seconds of history the set-up ingests before the first
    #: query, per unit; never less than the slowest channel needs to have
    #: a sample stored (900 s period + batch age), never more than 1800
    HISTORY_SIM_S_PER_UNIT = 180.0
    HISTORY_SIM_S = (960.0, 1800.0)

    def generate(self) -> Dict:
        rng = self.rng
        buildings = self.dataset.buildings
        total = max(10, round(self.OPS_PER_UNIT * self.units))
        ops: List[List] = []
        for _ in range(round(total * 0.5)):
            picked = rng.sample(buildings, rng.choice((1, 2)))
            ops.append(["integrate", sorted(b.entity_id for b in picked)])
        for index in range(round(total * 0.3)):
            spec = rng.choice(rng.choice(buildings).devices)
            quantity = rng.choice(self.quantities_of(spec))
            target = spec.device_id if rng.random() < 0.5 \
                else spec.entity_id
            ops.append(["query_range", target, quantity,
                        "raw" if index % 5 == 4 else None])
        ops += [["resolve"] for _ in range(total - len(ops))]
        rng.shuffle(ops)
        shortest, longest = self.HISTORY_SIM_S
        history = self.HISTORY_SIM_S_PER_UNIT * self.units
        return {"history_sim_s": min(longest, max(shortest, history)),
                "ops": ops}

    def scenario(self) -> ScenarioConfig:
        return replace(super().scenario(),
                       proxy_batching=BatchConfig(25, 10.0),
                       mdb_tsdb=TsdbConfig())

    def setup(self) -> None:
        self.district = deploy(self.scenario(), self.dataset)
        self.district.run(self.inputs["history_sim_s"])
        self.client = self.district.client("bench-user", with_broker=False)
        self.clients = [self.client]
        self.devices_in = {b.entity_id: len(b.devices)
                           for b in self.dataset.buildings}
        self.by_kind = {kind: array("d") for kind in QUERY_KINDS}

    def window(self) -> Iterator[None]:
        for kind, *spec in self.inputs["ops"]:
            started = self.now
            with self.operation():
                try:
                    answered = getattr(self, "_" + kind)(*spec)
                except ReproError:
                    answered = False
            latency = self.now - started
            self.latencies.append(latency)
            self.by_kind[kind].append(latency)
            self.ops += 1
            if not answered:
                self.failed += 1
            if self.ops % self.SLICE_OPS == 0:
                yield

    def _integrate(self, entity_ids: List[str]) -> bool:
        model = self.client.build_area_model(
            AreaQuery(self.district.district_id,
                      entity_ids=tuple(entity_ids)),
            with_data=True, data_bucket=300.0)
        return sorted(e.entity_id for e in model.buildings) == entity_ids \
            and len(model.entities) == len(entity_ids) \
            and model.device_count == sum(self.devices_in[e]
                                          for e in entity_ids)

    def _query_range(self, target: str, quantity: str,
                     prefer: Optional[str]) -> bool:
        query = RollupQuery(target, quantity, 0.0, self.now, 900.0,
                            prefer=prefer)
        response = self.client.http.get(
            self.district.measurement_db.uri.rstrip("/") + "/query_range",
            params=query.to_params(), check=False)
        return response.status == 200 and bool(response.body["samples"])

    def _resolve(self) -> bool:
        area = self.client.resolve(AreaQuery(self.district.district_id))
        dataset = self.dataset
        return len(area.entities) == \
            len(dataset.buildings) + len(dataset.networks) \
            and sum(len(e.devices) for e in area.entities) == \
            len(dataset.devices)


class ActuationWaves(Workload):
    """Control path: every actuator commanded once per wave."""

    name = "actuation_waves"
    why = ("control path: protocol encode_command, firmware downlink, the "
           "proxy's pending-actuation table and a one-shot subscribe + "
           "unsubscribe per request — broker churn no other workload has")
    loop = "open"
    op = "actuation resolved"
    WAVES_PER_UNIT = 5.0
    WAVE_PERIOD = 10.0
    #: actuations dispatched per timed slice (the wait for the next wave
    #: is a slice of its own)
    SLICE_OPS = 128
    OFFLINE_EVERY = 256

    def generate(self) -> Dict:
        rng = self.rng
        values = {
            "smart_plug": lambda: ("switch", float(rng.randrange(2))),
            "hvac_controller":
                lambda: ("setpoint", float(rng.randrange(18, 25))),
            "dimmable_light":
                lambda: ("dim", rng.randrange(0, 11) / 10.0),
        }
        actuators = sorted((d for d in self.dataset.devices
                            if d.kind in values),
                           key=lambda d: d.device_id)
        plan = [[spec.device_id, *values[spec.kind]()]
                for spec in actuators]
        offline = [row[0] for index, row in enumerate(plan, start=1)
                   if index % self.OFFLINE_EVERY == 0]
        return {"waves": max(1, round(self.WAVES_PER_UNIT * self.units)),
                "plan": plan, "offline": offline}

    def scenario(self) -> ScenarioConfig:
        return replace(super().scenario(),
                       proxy_batching=BatchConfig(25, 10.0),
                       mdb_tsdb=TsdbConfig())

    def setup(self) -> None:
        super().setup()
        district = self.district
        self.client = district.client("bench-user", with_broker=True)
        self.clients = [self.client]
        area = self.client.resolve(AreaQuery(district.district_id))
        self.resolved = {device.device_id: device
                         for entity in area.entities
                         for device in entity.devices}
        offline = set(self.inputs["offline"])
        for firmware in district.firmwares:
            if firmware.device.device_id in offline:
                firmware.stop()
        #: per issued actuation: [device_id, dispatched_at, results...]
        self.issued: List[List] = []

    def window(self) -> Iterator[None]:
        start = self.now
        for wave in range(self.inputs["waves"]):
            due = start + wave * self.WAVE_PERIOD
            self.generator_lag_max = max(self.generator_lag_max,
                                         self.now - due)
            for device_id, command, value in self.inputs["plan"]:
                record = [device_id, self.now]
                self.issued.append(record)
                with self.operation():
                    try:
                        self.client.actuate(self.resolved[device_id],
                                            command, value,
                                            on_result=record.append)
                    except ReproError:
                        pass  # counted below: no result ever arrives
                if len(self.issued) % self.SLICE_OPS == 0:
                    yield
            self.district.run(due + self.WAVE_PERIOD - self.now)
            yield
        self.ops = len(self.issued)
        offline = set(self.inputs["offline"])
        for device_id, dispatched_at, *results in self.issued:
            if len(results) != 1 or \
                    results[0].accepted == (device_id in offline):
                self.failed += 1
            else:
                self.latencies.append(
                    results[0].completed_at - dispatched_at)


WORKLOADS = {cls.name: cls for cls in (IngestBatched, PubsubFanout,
                                       AreaQueryMix, ActuationWaves)}


def cumulative_counts(workload: Workload) -> Dict[str, float]:
    """Counters of every layer, read from the nodes' public attributes.

    All are cumulative since deploy; the runner reports the difference
    across the measured window.  Keys starting with ``_`` only feed the
    ratios of :func:`derive_counts`.
    """
    district = workload.district
    mdb = district.measurement_db
    store = mdb.store
    broker = district.broker.stats
    net = district.network.stats
    master = district.master
    device_proxies = list(district.device_proxies.values())
    database_proxies = [district.gis_proxy,
                        *district.bim_proxies.values(),
                        *district.sim_proxies.values()]
    services = [master.service, district.broker.service, mdb.service]
    services += [p.service for p in device_proxies + database_proxies]
    peers = [p.peer for p in device_proxies]
    peers += [c.peer for c in workload.clients if c.peer is not None]
    blocks = store if isinstance(store, BlockStore) else None
    wal = mdb.wal

    def total(items, attr: str) -> int:
        return sum(getattr(item, attr) for item in items)

    return {
        "scheduler.events": district.scheduler.events_processed,
        "transport.messages_delivered": net.messages_delivered,
        "transport.bytes_sent": net.bytes_sent,
        "transport.messages_dropped": net.messages_dropped,
        "webservice.requests": total(services, "requests_served")
        + total(services, "requests_failed"),
        "webservice.requests_failed": total(services, "requests_failed"),
        "broker.published": broker.published,
        "broker.fanout_deliveries": broker.fanout_deliveries,
        "broker.subscriptions": broker.subscriptions,
        "broker.redeliveries": broker.redeliveries,
        "broker.deliveries_acked": broker.deliveries_acked,
        "peer.publications_buffered": total(peers, "publications_buffered"),
        "peer.publications_dropped": total(peers, "publications_dropped"),
        "device_proxy.frames_received":
            total(device_proxies, "frames_received"),
        "device_proxy.batch_frames_published":
            total(device_proxies, "batch_frames_published"),
        "device_proxy.flushes_size":
            total(device_proxies, "batch_flushes_size"),
        "device_proxy.flushes_age":
            total(device_proxies, "batch_flushes_age"),
        "_device_proxy.samples": sum(p.database.sample_count()
                                     for p in device_proxies),
        "lineproto.lines": total(device_proxies, "batch_samples_published"),
        "database_proxy.models_served":
            sum(p.service.requests_served for p in database_proxies),
        "master.resolves_served": master.resolves_served,
        "master.registrations": master.registrations,
        "_master.cache_hits": master.resolve_cache_hits,
        "_master.cache_misses": master.resolve_cache_misses,
        "client.models_fetched": total(workload.clients, "models_fetched"),
        "client.data_requests": total(workload.clients, "data_requests"),
        "measurementdb.ingested": mdb.ingested,
        "measurementdb.batches_ingested": mdb.batches_ingested,
        "measurementdb.ingest_duplicates": mdb.ingest_duplicates,
        "measurementdb.backpressure_signals": mdb.backpressure_signals,
        "blocks.blocks_sealed": blocks.blocks_sealed if blocks else 0,
        "blocks.compactions": blocks.compactions if blocks else 0,
        "_blocks.rollup_queries": blocks.rollup_queries if blocks else 0,
        "_blocks.raw_queries": blocks.raw_queries if blocks else 0,
        "durability.wal_fsyncs": wal.fsyncs if wal else 0,
        "_durability.wal_bytes": wal.fsynced_bytes if wal else 0,
        "durability.snapshots_written": mdb.snapshots_written,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive_counts(delta: Dict[str, float], workload: Workload
                  ) -> Dict[str, float]:
    """Window counts plus the ratios the per-layer table names."""
    ops = workload.ops
    counts = {key: value for key, value in delta.items()
              if not key.startswith("_")}
    counts.update({
        "scheduler.events_per_op": _ratio(delta["scheduler.events"], ops),
        "transport.msgs_per_op":
            _ratio(delta["transport.messages_delivered"], ops),
        "broker.fanout_ratio": _ratio(delta["broker.fanout_deliveries"],
                                      delta["broker.published"]),
        "device_proxy.samples_per_frame":
            _ratio(delta["_device_proxy.samples"],
                   delta["device_proxy.frames_received"]),
        "master.resolve_cache_hit_ratio":
            _ratio(delta["_master.cache_hits"],
                   delta["_master.cache_hits"]
                   + delta["_master.cache_misses"]),
        "ontology.nodes":
            workload.district.master.ontology.node_count(),
        "blocks.rollup_query_share":
            _ratio(delta["_blocks.rollup_queries"],
                   delta["_blocks.rollup_queries"]
                   + delta["_blocks.raw_queries"]),
        "durability.wal_bytes_per_sample":
            _ratio(delta["_durability.wal_bytes"],
                   delta["measurementdb.ingested"]),
    })
    for kind in QUERY_KINDS:
        samples = workload.by_kind.get(kind)
        counts[f"client.{kind}.sim_p50_ms"] = \
            median(samples) * 1e3 if samples else 0.0
    return counts
