"""Sustained mixed-workload stress scenario (the O3 soak).

One deployment driven hard on every hot path at once, for long enough
that steady-state rates mean something:

* **registrations** — every proxy renews its lease by heartbeat;
* **batched ingest** — all devices sampling, Device-proxies coalescing
  samples into line-protocol frames (the PR 7 batch pipeline);
* **resolves** — a client issues paced whole-district area queries;
* **pub/sub churn** — subscriber peers join on ``district/#`` and the
  oldest leave, so the broker's subscription table keeps moving.

The scenario is both the O3 benchmark (``benchmarks/bench_o3_soak.py``
asserts the profiler's attribution floor and the profiled/unprofiled
twin identity on it) and the standing perf-regression harness: `repro
soak` runs it from the CLI and prints the sustained message rate, and
`repro profile` runs it under the hot-loop profiler to show where the
wall clock goes.  Keeping the workload in one shared function is the
point — the CLI, the benchmark and the CI gate all measure the same
code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.middleware.peer import MiddlewarePeer, Subscription, connect
from repro.ontology import AreaQuery
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.scenario import (
    DeployedDistrict,
    ScenarioConfig,
    deploy,
)

#: subscriber peers kept live at any moment during the churn phase
CHURN_POOL = 4


@dataclass
class SoakConfig:
    """Knobs of the soak workload (defaults match the O3 benchmark)."""

    seed: int = 17
    n_buildings: int = 6
    devices_per_building: int = 4
    #: simulated seconds of measured mixed workload (after warm-up)
    sim_duration: float = 1800.0
    #: simulated warm-up before measurement starts (registrations land,
    #: first samples flow) — excluded from the reported rates
    warmup: float = 120.0
    #: one whole-district resolve every this many simulated seconds
    resolve_period: float = 60.0
    #: one subscriber join + oldest leave every this many seconds
    churn_period: float = 120.0
    #: install the hot-loop profiler on the deployment
    profile: bool = False


@dataclass
class SoakResult:
    """What one soak run measured."""

    wall_seconds: float
    sim_seconds: float
    messages_total: int
    events_processed: int
    resolves: int
    churn_cycles: int
    samples_ingested: int
    churn_events_received: int
    deployment: DeployedDistrict = field(repr=False)

    @property
    def msgs_per_sec(self) -> float:
        """Sustained transport messages per wall second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.messages_total / self.wall_seconds

    @property
    def profiler(self):
        """The deployment's hot-loop profiler (None when not profiled)."""
        return self.deployment.profiler


def _scenario(config: SoakConfig) -> ScenarioConfig:
    return ScenarioConfig(
        seed=config.seed,
        n_buildings=config.n_buildings,
        devices_per_building=config.devices_per_building,
        n_networks=1,
        heartbeat_period=60.0,
        publish_buffer=256,
        peer_keepalive=120.0,
        proxy_batching=BatchConfig(max_samples=25, max_age=10.0),
        profile=config.profile,
    )


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Deploy and drive the sustained mixed workload; returns the rates.

    Deterministic for a fixed :class:`SoakConfig` — the measured
    simulated work (message counts, events, ingested samples) is
    identical run-to-run and profiled-vs-unprofiled; only the wall
    clock varies with the machine.
    """
    config = config or SoakConfig()
    deployment = deploy(_scenario(config))
    network = deployment.network
    scheduler = deployment.scheduler
    client = deployment.client("soak-user", with_broker=False)
    query = AreaQuery(district_id=deployment.district_id)

    deployment.run(config.warmup)

    churn_received = [0]
    churners: List[Subscription] = []
    churn_seq = [0]

    def churn_cycle() -> None:
        churn_seq[0] += 1
        peer: MiddlewarePeer = connect(
            network.add_host(f"soak-sub-{churn_seq[0]}"),
            deployment.broker_hosts,
        )
        subscription = peer.subscribe(
            "district/#",
            lambda event: churn_received.__setitem__(
                0, churn_received[0] + 1),
        )
        churners.append(subscription)
        if len(churners) > CHURN_POOL:
            churners.pop(0).unsubscribe()

    ingested0 = deployment.measurement_db.ingested
    messages0 = network.stats.messages_delivered
    events0 = scheduler.events_processed
    sim0 = scheduler.now
    resolves = 0
    next_resolve = 0.0
    next_churn = 0.0
    elapsed = 0.0
    wall0 = time.perf_counter()
    while elapsed < config.sim_duration:
        if elapsed >= next_resolve:
            client.resolve(query)
            resolves += 1
            next_resolve += config.resolve_period
        if elapsed >= next_churn:
            churn_cycle()
            next_churn += config.churn_period
        advance = min(next_resolve, next_churn,
                      config.sim_duration) - elapsed
        deployment.run(advance)
        elapsed += advance
    wall = time.perf_counter() - wall0

    return SoakResult(
        wall_seconds=wall,
        sim_seconds=scheduler.now - sim0,
        messages_total=network.stats.messages_delivered - messages0,
        events_processed=scheduler.events_processed - events0,
        resolves=resolves,
        churn_cycles=churn_seq[0],
        samples_ingested=deployment.measurement_db.ingested - ingested0,
        churn_events_received=churn_received[0],
        deployment=deployment,
    )
