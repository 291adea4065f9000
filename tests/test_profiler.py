"""Tests for the DES hot-loop profiler (repro.observability.profiler).

Covers the three contracts the module header promises:

* zero overhead when off — the guard-cost microbenchmark runs the
  same deployment with no profiler, with observability installed, and
  with a disabled profiler, and bounds the per-run slowdown;
* pure observation — a profiled deployment is message-for-message
  identical to an unprofiled twin (the full-length version of this
  lives in the O3 soak benchmark);
* deterministic accounting — frames, buckets, the call tree and the
  renderers are exercised against an injected fake clock, so the
  golden outputs are exact strings, not fuzzy matches.
"""

import gc
import json
import time

import pytest

from repro.observability import (
    SimProfiler,
    export_profile,
    install_profiler,
    render_profile_table,
    render_profile_tree,
    uninstall_profiler,
)
from repro.observability import install as install_observability
from repro.observability.profiler import port_family
from repro.simulation import ScenarioConfig, deploy


class FakeClock:
    """Injectable time_fn: advances only when the test says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _profiler(clock=None):
    return SimProfiler(scheduler=None, time_fn=clock or FakeClock())


# -- port_family -------------------------------------------------------------


@pytest.mark.parametrize("port,family", [
    ("http-reply-17", "http-reply"),
    ("http-reply-3", "http-reply"),
    ("http", "http"),
    ("pubsub", "pubsub"),
    ("udp9", "udp"),
    ("42", "42"),          # all digits: keep rather than emit ""
    ("", ""),
])
def test_port_family(port, family):
    assert port_family(port) == family


# -- frame accounting against a fake clock -----------------------------------


def test_nested_frames_split_self_and_cum():
    clock = FakeClock()
    profiler = _profiler(clock)

    outer = profiler.enter("broker", "event", "Broker._on_message")
    clock.t = 0.01
    inner = profiler.enter("client-1", "deliver", "http-reply")
    clock.t = 0.03
    profiler.exit(inner)       # inner elapsed 0.02
    clock.t = 0.05
    profiler.exit(outer)       # outer elapsed 0.05, self 0.03

    by_key = {b.key: b for b in profiler.buckets()}
    outer_bucket = by_key[("broker", "event", "Broker._on_message")]
    inner_bucket = by_key[("client-1", "deliver", "http-reply")]
    assert outer_bucket.calls == 1
    assert outer_bucket.cum == pytest.approx(0.05)
    assert outer_bucket.self_time == pytest.approx(0.03)
    assert inner_bucket.cum == pytest.approx(0.02)
    assert inner_bucket.self_time == pytest.approx(0.02)
    # only the top-level frame lands in the attribution numerator
    assert profiler.attributed_wall == pytest.approx(0.05)


def test_attribution_ratio_and_backdated_start():
    clock = FakeClock()
    profiler = _profiler(clock)
    clock.t = 0.02
    # the scheduler backdates the frame to the step's own start stamp
    frame = profiler.enter("device", "event", "Device.sample", start=0.0)
    clock.t = 0.05
    profiler.exit(frame)
    profiler.loop_wall = 0.06
    assert profiler.attributed_wall == pytest.approx(0.05)
    assert profiler.attribution == pytest.approx(0.05 / 0.06)
    # attribution is clamped: backdating must never push it past 1.0
    profiler.loop_wall = 0.04
    assert profiler.attribution == 1.0
    # and an idle profiler reports full attribution, not a 0/0
    assert _profiler().attribution == 1.0


def test_disabled_profiler_returns_none_frames():
    # uninstall_profiler is the off switch: the detached profiler sees
    # nothing of a later run
    district = deploy(_tiny_config())
    profiler = install_profiler(district.network)
    uninstall_profiler(district.network)
    district.run(30.0)
    assert profiler.buckets() == []
    assert profiler.events == 0


def test_enter_event_buckets_by_owner_and_qualname():
    profiler = _profiler()

    class Owner:
        name = "proxy-3"

        def handler(self):
            pass

    frame = profiler.enter_event(Owner().handler, sim_delta=2.5)
    profiler.exit(frame)
    frame = profiler.enter_event(test_port_family, sim_delta=0.5)
    profiler.exit(frame)

    keys = {b.key for b in profiler.buckets()}
    assert ("proxy-3", "event",
            "test_enter_event_buckets_by_owner_and_qualname."
            "<locals>.Owner.handler") in keys
    # a bare function buckets under its module
    assert any(k[0] == __name__ and k[2] == "test_port_family"
               for k in keys)
    assert profiler.events == 2
    assert profiler.sim_seconds == pytest.approx(3.0)


def test_enter_event_unwraps_periodic_task():
    from repro.network.scheduler import Scheduler

    scheduler = Scheduler()
    fired = []

    class Sensor:
        name = "sensor-1"

        def sample(self):
            fired.append(scheduler.now)

    sensor = Sensor()
    scheduler.every(5.0, sensor.sample)
    profiler = install_profiler(_FakeNetwork(scheduler))
    scheduler.run_until(20.0)
    keys = {b.key for b in profiler.buckets()}
    # periodic work is attributed to the wrapped callback's owner,
    # not to the PeriodicTask timer plumbing
    assert any(k[0] == "sensor-1" and k[2].endswith("Sensor.sample")
               for k in keys)
    assert not any("PeriodicTask" in k[2] for k in keys)
    assert len(fired) == 4


class _FakeNetwork:
    """The two attributes install_profiler touches."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.profiler = None


def test_install_is_idempotent_and_uninstall_reverts():
    from repro.network.scheduler import Scheduler

    network = _FakeNetwork(Scheduler())
    profiler = install_profiler(network)
    assert install_profiler(network) is profiler
    assert network.scheduler.profiler is profiler
    uninstall_profiler(network)
    assert network.profiler is None
    assert network.scheduler.profiler is None


def test_reset_preserves_open_frames():
    clock = FakeClock()
    profiler = _profiler(clock)
    outer = profiler.enter("a", "event", "x")
    profiler.reset()
    clock.t = 0.25
    inner = profiler.enter("b", "deliver", "y")
    clock.t = 0.5
    profiler.exit(inner)
    profiler.exit(outer)  # opened pre-reset: must still close cleanly
    keys = {b.key for b in profiler.buckets()}
    assert ("b", "deliver", "y") in keys


# -- renderer goldens --------------------------------------------------------


def _golden_profiler():
    clock = FakeClock()
    profiler = _profiler(clock)
    outer = profiler.enter("broker", "event", "Broker._on_message")
    clock.t = 0.01
    inner = profiler.enter("client-1", "deliver", "http-reply")
    clock.t = 0.03
    profiler.exit(inner)
    clock.t = 0.05
    profiler.exit(outer)
    profiler.loop_wall = 0.06
    profiler.sim_seconds = 600.0
    profiler.events = 2
    return profiler


def test_render_profile_table_golden():
    table = render_profile_table(_golden_profiler(), top=20)
    assert table.splitlines() == [
        "sim profiler — hot loop 0.060s wall, 83.3% attributed, "
        "2 events (33/s), sim 600.0s (x10,000.0 sim/wall)",
        "  self(s)    cum(s)     calls  self%"
        "  bucket (node · kind · handler)",
        "   0.0300    0.0500         1  50.0%"
        "  broker · event · Broker._on_message",
        "   0.0200    0.0200         1  33.3%"
        "  client-1 · deliver · http-reply",
    ]


def test_render_profile_table_elides_beyond_top():
    profiler = _golden_profiler()
    table = render_profile_table(profiler, top=1)
    assert table.splitlines()[-1].endswith("... 1 more buckets")


def test_render_profile_tree_golden():
    tree = render_profile_tree(_golden_profiler())
    lines = tree.splitlines()
    assert lines[0].startswith("sim profiler tree — hot loop 0.060s")
    # full-width bar for the root frame, 13/32 for the nested delivery
    assert "|" + "#" * 32 + "|" in lines[1]
    assert "broker event Broker._on_message" in lines[1]
    assert "|" + "#" * 13 + " " * 19 + "|" in lines[2]
    assert lines[2].startswith("  client-1 deliver http-reply")


def test_render_profile_tree_elides_small_subtrees():
    profiler = _golden_profiler()
    clock = FakeClock()
    clock.t = 1.0
    profiler._time = clock
    tiny = profiler.enter("dust", "event", "noise")
    clock.t = 1.00001
    profiler.exit(tiny)
    tree = render_profile_tree(profiler, min_fraction=0.005)
    assert "dust" not in tree
    assert tree.splitlines()[-1] == "... 1 subtrees below 0.5% elided"


def test_export_profile_json_round_trips():
    exported = export_profile(_golden_profiler())
    decoded = json.loads(json.dumps(exported))
    assert decoded["attribution"] == pytest.approx(0.05 / 0.06)
    assert decoded["events"] == 2
    assert decoded["buckets"][0]["handler"] == "Broker._on_message"
    root = decoded["tree"]
    assert root["handler"] == "run"
    assert root["children"][0]["node"] == "broker"
    assert root["children"][0]["children"][0]["kind"] == "deliver"


# -- scenario wiring ---------------------------------------------------------


def _tiny_config(**overrides):
    base = dict(seed=11, n_buildings=1, devices_per_building=2,
                n_networks=1)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_scenario_profile_flag_installs_profiler():
    district = deploy(_tiny_config(profile=True))
    assert district.profiler is not None
    assert district.scheduler.profiler is district.profiler
    district.run(30.0)
    assert district.profiler.events > 0
    assert district.profiler.buckets()


def test_scenario_default_has_no_profiler():
    district = deploy(_tiny_config())
    assert district.profiler is None
    assert district.scheduler.profiler is None


def test_profiled_run_is_message_identical_to_twin():
    plain = deploy(_tiny_config())
    profiled = deploy(_tiny_config(profile=True))
    plain.run(200.0)
    profiled.run(200.0)
    assert profiled.network.stats.messages_delivered == \
        plain.network.stats.messages_delivered
    assert profiled.scheduler.events_processed == \
        plain.scheduler.events_processed


# -- the guard-cost microbenchmark -------------------------------------------


def _run_arm(prepare):
    """Deploy, apply *prepare*, run; return (wall_seconds, messages)."""
    district = deploy(_tiny_config(n_buildings=2, devices_per_building=3))
    prepare(district)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        district.run(400.0)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return wall, district.network.stats.messages_delivered


def _disabled_profiler(district):
    install_profiler(district.network)
    uninstall_profiler(district.network)


@pytest.mark.slow
def test_observability_off_guards_cost_nothing():
    """The None-guards on the hot path must be ~free when nothing is on.

    Three arms over the identical deployment: bare, observability
    installed (tracer + metrics active), and a profiler installed then
    uninstalled.  Arms interleave over several rounds and each takes its
    best (minimum) wall clock, which filters scheduler noise; the
    bound is deliberately generous — this catches accidental real work
    on the guarded path (string formatting, dict lookups), not
    micro-regressions.
    """
    arms = {
        "bare": lambda district: None,
        "observability": lambda district: install_observability(
            district.network),
        "profiler-off": _disabled_profiler,
    }
    best = {name: float("inf") for name in arms}
    messages = {}
    for _ in range(3):
        for name, prepare in arms.items():
            wall, delivered = _run_arm(prepare)
            best[name] = min(best[name], wall)
            messages.setdefault(name, delivered)
            assert messages[name] == delivered
    # guards never change what the simulation does
    assert messages["bare"] == messages["profiler-off"]
    assert messages["bare"] == messages["observability"]
    assert best["profiler-off"] <= best["bare"] * 1.5, (
        f"disabled profiler slowed the run x"
        f"{best['profiler-off'] / best['bare']:.2f}"
    )
