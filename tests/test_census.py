"""The census of caller-less surface (``scripts/census.py``), in tier-1.

What a census finds is either deleted or listed in its ``ALLOW`` table
with a reason, so the list can shrink in later PRs and cannot silently
grow: a new module nothing imports, a new option nothing sets or a new
function nothing calls fails here until it gets a caller or a reason.
"""

import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

from repro.observability.collector import FleetMonitorConfig
from repro.simulation.scenario import ScenarioConfig
from repro.storage.blocks import TsdbConfig

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "scripts" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

#: the second holders of an answer the client already holds: the
#: master's resolve body cache, the body-size hint that fed it and the
#: Device-proxy's descriptor memo
SECOND_HOLDERS = ("RESOLVE_CACHE_MAX", "resolve_cache_max",
                  "presized_estimate", "body_size", "_descriptor_cache")

#: what was deleted: none of it may come back, found or allow-listed
#: (seven hub fields and ``BrokerDurabilityConfig`` became
#: ``ScenarioConfig.master`` / ``.broker``, two ``HubConfig`` values;
#: the next two rows are the network-wide metrics registry's counters,
#: gauges and the wiring that attached it to every node; the next
#: rows are a test-only tracer query and the fleet monitor's unread
#: /health scrape, its second ring and the options no caller set; the
#: next five are the wall-clock perf floor's three names and a
#: test-only ISO parser with its one helper; the next five are the
#: routes that repeated another route of the same node and two
#: test-only unit helpers; the next three are the reference scheduler
#: loop's switch, the radio-loss option only one test set and the
#: profiled second copy of the dispatch loop; the next four are the
#: switch that deployed devices unstarted, the per-device energy meter
#: with its attach hook, and a measurement-DB query only tests made;
#: then the GIS proxy's two spatial routes; the last six are the TSDB's
#: rollup-resolution knob and its engine retention: the horizon, the
#: rollup-bucket rebuild and the three counters that path fed)
REMOVED = SECOND_HOLDERS + (
    "ScenarioConfig.net_base_latency", "ScenarioConfig.radio_latency",
    "ScenarioConfig.lease_factor", "ScenarioConfig.host_prefix",
    "FleetMonitorConfig.scrape_timeout",
    "FleetMonitorConfig.staleness_factor",
    "MetricsCollector.staleness_factor", "AlertManager.max_history",
    "SloEngine.max_points", "LatencyModel.loopback",
    "MasterNode.default_lease", "REPRO_PROFILE",
    "handler_for", "stop_lease_sweeper", "restore_measurement_db",
    "DeviceError", "opcua.browse", "opcua.is_good", "MetricsRecorder",
    "ScenarioConfig.master_standbys", "ScenarioConfig.replication",
    "ScenarioConfig.master_snapshot_path",
    "ScenarioConfig.master_snapshot_period",
    "ScenarioConfig.broker_standbys", "ScenarioConfig.broker_replication",
    "ScenarioConfig.broker_durability", "BrokerDurabilityConfig",
    "scenario.device_proxy_for", "scheduler.stopped",
    "Observability", "metric_prefix", "_count_metric",
    "DeployedDistrict.metrics", "Counter", "Gauge", "gauge",
    "topics.topic_device", "transport.partitioned",
    "trace_ids", "_SliSeries", "_on_health",
    "FleetMonitorConfig.retention", "FleetMonitorConfig.health_every",
    "FleetMonitorConfig.slos", "FleetMonitorConfig.policy",
    "MetricsCollector.retention", "MetricsCollector.health_every",
    "MetricsCollector.policy",
    "compare_to_baseline", "DEFAULT_FLOOR", "check_perf_regression",
    "parse_iso", "from_datetime",
    "/health", "/repl/status", "/districts",
    "units.known_quantities", "units.from_unit",
    "units.register_conversion", "model.find_device",
    "simtime.clamp_window", "sim.cadastral_ids", "gis.by_cadastral_id",
    "entity_ids_of_type", "entity_ids_with_quantity", "entity_ids_in_bbox",
    "GRID_CELL_SIZE", "replace_device", "set_bounds",
    "pending_delivery_count",
    "ScenarioConfig.reference_scheduler", "ScenarioConfig.radio_loss",
    "_step_profiled",
    "ScenarioConfig.start_devices", "DeviceEnergyModel",
    "attach_energy_model", "/freshness/{device_id}",
    "/features", "/locate",
    "TsdbConfig.retention", "TsdbConfig.rollup_resolutions",
    "_rebuild_bucket", "blocks_retired", "samples_retired",
    "rollup_buckets_pruned",
)


@pytest.fixture(scope="module")
def findings():
    return census.census()


class TestThisRepository:
    def test_every_finding_is_listed_and_no_entry_is_stale(self, findings):
        assert [f for f in findings if f not in census.ALLOW] == []
        assert sorted(set(census.ALLOW) - set(findings)) == []
        assert census.main() == 0

    def test_every_allow_list_entry_states_its_reason(self):
        for finding, reason in census.ALLOW.items():
            assert len(reason.split()) >= 5, finding

    @pytest.mark.parametrize("name", REMOVED)
    def test_what_was_removed_stays_removed(self, findings, name):
        assert not [f for f in findings if f.split()[1].endswith(name)]
        assert not [f for f in census.ALLOW if f.split()[1].endswith(name)]

    def test_option_counts_only_go_down(self):
        fields = {field.name for field in dataclasses.fields(ScenarioConfig)}
        assert len(fields) <= 19
        assert not [name for name in REMOVED
                    if name.startswith("ScenarioConfig.")
                    and name.split(".")[1] in fields]
        assert len(dataclasses.fields(FleetMonitorConfig)) <= 1
        assert len(dataclasses.fields(TsdbConfig)) <= 3
        assert not [path for path in (ROOT / "src").rglob("*.py")
                    if "os.environ" in path.read_text()]

    def test_answers_are_held_only_by_whoever_asked(self):
        # the client holds every resolve, model and /data answer with its
        # token; nothing in the library keeps a second copy (the leading
        # \b spares cli.py's "bench_c9_resolve_cache.py")
        names = re.compile("|".join(SECOND_HOLDERS)
                           + r"|\b_resolve_cache\b")
        assert not [f"{path.relative_to(ROOT)}:{number}"
                    for path in (ROOT / "src").rglob("*.py")
                    for number, line
                    in enumerate(path.read_text().splitlines(), 1)
                    if names.search(line)]

    def test_no_node_counts_into_a_network_wide_registry(self):
        # each event is counted once, by the node that sees it, and
        # served on that node's /metrics
        assert not [path for path in (ROOT / "src").rglob("*.py")
                    if "network.metrics" in path.read_text()
                    or ".counter(" in path.read_text()]


def test_a_planted_tree_yields_one_finding_of_each_kind(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/scenario.py": (
            "import os\n"
            "from dataclasses import dataclass\n"
            "from repro import used\n"
            "@dataclass\n"
            "class ScenarioConfig:\n"
            "    seed: int = 0\n"
            "    lease_factor: float = 3.0\n"
            "class Node:\n"
            "    def __init__(self, host, delay=0.1, limit=5):\n"
            "        self.limit = os.environ.get('REPRO_LIMIT', limit)\n"
            "def deploy():\n"
            "    return Node('h'), used.helper()\n"
            "def reset():\n"
            "    '''deploy, but nobody calls it'''\n"
        ),
        "src/repro/used.py": (
            "from repro import scenario\n"
            "def helper(): pass\n"
            "def probe(): pass\n"
            "def serve(service, peer):\n"
            "    service.add_route(GET, '/metrics', print)\n"
            "    service.add_route(GET, '/latest/{device}', print)\n"
            "    service.add_route(POST, '/replicate', print)\n"
            "    service.add_route(GET, '/health', print)\n"
            "    return peer + 'replicate'\n"),
        "src/repro/orphan.py": "def anything(): pass\n",
        "benchmarks/bench.py": (
            "from repro.scenario import Node, ScenarioConfig, deploy\n"
            "from repro.used import serve\n"
            "deploy(), ScenarioConfig(seed=1), Node('h', 0.2)\n"
            "serve(None, uri + '/metrics'), get('svc://proxy/latest/d1')\n"),
        "tests/test_used.py": (
            "from repro import orphan, used\n"
            "used.probe(), orphan.anything(), get('/health')\n"),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert census.census(tmp_path) == [
        "definition: repro.scenario.reset (nothing)",
        "definition: repro.used.probe (tests only)",
        "environment: REPRO_LIMIT",
        "module: repro.orphan",
        "option: Node.limit",
        "option: ScenarioConfig.lease_factor",
        "route: /health (GET, repro.used; tests only)",
    ]
