"""End-to-end observability: tracing, fleet monitoring, profiling.

The cross-cutting measurement substrate of the framework.  Install the
tracer on a simulated network and every instrumented component — HTTP
client and Web-Service layers, the master's resolve path, the pub/sub
broker and peers, the resilience machinery — starts emitting per-hop
spans and structured events timestamped on the simulated clock.  Each
node's ``/metrics`` endpoint serves its own component counters whether
or not anything is installed; the :class:`FleetMonitor` scrapes them.

Nothing is installed by default: ``network.tracer`` is ``None`` and
every instrumentation site guards on that, so the seed behaviour (and
its determinism) is untouched until :func:`install` is called — either
directly or via ``ScenarioConfig(observability=True)``.
"""

from repro.observability.collector import (
    FleetMonitor,
    FleetMonitorConfig,
    MetricsCollector,
    ScrapeTarget,
    render_fleet,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.slo import (
    SLO,
    Alert,
    AlertManager,
    SloEngine,
    default_slos,
    render_alert_log,
)
from repro.observability.profiler import (
    SimProfiler,
    export_profile,
    install_profiler,
    render_profile_table,
    render_profile_tree,
    uninstall_profiler,
)
from repro.observability.tracing import (
    Span,
    SpanEvent,
    Tracer,
    render_waterfall,
)


def install(network) -> Tracer:
    """Enable tracing on *network* (idempotent) and return its tracer.

    An installed tracer is reused, so calling twice never discards
    recorded spans.
    """
    if network.tracer is None:
        network.tracer = Tracer(network.scheduler)
    return network.tracer


def uninstall(network) -> None:
    """Remove the tracer; components stop emitting."""
    network.tracer = None


__all__ = [
    "Alert",
    "AlertManager",
    "FleetMonitor",
    "FleetMonitorConfig",
    "Histogram",
    "MetricsCollector",
    "MetricsRegistry",
    "SLO",
    "ScrapeTarget",
    "SimProfiler",
    "SloEngine",
    "Span",
    "SpanEvent",
    "Tracer",
    "default_slos",
    "export_profile",
    "install",
    "install_profiler",
    "render_fleet",
    "render_alert_log",
    "render_profile_table",
    "render_profile_tree",
    "render_waterfall",
    "uninstall",
    "uninstall_profiler",
]
