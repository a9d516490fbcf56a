"""Cross-layer telemetry: metrics registry and flow tracing.

Two complementary views of one simulation:

* **metrics** — a registry of counters/gauges/histograms under
  hierarchical names (``tcp.<host>.<flow>.retransmits``,
  ``diffserv.<edge>.policer.drops``, ``gara.broker.admissions``),
  populated by scraping the stack's authoritative per-object statistics
  at snapshot time plus live histograms (e.g. TCP RTT samples);
* **spans** — an event log following MPI messages across layers (MPI
  send → GARA claim → DSCP marking → TCP segments → per-hop egress →
  delivery), emitted by instrumentation sites guarded so a disabled
  session costs one ``None`` check.

Usage::

    from repro import telemetry

    tel = telemetry.install(telemetry.Telemetry(trace=True))
    dep = build_deployment(...)   # auto-attaches to the active session
    ...run...
    telemetry.export_json(tel, "results/run.metrics.json")
    telemetry.uninstall()
"""

from .collect import (
    collect_any,
    collect_broker,
    collect_broker_client,
    collect_broker_service,
    collect_deployment,
    collect_domain,
    collect_mpi_world,
    collect_mpichgq,
    collect_network,
    collect_tcp_host,
)
from .export import export_csv, export_json, metrics_csv_text, metrics_payload
from .hub import Telemetry, active, install, uninstall
from .merge import merge_registries
from .registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from .spans import FlowTrace, SpanEvent
from .windowed import WindowedHistogram

__all__ = [
    "CounterMetric",
    "FlowTrace",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "SpanEvent",
    "Telemetry",
    "WindowedHistogram",
    "active",
    "collect_any",
    "collect_broker",
    "collect_broker_client",
    "collect_broker_service",
    "collect_deployment",
    "collect_domain",
    "collect_mpi_world",
    "collect_mpichgq",
    "collect_network",
    "collect_tcp_host",
    "export_csv",
    "export_json",
    "install",
    "merge_registries",
    "metrics_csv_text",
    "metrics_payload",
    "uninstall",
]
