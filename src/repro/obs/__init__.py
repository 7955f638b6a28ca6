"""Structured observability for the ARTEMIS pipeline.

ARTEMIS's premise is that optimization decisions must be driven by
measured counters rather than guesswork; this package applies the same
standard to the pipeline itself.  Three pieces:

* :mod:`~repro.obs.tracer` — hierarchical, thread-safe span tracing
  (where does wall time go across parse → analysis → planning → tuning
  → simulation?), zero-cost while disabled;
* :mod:`~repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms that the evaluation engine, simulator and
  tuners feed;
* :mod:`~repro.obs.export` — chrome://tracing and flat-JSON export,
  plus the per-phase aggregation behind the report's timing table;
* :mod:`~repro.obs.prom` — Prometheus text exposition and the
  ``/metrics`` + ``/healthz`` HTTP endpoint.

Surfaced on the CLI as ``--trace out.json`` / ``--metrics`` /
``--metrics-port`` on the ``optimize``, ``deep-tune`` and ``profile``
subcommands.  See ``docs/observability.md``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure_metrics,
    counter,
    gauge,
    get_metrics,
    histogram,
    metrics_enabled,
)
from .tracer import (
    Span,
    Tracer,
    configure_tracing,
    get_tracer,
    span,
    traced,
    tracing_enabled,
)
from .export import (
    PhaseTotal,
    aggregate_phases,
    chrome_trace,
    flat_json,
    write_trace,
)
from .prom import MetricsHTTPServer, prometheus_name, prometheus_text
from .search import SearchLog, log_context, read_events

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "PhaseTotal",
    "SearchLog",
    "Span",
    "Tracer",
    "aggregate_phases",
    "chrome_trace",
    "configure_metrics",
    "configure_tracing",
    "counter",
    "flat_json",
    "gauge",
    "get_metrics",
    "get_tracer",
    "histogram",
    "log_context",
    "metrics_enabled",
    "prometheus_name",
    "prometheus_text",
    "read_events",
    "span",
    "traced",
    "tracing_enabled",
    "write_trace",
]


def observability_enabled() -> bool:
    """True when either tracing or metrics collection is active."""
    return tracing_enabled() or metrics_enabled()
