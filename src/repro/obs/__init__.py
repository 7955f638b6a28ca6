"""Structured observability for the ARTEMIS pipeline.

ARTEMIS's premise is that optimization decisions must be driven by
measured counters rather than guesswork; this package applies the same
standard to the pipeline itself.  Three pieces:

* :mod:`~repro.obs.tracer` — hierarchical, thread-safe span tracing
  (where does wall time go across parse → analysis → planning → tuning
  → simulation?), zero-cost while disabled;
* :mod:`~repro.obs.metrics` — a process-wide registry of counters that
  always count, fed by the simulator, lint prescreen, memo caches, lane
  model and tuners; :func:`~repro.obs.metrics.run_series` adds one
  engine's ``EvalStats`` as the ``eval.*`` series;
* :mod:`~repro.obs.export` — chrome://tracing and flat-JSON export,
  plus the per-phase aggregation behind the report's timing table;
* :mod:`~repro.obs.prom` — Prometheus text exposition and the
  ``/metrics`` + ``/healthz`` HTTP endpoint.

Surfaced on the CLI as ``--trace out.json`` / ``--metrics`` /
``--metrics-port`` on the ``optimize``, ``deep-tune`` and ``profile``
subcommands.  See ``docs/observability.md``.
"""

from .._lazy import lazy_attributes
from .metrics import (
    Counter,
    MetricsRegistry,
    configure_metrics,
    counter,
    get_metrics,
    run_series,
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
from .search import SearchLog, log_context, read_events

__getattr__ = lazy_attributes(
    __name__,
    {
        ".prom": ("MetricsHTTPServer", "prometheus_name", "prometheus_text"),
    },
)

__all__ = [
    "Counter",
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
    "get_metrics",
    "get_tracer",
    "log_context",
    "prometheus_name",
    "prometheus_text",
    "read_events",
    "run_series",
    "span",
    "traced",
    "tracing_enabled",
    "write_trace",
]
