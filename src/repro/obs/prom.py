"""Prometheus text-exposition export and the ``/metrics`` endpoint.

The registry's snapshot maps onto the Prometheus exposition format
(version 0.0.4) with the standard conventions:

* metric names are sanitized (``eval.requests`` → ``repro_eval_requests``)
  and counters gain the ``_total`` suffix;
* histograms emit the full ``_bucket`` (cumulative, ``le``-labelled,
  terminated by ``le="+Inf"``) / ``_sum`` / ``_count`` contract;
* output is deterministic: metrics sorted by exposition name, labels
  sorted by key, so two snapshots of the same registry produce
  byte-identical text (pinned by ``tests/obs/test_prom.py``).

:class:`MetricsHTTPServer` serves ``/metrics`` and ``/healthz`` from a
stdlib ``http.server`` on a background thread — no third-party client
library, no new dependencies.  ``http.server`` (and the
``http.client``, ``ssl``, ``socketserver`` and ``mimetypes`` modules it
pulls in) is imported only when a server starts, so runs without
``--metrics-port`` never pay for it.  It binds ``127.0.0.1`` by
default; the exposition is an unauthenticated read of run internals,
so exposing it beyond the local host is an explicit opt-in
(``host="0.0.0.0"``).  This
endpoint is the seed of the future ``repro serve`` daemon the ROADMAP
names: the handler takes a *collect callback* returning a registry, so
a long-running server can swap in whatever aggregation it needs.
"""

from __future__ import annotations

import re
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Union

from .metrics import MetricsRegistry, get_metrics

if TYPE_CHECKING:  # pragma: no cover
    from http.server import ThreadingHTTPServer

__all__ = [
    "MetricsHTTPServer",
    "prometheus_name",
    "prometheus_text",
]

#: Exposition content type for format version 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, namespace: str = "repro") -> str:
    """Sanitize a registry metric name into a valid Prometheus name.

    Dots (the registry's hierarchy separator) and any other invalid
    characters become underscores; the namespace is prepended once.
    """
    flat = _INVALID_CHARS.sub("_", name)
    if namespace:
        flat = f"{namespace}_{flat}"
    if _INVALID_FIRST.match(flat):
        flat = f"_{flat}"
    return flat


def _label_name(name: str) -> str:
    sanitized = _INVALID_LABEL_CHARS.sub("_", name)
    if _INVALID_FIRST.match(sanitized):
        sanitized = f"_{sanitized}"
    return sanitized


def _escape_label_value(value: Any) -> str:
    """Backslash-escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _render_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_label_name(key)}="{_escape_label_value(labels[key])}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(
    registry: Optional[Union[MetricsRegistry, Dict[str, Dict[str, Any]]]] = None,
    namespace: str = "repro",
    labels: Optional[Mapping[str, Any]] = None,
) -> str:
    """Render a registry (or a snapshot dict) as Prometheus exposition.

    ``labels`` are attached to every sample (e.g. ``{"device": "P100"}``),
    merged under any histogram ``le`` label.  Output order is
    deterministic: one ``# HELP``/``# TYPE`` header pair per metric,
    metrics sorted by exposition name.
    """
    if registry is None:
        registry = get_metrics()
    snapshot = (
        registry.snapshot()
        if isinstance(registry, MetricsRegistry)
        else registry
    )
    base_labels = dict(labels or {})
    blocks = []
    for raw_name in snapshot:
        data = snapshot[raw_name]
        kind = data.get("type")
        name = prometheus_name(raw_name, namespace)
        lines = []
        if kind == "counter":
            name = f"{name}_total"
            lines.append(f"# HELP {name} repro counter {raw_name}")
            lines.append(f"# TYPE {name} counter")
            lines.append(
                f"{name}{_render_labels(base_labels)} "
                f"{_format_value(data.get('value', 0))}"
            )
        elif kind == "gauge":
            lines.append(f"# HELP {name} repro gauge {raw_name}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(
                f"{name}{_render_labels(base_labels)} "
                f"{_format_value(data.get('value', 0))}"
            )
        elif kind == "histogram":
            lines.append(f"# HELP {name} repro histogram {raw_name}")
            lines.append(f"# TYPE {name} histogram")
            bounds = list(data.get("le", ()))
            buckets = list(data.get("buckets", ()))
            cumulative = 0
            for index, bound in enumerate(bounds):
                cumulative += int(buckets[index]) if index < len(buckets) else 0
                bucket_labels = dict(base_labels)
                bucket_labels["le"] = _format_value(float(bound))
                lines.append(
                    f"{name}_bucket{_render_labels(bucket_labels)} "
                    f"{cumulative}"
                )
            bucket_labels = dict(base_labels)
            bucket_labels["le"] = "+Inf"
            lines.append(
                f"{name}_bucket{_render_labels(bucket_labels)} "
                f"{int(data.get('count', 0))}"
            )
            lines.append(
                f"{name}_sum{_render_labels(base_labels)} "
                f"{_format_value(data.get('sum', 0.0))}"
            )
            lines.append(
                f"{name}_count{_render_labels(base_labels)} "
                f"{int(data.get('count', 0))}"
            )
        else:
            continue
        blocks.append((name, lines))
    out = []
    for _, lines in sorted(blocks, key=lambda block: block[0]):
        out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")


Collect = Callable[[], Union[MetricsRegistry, Dict[str, Dict[str, Any]], str]]


def _handler_class():
    """The request handler, built on first use to keep ``http.server``
    out of every import of the package."""
    from http.server import BaseHTTPRequestHandler

    class _Handler(BaseHTTPRequestHandler):
        """``/metrics`` + ``/healthz``; anything else is a 404."""

        server_version = "repro-metrics/1"

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                try:
                    collected = self.server.collect()  # type: ignore[attr-defined]
                    body = (
                        collected
                        if isinstance(collected, str)
                        else prometheus_text(collected)
                    ).encode("utf-8")
                except Exception as exc:  # collection must never kill the run
                    self._respond(
                        500, f"collect failed: {exc}\n".encode("utf-8")
                    )
                    return
                self._respond(200, body, CONTENT_TYPE)
            elif path == "/healthz":
                self._respond(200, b"ok\n")
            else:
                self._respond(404, b"not found\n")

        def _respond(
            self, status: int, body: bytes, content_type: str = "text/plain"
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # scrapes are routine; stay silent on stderr

    return _Handler


class MetricsHTTPServer:
    """Background ``/metrics`` endpoint over a collect callback.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after :meth:`start`), which is what tests and parallel CI runs use.
    The serving thread is daemonic: a crashed run never hangs on the
    exporter.
    """

    def __init__(
        self,
        collect: Optional[Collect] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._collect = collect or get_metrics
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"

    def start(self) -> "MetricsHTTPServer":
        if self._httpd is not None:
            return self
        from http.server import ThreadingHTTPServer

        httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), _handler_class()
        )
        httpd.daemon_threads = True
        httpd.collect = self._collect  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
