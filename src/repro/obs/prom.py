"""Prometheus text-exposition export and the ``/metrics`` endpoint.

A run's metrics series (:func:`~repro.obs.metrics.run_series`) maps onto
the Prometheus exposition format (version 0.0.4) with the standard
conventions:

* metric names are sanitized (``eval.requests`` → ``repro_eval_requests``)
  and, every series being a counter, gain the ``_total`` suffix;
* output is deterministic: metrics sorted by exposition name, so two
  renderings of the same series produce byte-identical text (pinned by
  ``tests/obs/test_prom.py``).

:class:`MetricsHTTPServer` serves ``/metrics`` and ``/healthz`` from a
stdlib ``http.server`` on a background thread — no third-party client
library, no new dependencies.  ``http.server`` (and the
``http.client``, ``ssl``, ``socketserver`` and ``mimetypes`` modules it
pulls in) is imported only when a server starts, so runs without
``--metrics-port`` never pay for it.  It binds ``127.0.0.1`` by
default; the exposition is an unauthenticated read of run internals,
so exposing it beyond the local host is an explicit opt-in
(``host="0.0.0.0"``).  The handler takes a *collect callback* returning
the series to expose, so each scrape renders the run as it is then.
"""

from __future__ import annotations

import re
import threading
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Union

from .metrics import Number, run_series

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


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a valid Prometheus name.

    Dots (the registry's hierarchy separator) and any other invalid
    characters become underscores, under the ``repro_`` namespace.
    """
    return "repro_" + _INVALID_CHARS.sub("_", name)


def _format_value(value: Number) -> str:
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(series: Optional[Mapping[str, Number]] = None) -> str:
    """Render a metrics series as Prometheus exposition.

    ``series`` maps metric names to values (default: the registry alone,
    :func:`run_series` without an engine).  Each becomes one counter
    with its ``# HELP``/``# TYPE`` header pair, sorted by exposition
    name.
    """
    if series is None:
        series = run_series()
    out = []
    for raw_name, name in sorted(
        (raw, prometheus_name(raw) + "_total") for raw in series
    ):
        out.append(f"# HELP {name} repro counter {raw_name}")
        out.append(f"# TYPE {name} counter")
        out.append(f"{name} {_format_value(series[raw_name])}")
    return "\n".join(out) + ("\n" if out else "")


Collect = Callable[[], Union[Mapping[str, Number], str]]


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
        self._collect = collect or run_series
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
