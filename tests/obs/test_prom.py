"""Prometheus exposition contract and the /metrics endpoint."""

import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.obs import configure_metrics
from repro.obs import prometheus_name, prometheus_text
from repro.obs.prom import CONTENT_TYPE, MetricsHTTPServer


def _scrape(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestNames:
    def test_dots_become_underscores_with_namespace(self):
        assert prometheus_name("eval.requests") == "repro_eval_requests"

    def test_invalid_chars_sanitized(self):
        assert prometheus_name("a-b c/d") == "repro_a_b_c_d"

    def test_leading_digit_is_safe_under_the_namespace(self):
        assert prometheus_name("9lives") == "repro_9lives"


class TestExposition:
    def test_counter_gains_total_suffix(self):
        text = prometheus_text({"eval.requests": 7})
        assert "# TYPE repro_eval_requests_total counter" in text
        assert "# HELP repro_eval_requests_total repro counter eval.requests" in text
        assert "repro_eval_requests_total 7\n" in text

    def test_seconds_render_as_float(self):
        text = prometheus_text({"eval.wall_s": 0.25})
        assert "repro_eval_wall_s_total 0.25\n" in text

    def test_non_finite_values_use_exposition_spelling(self):
        text = prometheus_text({"a": float("inf"), "b": float("nan")})
        assert "repro_a_total +Inf\n" in text
        assert "repro_b_total NaN\n" in text

    def test_three_lines_per_series(self):
        text = prometheus_text({"a": 1, "b": 2})
        assert len(text.splitlines()) == 6

    def test_deterministic_and_sorted(self):
        series = {"z.last": 1, "a.first": 2, "m.middle": 0.1}
        first, second = prometheus_text(series), prometheus_text(series)
        assert first == second
        order = [
            l.split()[2]
            for l in first.splitlines()
            if l.startswith("# TYPE")
        ]
        assert order == sorted(order)

    def test_default_is_the_registry(self):
        reg = configure_metrics(reset=True)
        reg.counter("x").add(2)
        assert prometheus_text() == prometheus_text({"x": 2})

    def test_empty_registry_empty_text(self):
        assert prometheus_text({}) == ""


class TestEndpoint:
    def test_metrics_and_healthz(self):
        with MetricsHTTPServer(collect=lambda: {"eval.requests": 5}) as server:
            status, headers, body = _scrape(server.url)
            assert status == 200
            assert headers["Content-Type"] == CONTENT_TYPE
            assert "repro_eval_requests_total 5" in body
            base = server.url.rsplit("/", 1)[0]
            status, _, body = _scrape(f"{base}/healthz")
            assert status == 200 and body == "ok\n"

    def test_unknown_path_404(self):
        with MetricsHTTPServer(collect=dict) as server:
            base = server.url.rsplit("/", 1)[0]
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(f"{base}/nope")
            assert err.value.code == 404

    def test_collect_failure_500_not_crash(self):
        def boom():
            raise RuntimeError("collapse")

        with MetricsHTTPServer(collect=boom) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(server.url)
            assert err.value.code == 500
            # server survives: a later scrape still answers
            base = server.url.rsplit("/", 1)[0]
            status, _, _ = _scrape(f"{base}/healthz")
            assert status == 200

    def test_collect_may_return_text(self):
        with MetricsHTTPServer(collect=lambda: "canned 1\n") as server:
            status, _, body = _scrape(server.url)
            assert status == 200 and body == "canned 1\n"

    def test_binds_loopback_by_default(self):
        server = MetricsHTTPServer()
        assert server.url.startswith("http://127.0.0.1:")


def test_cli_import_leaves_http_server_unloaded():
    # ``http.server`` is imported only when a metrics server starts, so
    # a plain ``import repro.cli`` must not pay for it.
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('http.server' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "False"
