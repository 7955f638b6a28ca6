"""Prometheus exposition contract and the /metrics endpoint."""

import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, prometheus_name, prometheus_text
from repro.obs.prom import (
    CONTENT_TYPE,
    MetricsHTTPServer,
    _escape_label_value,
)


def _scrape(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestNames:
    def test_dots_become_underscores_with_namespace(self):
        assert prometheus_name("eval.requests") == "repro_eval_requests"

    def test_invalid_chars_sanitized(self):
        assert prometheus_name("a-b c/d") == "repro_a_b_c_d"

    def test_no_namespace_leading_digit_guarded(self):
        assert prometheus_name("9lives", namespace="")[0] == "_"


class TestLabelEscaping:
    def test_backslash_newline_quote(self):
        assert _escape_label_value('a\\b\n"c"') == 'a\\\\b\\n\\"c\\"'

    def test_escaped_labels_in_exposition(self):
        reg = MetricsRegistry()
        reg.counter("x").add(1)
        text = prometheus_text(reg, labels={"path": 'C:\\tmp\n"x"'})
        assert 'path="C:\\\\tmp\\n\\"x\\""' in text


class TestExposition:
    def test_counter_gains_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("eval.requests").add(7)
        text = prometheus_text(reg)
        assert "# TYPE repro_eval_requests_total counter" in text
        assert "repro_eval_requests_total 7\n" in text

    def test_gauge_plain(self):
        reg = MetricsRegistry()
        reg.gauge("queue.depth").set(3)
        text = prometheus_text(reg)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 3\n" in text

    def test_histogram_bucket_sum_count_contract(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.0005, 0.002, 0.002, 5000.0):  # last lands past all bounds
            h.observe(v)
        text = prometheus_text(reg)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        buckets = [l for l in lines if l.startswith("repro_lat_bucket")]
        # cumulative and +Inf-terminated
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith('repro_lat_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "repro_lat_count 4" in text
        assert any(l.startswith("repro_lat_sum ") for l in lines)

    def test_histogram_inf_bucket_counts_out_of_range(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(10_000.0)  # beyond every finite bound
        text = prometheus_text(reg)
        finite = [
            l
            for l in text.splitlines()
            if l.startswith("repro_lat_bucket") and '+Inf' not in l
        ]
        assert all(l.endswith(" 0") for l in finite)
        assert 'repro_lat_bucket{le="+Inf"} 1' in text

    def test_deterministic_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last").add(1)
        reg.gauge("a.first").set(2)
        reg.histogram("m.middle").observe(0.1)
        first, second = prometheus_text(reg), prometheus_text(reg)
        assert first == second
        order = [
            l.split()[2]
            for l in first.splitlines()
            if l.startswith("# TYPE")
        ]
        assert order == sorted(order)

    def test_snapshot_dict_accepted(self):
        reg = MetricsRegistry()
        reg.counter("x").add(2)
        assert prometheus_text(reg.snapshot()) == prometheus_text(reg)

    def test_empty_registry_empty_text(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestEndpoint:
    def test_metrics_and_healthz(self):
        reg = MetricsRegistry()
        reg.counter("eval.requests").add(5)
        with MetricsHTTPServer(collect=lambda: reg) as server:
            status, headers, body = _scrape(server.url)
            assert status == 200
            assert headers["Content-Type"] == CONTENT_TYPE
            assert "repro_eval_requests_total 5" in body
            base = server.url.rsplit("/", 1)[0]
            status, _, body = _scrape(f"{base}/healthz")
            assert status == 200 and body == "ok\n"

    def test_unknown_path_404(self):
        with MetricsHTTPServer(collect=MetricsRegistry) as server:
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
