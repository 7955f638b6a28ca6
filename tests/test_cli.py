"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.codegen.resources import auto_assign, seed_plan_from_pragma


def seed_plan(ir):
    return auto_assign(ir, seed_plan_from_pragma(ir, ir.kernels[0])).plan


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCharacteristics:
    def test_benchmark_name(self, capsys):
        assert main(["characteristics", "7pt-smoother"]) == 0
        out = capsys.readouterr().out
        assert "FLOPs per point : 10" in out
        assert "512x512x512" in out

    def test_dsl_file(self, tmp_path, capsys):
        spec = tmp_path / "simple.dsl"
        spec.write_text(
            """
            parameter N=64;
            iterator k, j, i;
            double a[N,N,N], b[N,N,N];
            copyin a;
            stencil s (b, a) { b[k][j][i] = a[k][j][i+1] + a[k][j][i-1]; }
            s (b, a);
            copyout b;
            """
        )
        assert main(["characteristics", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "stencil order   : 1" in out

    def test_missing_source(self):
        with pytest.raises(SystemExit):
            main(["characteristics", "no_such_thing"])


class TestSuite:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        for name in ("7pt-smoother", "rhs4sgcurv", "denoise"):
            assert name in out


class TestCuda:
    def test_emits_kernel(self, capsys):
        assert main(["cuda", "7pt-smoother"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out
        assert "cudaMemcpy" in out

    def test_unknown_device(self, capsys):
        # Unknown names resolve through the registry (UsageError, exit 2)
        # rather than an argparse choices= SystemExit, so --device accepts
        # profiles added via register_device().
        assert main(["cuda", "7pt-smoother", "--device", "H100"]) == 2
        err = capsys.readouterr().err
        assert "unknown device 'H100'" in err
        assert "P100" in err


class TestProfile:
    def test_prints_metrics_and_verdict(self, capsys):
        assert main(["profile", "7pt-smoother"]) == 0
        out = capsys.readouterr().out
        assert "flop_count_dp" in out
        assert "bound at:" in out
        assert "OI_dram" in out


class TestOptimize:
    def test_iterative_flow(self, capsys):
        assert main(["optimize", "7pt-smoother", "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "ARTEMIS optimization report" in out
        assert "tipping point" in out

    def test_custom_iterations(self, capsys):
        assert main([
            "optimize", "7pt-smoother", "-T", "5", "--top-k", "1"
        ]) == 0
        out = capsys.readouterr().out
        assert "T=5" in out


class TestDeepTune:
    def test_smoother(self, capsys):
        assert main(["deep-tune", "7pt-smoother", "-T", "13"]) == 0
        out = capsys.readouterr().out
        assert "tipping point" in out
        assert "schedule for T=13" in out

    def test_rejects_spatial(self):
        with pytest.raises(SystemExit):
            main(["deep-tune", "rhs4center"])


class TestSuiteOutput:
    def test_exit_code_and_header(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("benchmark")
        assert "notes" in out.splitlines()[0]

    def test_rejects_extra_arguments(self):
        with pytest.raises(SystemExit):
            main(["suite", "7pt-smoother"])


class TestCudaOutput:
    def test_dsl_file_input(self, tmp_path, capsys):
        spec = tmp_path / "s.dsl"
        spec.write_text(
            """
            parameter N=64;
            iterator k, j, i;
            double a[N,N,N], b[N,N,N];
            copyin a;
            stencil s (b, a) { b[k][j][i] = a[k][j][i+1] + a[k][j][i-1]; }
            s (b, a);
            copyout b;
            """
        )
        assert main(["cuda", str(spec)]) == 0
        out = capsys.readouterr().out
        assert out.count("{") == out.count("}")

    def test_missing_source_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["cuda", "no_such_benchmark"])
        assert exc.value.code != 0


class TestProfileOutput:
    def test_v100_device(self, capsys):
        assert main(["profile", "7pt-smoother", "--device", "V100"]) == 0
        out = capsys.readouterr().out
        assert "bound at:" in out

    def test_unknown_device_exits_nonzero(self, capsys):
        assert main(["profile", "7pt-smoother", "--device", "H100"]) == 2
        assert "unknown device 'H100'" in capsys.readouterr().err


class TestObservabilityFlags:
    """--trace / --metrics end-to-end through the real subcommands."""

    def _load_trace(self, path):
        import json

        with open(path) as handle:
            return json.load(handle)

    def _span_names(self, document):
        return {
            e["name"] for e in document["traceEvents"] if e.get("ph") == "X"
        }

    def test_optimize_trace_covers_every_phase(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--trace", str(trace)
        ]) == 0
        document = self._load_trace(trace)
        names = self._span_names(document)

        def covered(phase):
            return any(
                n == phase or n.startswith(phase + ".") for n in names
            )

        for phase in ("parse", "analysis", "planning", "tuning.stage1",
                      "tuning.stage2", "simulate", "optimize", "deep_tune"):
            assert covered(phase), f"missing phase span: {phase}"
        # Metrics ride along and mirror the evaluation-engine stats.
        metrics = document["otherData"]["metrics"]
        assert metrics["eval.requests"]["value"] > 0
        assert metrics["eval.simulations"]["value"] > 0
        assert metrics["simulate.calls"]["value"] > 0
        err = capsys.readouterr().err
        assert "spans written" in err

    def test_trace_report_includes_phase_table(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--trace", str(trace)
        ]) == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        assert "total ms" in out

    def test_metrics_flag_prints_table(self, capsys):
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--metrics"
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline metrics:" in out
        assert "eval.requests" in out
        assert "tuner.stage1.candidates" in out

    def test_flat_trace_format(self, tmp_path):
        trace = tmp_path / "flat.json"
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1",
            "--trace", str(trace), "--trace-format", "flat",
        ]) == 0
        document = self._load_trace(trace)
        assert "spans" in document and "metrics" in document
        assert any(s["name"] == "optimize" for s in document["spans"])

    def test_profile_trace(self, tmp_path):
        trace = tmp_path / "p.json"
        assert main(["profile", "7pt-smoother", "--trace", str(trace)]) == 0
        names = self._span_names(self._load_trace(trace))
        assert "profile" in names
        assert "lower" in names

    def test_deep_tune_trace(self, tmp_path):
        trace = tmp_path / "d.json"
        assert main([
            "deep-tune", "7pt-smoother", "-T", "6", "--trace", str(trace)
        ]) == 0
        names = self._span_names(self._load_trace(trace))
        assert "deep_tune" in names
        assert "deep_tune.degree" in names
        assert "planning" in names

    def test_collection_disabled_after_run(self, tmp_path):
        from repro.obs import metrics_enabled, tracing_enabled

        trace = tmp_path / "t.json"
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1",
            "--trace", str(trace), "--metrics",
        ]) == 0
        assert not tracing_enabled()
        assert not metrics_enabled()

    def test_no_flags_records_nothing(self, capsys):
        from repro.obs import get_tracer

        before = len(get_tracer().finished())
        assert main(["optimize", "7pt-smoother", "--top-k", "1"]) == 0
        assert len(get_tracer().finished()) == before
        assert "phase timings:" not in capsys.readouterr().out


class TestSearchObservatoryCli:
    """--search-log / --explain / --json plus `report` and `bench`."""

    @pytest.fixture(scope="class")
    def search_run(self, tmp_path_factory):
        import contextlib
        import io

        tmp = tmp_path_factory.mktemp("search")
        log = tmp / "out.jsonl"
        payload = tmp / "out.json"
        out_io, err_io = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_io), \
                contextlib.redirect_stderr(err_io):
            code = main([
                "optimize", "addsgd4", "--top-k", "1",
                "--explain", "--search-log", str(log),
                "--json", str(payload),
            ])
        return code, out_io.getvalue(), err_io.getvalue(), log, payload

    def test_explain_prints_winner_block(self, search_run):
        code, out, err, _, _ = search_run
        assert code == 0
        assert "why this plan" in out
        assert "convergence" in out
        assert "search log:" in err

    def test_search_log_invariant_matches_json_stats(self, search_run):
        import json

        from repro.obs.search import read_events

        code, _, _, log, payload = search_run
        assert code == 0
        events = read_events(str(log))
        assert events[0]["kind"] == "header"
        candidates = [e for e in events if e["kind"] == "candidate"]
        document = json.loads(payload.read_text())
        assert len(candidates) == document["eval_stats"]["requests"]

    def test_json_payload_shape(self, search_run):
        import json

        _, _, _, _, payload = search_run
        document = json.loads(payload.read_text())
        assert document["spec"] == "addsgd4"
        assert document["device"] == "P100"
        assert document["tflops"] > 0
        assert document["schedule"]
        assert document["explain"]["winner_candidate"]["fingerprint"]

    def test_report_renders_html(self, search_run, tmp_path):
        _, _, _, log, _ = search_run
        html = tmp_path / "r.html"
        assert main(["report", str(log), "-o", str(html)]) == 0
        document = html.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "<svg" in document
        assert "Roofline" in document

    def test_report_default_output_path(self, search_run):
        _, _, _, log, _ = search_run
        assert main(["report", str(log)]) == 0
        assert log.with_suffix(".html").exists()

    def test_report_missing_log_is_usage_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read search log" in capsys.readouterr().err


class TestProfileJson:
    def test_json_payload(self, tmp_path, capsys):
        import json

        payload = tmp_path / "p.json"
        assert main([
            "profile", "7pt-smoother", "--json", str(payload)
        ]) == 0
        document = json.loads(payload.read_text())
        assert document["spec"] == "7pt-smoother"
        assert document["device"] == "P100"
        entry = document["kernels"][0]
        assert entry["plan"]
        assert "flop_count_dp" in entry["metrics"]
        assert entry["bound_level"]
        assert set(entry["verdicts"]) == {"dram", "tex", "shm"}


class TestBenchCli:
    @pytest.fixture(scope="class")
    def bench_out(self, tmp_path_factory):
        import contextlib
        import io

        out = tmp_path_factory.mktemp("bench") / "current.json"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([
                "bench", "--benchmarks", "addsgd4", "--out", str(out)
            ])
        assert code == 0
        return out

    def test_results_schema(self, bench_out):
        import json

        document = json.loads(bench_out.read_text())
        entry = document["benchmarks"]["addsgd4"]
        assert entry["requests"] > 0
        assert entry["best_gflops"] > 0
        assert entry["variant"]

    def test_check_passes_against_own_baseline(self, bench_out, capsys):
        assert main([
            "bench", "--benchmarks", "addsgd4",
            "--check", "--baseline", str(bench_out),
        ]) == 0
        assert "no regressions vs baseline" in capsys.readouterr().out

    def test_check_fails_on_injected_regression(
        self, bench_out, tmp_path, capsys
    ):
        import json

        baseline = json.loads(bench_out.read_text())
        entry = baseline["benchmarks"]["addsgd4"]
        entry["requests"] = int(entry["requests"] * 0.7)
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        assert main([
            "bench", "--benchmarks", "addsgd4",
            "--check", "--baseline", str(doctored),
        ]) == 1
        assert "requests" in capsys.readouterr().out

    def test_unknown_benchmark_is_usage_error(self, capsys):
        assert main(["bench", "--benchmarks", "no-such-bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_check_without_baseline_is_usage_error(self, tmp_path, capsys):
        assert main([
            "bench", "--benchmarks", "addsgd4",
            "--check", "--baseline", str(tmp_path / "absent.json"),
        ]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestLiveObservatory:
    """--metrics-port and the p50/p95 metric columns."""

    @staticmethod
    def _free_port():
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_metrics_port_serves_during_run(self, capsys):
        import threading
        import time
        import urllib.request

        port = self._free_port()
        scrapes = []
        done = threading.Event()

        def scrape():
            # Poll until a scrape shows evaluation traffic: early frames
            # legitimately carry only parse/analysis counters.
            url = f"http://127.0.0.1:{port}/metrics"
            while not done.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=1) as response:
                        body = response.read().decode()
                        scrapes.append((response.status, body))
                        if "repro_eval_requests_total" in body:
                            return
                except OSError:
                    pass
                time.sleep(0.01)

        thread = threading.Thread(target=scrape, daemon=True)
        thread.start()
        try:
            assert main([
                "optimize", "7pt-smoother", "--top-k", "1",
                "--metrics-port", str(port),
            ]) == 0
        finally:
            done.set()
        thread.join(timeout=5)
        assert scrapes, "endpoint never answered while the run was live"
        assert all(status == 200 for status, _ in scrapes)
        assert scrapes[0][1].startswith("# HELP")  # valid exposition text
        assert any(
            "repro_eval_requests_total" in body for _, body in scrapes
        ), "no scrape observed evaluation counters mid-run"
        assert f"serving http://127.0.0.1:{port}" in capsys.readouterr().err

    def test_metrics_table_has_quantiles(self, capsys):
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--metrics"
        ]) == 0
        out = capsys.readouterr().out
        assert "p50=" in out and "p95=" in out

    def test_metrics_port_parses_on_deep_tune(self):
        args = build_parser().parse_args(
            ["deep-tune", "7pt-smoother", "--metrics-port", "0"]
        )
        assert args.metrics_port == 0

    def test_publish_stats_counters_and_timing_histograms(self):
        from repro.cli import publish_stats_dict
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        publish_stats_dict(reg, {"requests": 4, "hits": 1, "wall_s": 0.5})
        snap = reg.snapshot()
        assert snap["eval.requests"]["value"] == 4
        assert snap["eval.hits"]["value"] == 1
        assert snap["eval.wall_s"]["count"] == 1
        # Zero timing records no observation.
        idle = MetricsRegistry()
        publish_stats_dict(idle, {"requests": 0, "wall_s": 0.0})
        assert "eval.wall_s" not in idle.snapshot()

    def test_publish_stats_covers_every_eval_stats_field(self):
        from repro.cli import publish_stats_dict
        from repro.obs import MetricsRegistry
        from repro.suite import load_ir
        from repro.tuning import PlanEvaluator

        ir = load_ir("7pt-smoother")
        engine = PlanEvaluator()
        for block in ((32, 16), (32, 8), (64, 4)):
            plan = seed_plan(ir).replace(block=block)
            engine.try_evaluate(ir, plan, catch=(Exception,))
        stats = engine.stats.as_dict()
        assert stats["requests"] == 3
        reg = MetricsRegistry()
        publish_stats_dict(reg, stats, prefix="live")
        snap = reg.snapshot()
        for name, value in stats.items():
            if name == "wall_s":
                assert snap[f"live.{name}"]["sum"] == pytest.approx(value)
            else:
                assert snap[f"live.{name}"]["value"] == value


class TestRemovedExecutors:
    """The thread pool, process pool and distributed coordinator are
    gone, and so are retries, the per-evaluation timeout and the
    degraded path: their flags, choices and subcommands are argparse
    usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "7pt-smoother", "--workers", "2"],
            ["optimize", "7pt-smoother", "--executor", "process"],
            ["optimize", "7pt-smoother", "--distributed", "2"],
            ["optimize", "7pt-smoother", "--distrib-dir", "run"],
            ["optimize", "7pt-smoother", "--lease-ttl", "1"],
            ["deep-tune", "7pt-smoother", "--workers", "2"],
            ["deep-tune", "7pt-smoother", "--executor", "thread"],
            ["deep-tune", "7pt-smoother", "--distributed", "2"],
            ["optimize", "7pt-smoother", "--executor", "thread"],
            ["deep-tune", "7pt-smoother", "--executor", "process"],
            ["deep-tune", "7pt-smoother", "--distrib-dir", "run"],
            ["deep-tune", "7pt-smoother", "--lease-ttl", "1"],
            ["optimize", "7pt-smoother", "--retries", "1"],
            ["optimize", "7pt-smoother", "--eval-timeout", "5"],
            ["optimize", "7pt-smoother", "--on-error", "degrade"],
            ["deep-tune", "7pt-smoother", "--retries", "1"],
            ["deep-tune", "7pt-smoother", "--eval-timeout", "5"],
            ["deep-tune", "7pt-smoother", "--on-error", "degrade"],
            ["bench", "--executor", "process"],
            ["bench", "--executor", "thread"],
            ["shard-status", "run"],
            ["top", "run"],
        ],
        ids=" ".join,
    )
    def test_exits_2(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
