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

    def test_missing_source(self, capsys):
        assert main(["characteristics", "no_such_thing"]) == 2
        assert "neither a built-in benchmark" in capsys.readouterr().err


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


#: A one-statement program whose only number is ``{number}``.
_ONE_STATEMENT = """parameter N={size};
iterator k, j, i;
double A[N,N,N], B[N,N,N];
copyin A;
stencil s (B, A) {{ B[k][j][i] = A[k][j][i] * {number}; }}
s (B, A);
copyout B;
"""


class TestMalformedNumbers:
    """Number text the lexer accepts but Python cannot convert (a
    superscript digit, an exponent without digits) is a parse error at
    the token, not a traceback."""

    @pytest.mark.parametrize(
        "size, number, where",
        [
            ("64", "2²", "col=46, line=5"),
            ("64", "1e+", "col=46, line=5"),
            ("6²", "2", "col=13, line=1"),
        ],
    )
    def test_optimize_exits_3_at_the_token(
        self, tmp_path, capsys, size, number, where
    ):
        spec = tmp_path / "bad.stencil"
        spec.write_text(_ONE_STATEMENT.format(size=size, number=number))
        assert main(["optimize", str(spec)]) == 3
        err = capsys.readouterr().err
        bad = size if number == "2" else number
        assert err == f"error: malformed number {bad!r} [{where}]\n"

    def test_integer_past_the_largest_float_exits_3_at_the_token(
        self, tmp_path, capsys
    ):
        number = "9" * 400  # converting it to float raised OverflowError
        spec = tmp_path / "big.stencil"
        spec.write_text(_ONE_STATEMENT.format(size="64", number=number))
        assert main(["optimize", str(spec)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: number {number!r} is too large [col=46, line=5]\n"


class TestDeepTune:
    def test_smoother(self, capsys):
        assert main(["deep-tune", "7pt-smoother", "-T", "13"]) == 0
        out = capsys.readouterr().out
        assert "tipping point" in out
        assert "schedule for T=13" in out

    def test_rejects_spatial(self, capsys):
        assert main(["deep-tune", "rhs4center"]) == 2
        assert "applies to iterative stencils" in capsys.readouterr().err


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

    def test_missing_source_exits_nonzero(self, capsys):
        assert main(["cuda", "no_such_benchmark"]) == 2
        assert "neither a built-in benchmark" in capsys.readouterr().err


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
        assert metrics["eval.requests"] > 0
        assert metrics["eval.simulations"] > 0
        assert metrics["simulate.calls"] > 0
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

    def test_run_without_an_engine_prints_no_eval_series(self, capsys):
        assert main(["profile", "7pt-smoother", "--metrics"]) == 0
        out = capsys.readouterr().out.split("pipeline metrics:", 1)[1]
        assert "simulate.calls" in out
        assert "eval." not in out

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
        from repro.obs import tracing_enabled

        trace = tmp_path / "t.json"
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1",
            "--trace", str(trace), "--metrics",
        ]) == 0
        assert not tracing_enabled()

    def test_no_flags_records_nothing(self, capsys):
        from repro.obs import get_tracer

        before = len(get_tracer().finished())
        assert main(["optimize", "7pt-smoother", "--top-k", "1"]) == 0
        assert len(get_tracer().finished()) == before
        assert "phase timings:" not in capsys.readouterr().out


class TestSearchObservatoryCli:
    """--search-log / --explain / --json plus `report`."""

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

    def test_two_runs_write_the_same_stream(self, tmp_path, capsys):
        # The phase footer is in name order, so once the timing values
        # are masked two runs of one job write identical streams.
        import json

        def masked(path):
            records = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for name in ("t_ms", "total_ms", "self_ms", "t0_s"):
                    if name in record:
                        record[name] = 0
                if record["kind"] == "summary":
                    record["stats"]["wall_s"] = 0
                records.append(record)
            return records

        streams = []
        for run in ("a", "b"):
            log = tmp_path / f"{run}.jsonl"
            assert main(
                ["optimize", "7pt-smoother", "--search-log", str(log)]
            ) == 0
            streams.append(masked(log))
        first, second = streams
        assert [r["name"] for r in first if r["kind"] == "phase"] == sorted(
            r["name"] for r in first if r["kind"] == "phase"
        )
        assert len(first) == len(second)
        for number, (a, b) in enumerate(zip(first, second), start=1):
            assert a == b, f"line {number} differs"
        capsys.readouterr()


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


class TestLiveObservatory:
    """--metrics-port, and one series in every output of a run."""

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

    def test_metrics_table_prints_wall_s_as_one_value(self, capsys):
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--metrics"
        ]) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if "eval.wall_s" in l]
        name, value = line.split()
        assert float(value) > 0
        assert "p50=" not in out and "count=" not in out

    def test_metrics_port_parses_on_deep_tune(self):
        args = build_parser().parse_args(
            ["deep-tune", "7pt-smoother", "--metrics-port", "0"]
        )
        assert args.metrics_port == 0

    def test_every_output_shows_the_same_numbers(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.obs import prom

        rendered = []
        stop = prom.MetricsHTTPServer.stop

        def render_then_stop(server):
            # The Prometheus text of the run's last scrape.
            rendered.append(prom.prometheus_text(server._collect()))
            stop(server)

        monkeypatch.setattr(prom.MetricsHTTPServer, "stop", render_then_stop)
        payload, trace = tmp_path / "j.json", tmp_path / "t.json"
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--eval-stats",
            "--metrics", "--json", str(payload), "--trace", str(trace),
            "--metrics-port", "0",
        ]) == 0
        out = capsys.readouterr().out

        stats = json.loads(payload.read_text())["eval_stats"]
        assert stats["requests"] > 0 and stats["wall_s"] > 0
        expected = {f"eval.{name}": value for name, value in stats.items()}

        def table(title):
            lines = out.split(title, 1)[1].strip("\n").splitlines()
            rows = {}
            for line in lines:
                if not line.startswith("  "):
                    break
                name, value = line.split()
                rows[name] = value
            return rows

        def shown(value):
            return f"{value:.6f}" if isinstance(value, float) else str(value)

        printed = table("pipeline metrics:")
        assert {n: v for n, v in printed.items() if n.startswith("eval.")} == {
            name: shown(value) for name, value in expected.items()
        }
        assert table("evaluation engine statistics:") == {
            name: shown(value) for name, value in stats.items()
        }

        series = json.loads(trace.read_text())["otherData"]["metrics"]
        assert {n: v for n, v in series.items() if n.startswith("eval.")} == expected
        assert {name: shown(value) for name, value in series.items()} == printed

        (text,) = rendered
        samples = dict(
            line.split() for line in text.splitlines()
            if not line.startswith("#")
        )
        for name, value in expected.items():
            sample = samples[prom.prometheus_name(name) + "_total"]
            assert type(value)(sample) == value

    def test_failed_run_still_shows_its_engine_counts(
        self, capsys, monkeypatch
    ):
        from repro.gpu.pricing import FamilyStructure

        price, calls = FamilyStructure._price, []

        def fails_ninth_pass(self, *args):
            calls.append(None)
            if len(calls) > 8:
                raise RuntimeError("model bug")
            return price(self, *args)

        monkeypatch.setattr(FamilyStructure, "_price", fails_ninth_pass)
        assert main([
            "optimize", "7pt-smoother", "--top-k", "1", "--metrics"
        ]) == 4
        rows = dict(
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        )
        assert int(rows["eval.requests"]) > 0
        rejected = sum(
            int(value) for name, value in rows.items()
            if name.startswith("lint.reject.")
        )
        assert int(rows["eval.screened"]) == rejected > 0

    def test_resumed_complete_journal_prints_no_wall_observation(
        self, tmp_path, capsys
    ):
        journal = str(tmp_path / "c.jsonl")
        run = ["optimize", "7pt-smoother", "--top-k", "1",
               "--checkpoint", journal]
        assert main(run) == 0
        capsys.readouterr()
        assert main(run + ["--resume", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "eval.requests" in out
        assert "eval.wall_s" not in out

    def test_endpoint_series_covers_every_eval_stats_field(self):
        from repro.obs import prometheus_text, run_series
        from repro.suite import load_ir
        from repro.tuning import PlanEvaluator

        ir = load_ir("7pt-smoother")
        engine = PlanEvaluator()
        for block in ((32, 16), (32, 8), (64, 4)):
            plan = seed_plan(ir).replace(block=block)
            engine.try_evaluate(ir, plan, catch=(Exception,))
        stats = engine.stats.as_dict()
        assert stats["requests"] == 3
        series = run_series(engine.stats)
        text = prometheus_text(series)
        for name, value in stats.items():
            assert series[f"eval.{name}"] == value
            assert f"repro_eval_{name}_total " in text


class TestRemovedExecutors:
    """The thread pool, process pool and distributed coordinator are
    gone, and so are retries, the per-evaluation timeout, the degraded
    path and the ``bench`` harness: their flags, choices and
    subcommands are argparse usage errors."""

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
            ["bench"],
            ["bench", "--check"],
            ["shard-status", "run"],
            ["top", "run"],
        ],
        ids=" ".join,
    )
    def test_exits_2(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
