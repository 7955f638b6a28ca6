"""Explain-engine tests: winner joins, deltas, convergence, rendering."""

import json

import pytest

from repro.obs.explain import build_explain, format_explain
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import UsageError
from repro.suite import load_ir
from repro.tuning import PlanEvaluator


def _synthetic_events():
    """A tiny hand-built event stream with a known winner and losers."""

    def candidate(seq, fp, gflops, dram, spill=0.0, bottleneck="dram"):
        return {
            "kind": "candidate",
            "seq": seq,
            "t_ms": float(seq),
            "fingerprint": fp,
            "family": f"fam-{fp}",
            "plan": f"plan-{fp}",
            "config": {"block": [32, 8]},
            "disposition": "simulated",
            "gflops": gflops,
            "time_ms": 1.0,
            "occupancy": 0.5,
            "bottleneck": bottleneck,
            "counters": {
                "dram_bytes": dram,
                "tex_bytes": 2.0 * dram,
                "shm_bytes": 0.0,
                "spill_bytes": spill,
                "flops": 1e9,
            },
        }

    return [
        {
            "kind": "header",
            "version": 1,
            "t0_s": 0.0,
            "device": {"name": "P100", "peak_gflops": 4700.0,
                       "dram_bw_gbs": 732.0, "ridge_dram": 6.42},
        },
        candidate(1, "aaa", 100.0, dram=4e9, spill=1e8),
        candidate(2, "bbb", 300.0, dram=2e9),
        candidate(3, "aaa", 100.0, dram=4e9, spill=1e8),  # cache revisit
        candidate(4, "ccc", 500.0, dram=1e9, bottleneck="shm"),
        {"kind": "prune", "seq": 5, "t_ms": 5.0, "plan": "p",
         "family": "f", "reason": "spills at every register level"},
        {
            "kind": "advice", "seq": 6, "t_ms": 6.0, "kernel": "k0",
            "bound_level": "dram", "occupancy": 0.5,
            "rules": ["rule one fired"], "suppressed": ["loop unrolling"],
            "flags": {},
        },
        {
            "kind": "winner", "seq": 7, "t_ms": 7.0, "variant": "tuned",
            "tflops": 0.5, "evaluations": 4,
            "plans": [{"fingerprint": "ccc", "plan": "plan-ccc", "count": 1}],
        },
        {"kind": "phase", "seq": 8, "t_ms": 8.0, "name": "tuning",
         "count": 1, "total_ms": 10.0, "self_ms": 4.0},
        {"kind": "summary", "seq": 9, "t_ms": 9.0,
         "stats": {"requests": 4, "hits": 1}, "counts": {"candidate": 4}},
    ]


class TestBuildExplain:
    def test_empty_stream_is_a_usage_error(self):
        with pytest.raises(UsageError):
            build_explain([])

    def test_winner_joined_by_fingerprint(self):
        report = build_explain(_synthetic_events())
        assert report.winner["variant"] == "tuned"
        assert report.winner_candidate.fingerprint == "ccc"
        assert report.winner_candidate.gflops == 500.0

    def test_runners_ranked_and_distinct(self):
        report = build_explain(_synthetic_events(), top_k=3)
        fps = [r.candidate.fingerprint for r in report.runners]
        assert fps == ["bbb", "aaa"]  # distinct, best-first, winner excluded
        assert report.runners[0].gflops_gap_pct == pytest.approx(40.0)

    def test_counter_deltas_vs_winner(self):
        report = build_explain(_synthetic_events())
        runner_aaa = report.runners[1]
        value, winner_value, ratio = runner_aaa.deltas["dram_bytes"]
        assert value == 4e9 and winner_value == 1e9
        assert ratio == pytest.approx(4.0)

    def test_convergence_is_monotone_improvements_only(self):
        report = build_explain(_synthetic_events())
        assert [g for _, g in report.convergence] == [100.0, 300.0, 500.0]

    def test_dispositions_markers_and_stats(self):
        report = build_explain(_synthetic_events())
        assert report.dispositions == {"simulated": 4}
        assert report.markers == {"prune": 1}
        assert report.stats["requests"] == 4
        assert report.candidates == 4
        assert report.distinct_plans == 3

    def test_as_dict_is_json_serializable(self):
        payload = build_explain(_synthetic_events()).as_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["winner_candidate"]["fingerprint"] == "ccc"
        assert len(decoded["runners_up"]) == 2
        assert decoded["phases"][0]["name"] == "tuning"

    def test_no_measured_candidates(self):
        events = [
            {"kind": "header", "version": 1, "t0_s": 0.0},
            {"kind": "candidate", "seq": 1, "t_ms": 1.0,
             "fingerprint": "x", "family": "f", "plan": "p",
             "config": {}, "disposition": "infeasible",
             "reason": "block too big"},
        ]
        report = build_explain(events)
        assert report.winner_candidate is None
        assert report.runners == ()
        text = format_explain(report)
        assert "nothing to explain" in text


class TestFormatExplain:
    def test_mentions_winner_runners_and_rules(self):
        text = format_explain(build_explain(_synthetic_events()))
        assert "why this plan" in text
        assert "plan-ccc" in text
        assert "runner-up #1" in text
        assert "rule one fired" in text
        assert "suppressed: loop unrolling" in text
        assert "convergence" in text

    def test_identical_counters_not_listed(self):
        text = format_explain(build_explain(_synthetic_events()))
        # runner bbb has spill_bytes == winner's (0.0): no spill row for it
        head = text.split("runner-up #2")[0]
        assert "spill_bytes" not in head.split("runner-up #1")[1]


class TestOnRealPipeline:
    @pytest.fixture(scope="class")
    def real_report(self):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        outcome = optimize(load_ir("addsgd4"), top_k=2, evaluator=engine)
        log.summary(outcome.eval_stats)
        return build_explain(log.events()), outcome

    def test_winner_matches_outcome(self, real_report):
        report, outcome = real_report
        assert report.winner["variant"] == outcome.variant
        assert report.winner_candidate is not None
        assert report.candidates == outcome.eval_stats.requests

    def test_advice_present_for_spatial_kernel(self, real_report):
        report, _ = real_report
        assert report.advice
        assert any(e.get("rules") for e in report.advice)

    def test_text_renders(self, real_report):
        report, _ = real_report
        text = format_explain(report)
        assert "winner" in text


class TestRenderOnDemand:
    def test_explain_renders_only_winner_and_runners(self, monkeypatch):
        import repro.obs.search as search_module
        from repro.gpu.device import P100

        log = SearchLog(device=P100)
        engine = PlanEvaluator(device=P100, search_log=log)
        outcome = optimize(load_ir("7pt-smoother"), evaluator=engine)
        rendered = []
        payload = search_module._result_payload

        def counted(result, device):
            rendered.append(result)
            return payload(result, device)

        monkeypatch.setattr(search_module, "_result_payload", counted)
        events = log.events()
        candidates = sum(1 for e in events if e["kind"] == "candidate")
        assert candidates == outcome.eval_stats.requests
        assert not rendered
        top_k = 3
        report = build_explain(events, top_k=top_k)
        (winner,) = [e for e in events if e["kind"] == "winner"]
        assert 0 < len(rendered) <= top_k + len(winner["plans"])
        assert report.winner_candidate is not None
        assert len(report.runners) == top_k
        # A rendered row is cached: reading it again renders nothing.
        before = len(rendered)
        build_explain(events, top_k=top_k)
        assert len(rendered) == before

    def test_fingerprints_only_for_winner_join_and_top_k(self, monkeypatch):
        import repro.obs.search as search_module
        from repro.gpu.device import P100
        from repro.tuning import evaluator as evaluator_module

        log = SearchLog(device=P100)
        engine = PlanEvaluator(device=P100, search_log=log)
        optimize(load_ir("7pt-smoother"), evaluator=engine)
        events = log.events()
        (winner,) = [e for e in events if e["kind"] == "winner"]
        calls = []
        fingerprint = evaluator_module.plan_fingerprint

        def counted(plan, include_registers=True):
            calls.append(include_registers)
            return fingerprint(plan, include_registers=include_registers)

        monkeypatch.setattr(search_module, "_plan_fingerprint", counted)
        top_k = 3
        report = build_explain(events, top_k=top_k)
        # Deduplication reads each row's plan identity, not its digest:
        # a fingerprint (and a family fingerprint) per rendered view,
        # plus the winner join, however many rows were measured.
        assert report.measured > 100 * (top_k + 1)
        assert len(calls) <= 2 * (top_k + 1) + len(winner["plans"])
        assert report.winner_candidate.fingerprint in {
            p["fingerprint"] for p in winner["plans"]
        }
