"""Search-telemetry tests: the candidate accounting invariant.

The headline guarantee: the number of ``candidate`` records in a search
log equals ``EvalStats.requests`` *exactly* — cache hits, prescreen
rejections, infeasible plans and errors included.  Demonstrated on a
clean full-pipeline run and on a run a planted model bug ends.
"""

import json

import pytest

from repro.codegen import seed_plan_from_pragma
from repro.dsl import parse
from repro.gpu.pricing import FamilyStructure
from repro.ir import build_ir
from repro.obs.search import SearchLog, log_context, read_events
from repro.pipeline import optimize
from repro.resilience import EvaluationError, UsageError
from repro.tuning import HierarchicalTuner, PlanEvaluator

SMOOTHER_SRC = """
parameter L=128, M=128, N=128;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin in, h2inv, a, b;
iterate 8;
#pragma stream k block (32,16)
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1] + A[k][j][i-1]
    + A[k][j+1][i] + A[k][j-1][i] + A[k+1][j][i] + A[k-1][j][i]
    - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
"""


@pytest.fixture(scope="module")
def smoother_ir():
    return build_ir(parse(SMOOTHER_SRC))


def _tuned(ir, **evaluator_kwargs):
    log = SearchLog()
    engine = PlanEvaluator(search_log=log, **evaluator_kwargs)
    base = seed_plan_from_pragma(ir, ir.kernels[0]).replace(
        placements=(("in", "shmem"),)
    )
    tuner = HierarchicalTuner(ir, evaluator=engine)
    tuner.tune(base)
    return log, engine


class TestSearchLogBasics:
    def test_header_first_with_device_payload(self):
        from repro.gpu.device import P100

        log = SearchLog(device=P100)
        events = log.events()
        assert events[0]["kind"] == "header"
        assert events[0]["device"]["name"] == P100.name
        assert events[0]["device"]["ridge_dram"] == P100.ridge("dram")

    def test_emit_stamps_seq_time_and_context(self):
        log = SearchLog()
        with log.context(stage="stage1", kernels="k"):
            log.emit("probe", value=1)
        (event,) = [e for e in log.events() if e["kind"] == "probe"]
        assert event["seq"] == 1
        assert event["t_ms"] >= 0.0
        assert event["context"] == {"stage": "stage1", "kernels": "k"}

    def test_context_nests_and_restores(self):
        log = SearchLog()
        with log.context(a=1):
            with log.context(b=2):
                log.emit("inner")
            log.emit("outer")
        log.emit("bare")
        events = {e["kind"]: e for e in log.events()}
        assert events["inner"]["context"] == {"a": 1, "b": 2}
        assert events["outer"]["context"] == {"a": 1}
        assert "context" not in events["bare"]

    def test_log_context_is_noop_without_log(self):
        with log_context(None, stage="x"):
            pass  # must not raise

    def test_phase_footer_is_in_name_order(self):
        # Phase totals are timings, which two runs of one job need not
        # share; the footer's order must not follow them.  The slowest
        # phase here sorts last by name.
        import time

        from repro.obs import Tracer

        tracer = Tracer(enabled=True)
        with tracer.span("zeta"):
            time.sleep(0.004)
        with tracer.span("alpha"):
            pass
        with tracer.span("mid"):
            pass
        with tracer.span("alpha"):
            pass
        spans = tracer.finished()
        log = SearchLog()
        log.phases(spans)
        rows = [e for e in log.events() if e["kind"] == "phase"]
        assert [(r["name"], r["count"]) for r in rows] == [
            ("alpha", 2), ("mid", 1), ("zeta", 1),
        ]

    def test_counts_split_candidate_dispositions(self, smoother_ir):
        log, engine = _tuned(smoother_ir)
        counts = log.counts()
        assert counts["candidate"] == log.candidate_count()
        split = sum(
            count
            for name, count in counts.items()
            if name.startswith("candidate.")
        )
        assert split == counts["candidate"]


class TestJsonlRoundtrip:
    def test_flush_writes_readable_jsonl(self, smoother_ir, tmp_path):
        path = tmp_path / "search.jsonl"
        log = SearchLog(path=str(path))
        engine = PlanEvaluator(search_log=log)
        base = seed_plan_from_pragma(
            smoother_ir, smoother_ir.kernels[0]
        ).replace(placements=(("in", "shmem"),))
        HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)
        log.close()
        events = read_events(str(path))
        assert events[0]["kind"] == "header"
        candidates = [e for e in events if e["kind"] == "candidate"]
        assert len(candidates) == engine.stats.requests
        # every line is self-contained JSON (read_events parsed it), and
        # every candidate carries the core fields
        for event in candidates:
            assert event["fingerprint"]
            assert event["family"]
            assert event["disposition"]
            assert "config" in event

    def test_flush_encodes_each_event_once(
        self, smoother_ir, tmp_path, monkeypatch
    ):
        import repro.obs.search as search_module

        path = tmp_path / "search.jsonl"
        log = SearchLog(path=str(path), flush_every=1)
        engine = PlanEvaluator(search_log=log)
        base = seed_plan_from_pragma(
            smoother_ir, smoother_ir.kernels[0]
        ).replace(placements=(("in", "shmem"),))
        encoded = []
        dumps = json.dumps

        def counted(obj, **kwargs):
            encoded.append(obj["seq"] if obj["kind"] != "header" else 0)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(search_module.json, "dumps", counted)
        for block in [(32, 4), (32, 8), (16, 8)]:
            engine.try_evaluate(smoother_ir, base.replace(block=block))
        engine.evaluate_spill_free(smoother_ir, base, levels=(8,))
        log.emit("probe")
        log.close()
        monkeypatch.undo()
        events = log.events()
        assert sorted(encoded) == list(range(len(events)))
        assert path.read_text().splitlines() == [
            json.dumps(dict(event)) for event in events
        ]

    def test_read_events_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header"}\nnot json\n')
        with pytest.raises(UsageError):
            read_events(str(path))

    def test_read_events_requires_header(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"kind": "candidate"}\n')
        with pytest.raises(UsageError):
            read_events(str(path))


class TestRows:
    """Candidate and prune events are read-only rows that render their
    plan, config and counter fields when first read."""

    @pytest.fixture
    def rows(self, smoother_ir, monkeypatch):
        import repro.obs.search as search_module
        from repro.gpu.device import P100

        log = SearchLog(device=P100)
        engine = PlanEvaluator(device=P100, search_log=log)
        base = seed_plan_from_pragma(
            smoother_ir, smoother_ir.kernels[0]
        ).replace(placements=(("in", "shmem"),))
        with log.context(stage="probe"):
            engine.try_evaluate(smoother_ir, base)
            engine.evaluate_spill_free(smoother_ir, base, levels=(8,))
        renders = []
        describe = type(base).describe

        def counted(plan):
            renders.append(plan)
            return describe(plan)

        monkeypatch.setattr(type(base), "describe", counted)
        candidate, prune = log.events()[1:]
        return candidate, prune, renders

    def test_cheap_fields_render_nothing(self, rows):
        candidate, prune, renders = rows
        assert candidate["kind"] == "candidate"
        assert candidate["disposition"] == "simulated"
        assert candidate["device"] == "P100"
        assert candidate["gflops"] > 0
        assert candidate["context"] == {"stage": "probe"}
        assert candidate.get("reason") is None
        assert "reason" not in candidate
        assert candidate.get("dropped", 1) == 1
        assert prune["reason"].startswith("spills at every register level")
        assert prune.get("disposition") is None
        assert prune.get("fingerprint") is None
        assert len(candidate["fingerprint"]) == 16
        assert not renders

    def test_reading_a_field_renders_the_record_once(self, rows):
        candidate, prune, renders = rows
        assert candidate["occupancy"] > 0
        assert list(candidate) == [
            "kind", "seq", "t_ms", "fingerprint", "family", "plan",
            "config", "disposition", "device", "time_ms", "gflops",
            "occupancy", "counters", "bottleneck", "context",
        ]
        assert dict(candidate)["plan"] == candidate["plan"]
        assert list(prune) == [
            "kind", "seq", "t_ms", "family", "plan", "config", "reason",
            "context",
        ]
        assert prune["family"] and prune["config"]
        assert len(renders) == 2

    def test_rows_are_read_only(self, rows):
        candidate, _, _ = rows
        with pytest.raises(TypeError):
            candidate["plan"] = "x"
        with pytest.raises(KeyError):
            candidate["dropped"]


class TestAccountingInvariant:
    def test_candidates_equal_requests_clean_run(self, smoother_ir):
        log, engine = _tuned(smoother_ir)
        assert log.candidate_count() == engine.stats.requests
        counts = log.counts()
        assert (
            counts.get("candidate.cache-hit", 0)
            + counts.get("candidate.cache-hit-infeasible", 0)
            == engine.stats.hits
        )
        assert counts.get("candidate.screened", 0) == engine.stats.screened

    def test_full_pipeline_invariant(self, smoother_ir):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        outcome = optimize(smoother_ir, top_k=2, evaluator=engine)
        assert log.candidate_count() == outcome.eval_stats.requests
        kinds = {e["kind"] for e in log.events()}
        assert "winner" in kinds

    @pytest.mark.parametrize("failing_pass", [1, 2])
    def test_invariant_when_an_error_ends_the_run(
        self, smoother_ir, monkeypatch, failing_pass
    ):
        price = FamilyStructure._price
        calls = []

        def fails_once(structure, *args):
            calls.append(args)
            if len(calls) == failing_pass:
                raise RuntimeError("model bug")
            return price(structure, *args)

        monkeypatch.setattr(FamilyStructure, "_price", fails_once)
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        base = seed_plan_from_pragma(
            smoother_ir, smoother_ir.kernels[0]
        ).replace(placements=(("in", "shmem"),))
        with pytest.raises(EvaluationError):
            HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)
        assert len(calls) == failing_pass
        assert log.candidate_count() == engine.stats.requests
        counts = log.counts()
        # A family pass fails before any of its lanes is requested, so
        # it adds no candidate event; the batch it ended leaves exactly
        # one ``failure`` marker.
        assert counts.get("failure", 0) == 1
        (marker,) = [e for e in log.events() if e["kind"] == "failure"]
        assert marker["error"] == "RuntimeError"
        assert marker["message"] == "model bug"
        # Every event is emitted on the calling thread, inside the
        # tuner's context scopes: stage 1 is the first pass, stage 2
        # the second.
        assert marker["context"]["stage"] == f"stage{failing_pass}"
        stages = {
            e["context"].get("stage")
            for e in log.events()
            if e["kind"] == "candidate" and "context" in e
        }
        assert stages == ({"stage1"} if failing_pass > 1 else set())


class TestPipelineEvents:
    @pytest.fixture(scope="class")
    def pipeline_log(self, smoother_ir):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        outcome = optimize(smoother_ir, top_k=2, evaluator=engine)
        return log, outcome

    def test_winner_links_to_candidates(self, pipeline_log):
        log, outcome = pipeline_log
        (winner,) = [e for e in log.events() if e["kind"] == "winner"]
        assert winner["variant"] == outcome.variant
        assert winner["plans"]
        fingerprints = {
            e["fingerprint"]
            for e in log.events()
            if e["kind"] == "candidate"
        }
        for plan in winner["plans"]:
            assert plan["fingerprint"] in fingerprints

    def test_candidate_result_payload(self, pipeline_log):
        log, _ = pipeline_log
        simulated = [
            e
            for e in log.events()
            if e["kind"] == "candidate" and e["disposition"] == "simulated"
        ]
        assert simulated
        for event in simulated[:10]:
            assert event["gflops"] > 0
            assert event["time_ms"] > 0
            assert 0 < event["occupancy"] <= 1
            assert event["counters"]["oi_dram"] > 0

    def test_deep_tune_context_tags(self, pipeline_log):
        log, _ = pipeline_log
        degrees = {
            e["context"].get("degree")
            for e in log.events()
            if e["kind"] == "candidate"
            and e.get("context", {}).get("phase") == "deep-tune"
        }
        assert len(degrees - {None}) >= 2

    def test_json_serializable(self, pipeline_log):
        log, _ = pipeline_log
        for event in log.events():
            json.dumps(dict(event))
