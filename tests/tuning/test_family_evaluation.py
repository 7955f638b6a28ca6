"""Family evaluation: the lane model threaded through the engine.

Every request the engine answers is a lane of a family pricing pass.
These tests run the full hierarchical tuner and check each request's
verdict against the scalar reference model (``tests/gpu/reference_model.py``),
which validates, prescreens and simulates plan by plan: the result
field for field, or the refusal message.  They also pin that the
engine never calls ``simulate()``, that the accounting stays exact
(``lint_rejections == screened``), that the search log tags every
request with its tuner stage, and that a bug planted in one request
aborts the run on that plan after exactly the requests before it.
"""

import pytest

from repro.codegen.resources import auto_assign, seed_plan_from_pragma
from repro.gpu.counters import SimulationResult
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import EvaluationError
from repro.suite import BENCHMARKS, load_ir
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune

from ..gpu import reference_model
from ..pipeline.test_fail_fast_sweep import stage_counts
from ..settle_hooks import requests_in_settle_order, trap_settle


def _tune(ir, base):
    """Tune ``base``; returns the result, the engine (its search log
    attached) and every request as ``(resolution, lane)`` in settle
    order."""
    engine = PlanEvaluator(search_log=SearchLog())
    requests = requests_in_settle_order(engine)
    result = HierarchicalTuner(ir, evaluator=engine).tune(base)
    return result, engine, requests


def candidate_fingerprints(engine):
    """The plan fingerprints of the engine's ``candidate`` rows, in
    request order."""
    return [
        row["fingerprint"] for row in engine.search_log.events()
        if row.get("kind") == "candidate"
    ]


def _abort_on(ir, base, target):
    """Tune with a bug planted in the request for ``target``.

    The engine raises when it settles ``target`` (the request under its
    memo key: the lane key, in the family of the target's structure),
    so the run must end on that plan.  Returns the error and the engine.
    """
    engine = PlanEvaluator()
    family_key, lane_key = engine._key(ir, target)
    trap_settle(
        engine,
        "keys",
        lambda family, key: family.memo_key == family_key and key == lane_key,
    )
    with pytest.raises(EvaluationError) as info:
        HierarchicalTuner(ir, evaluator=engine).tune(base)
    return info.value, engine


def assert_verdicts_match_reference(ir, requests, device):
    """Each request's verdict is the reference model's, bit for bit."""
    for res, i in requests:
        plan = res.plan(i)
        want = reference_model.verdict(ir, plan, device)
        if res.ok[i]:
            assert isinstance(want, SimulationResult), (
                f"{plan.describe()}: reference refused: {want}"
            )
            got = res.result(i)
            assert got.counters == want.counters, plan.describe()
            assert got.occupancy == want.occupancy, plan.describe()
            assert got.timing == want.timing, plan.describe()
            assert res.time_s(i) == want.time_s
            assert res.tflops(i) == want.tflops
        else:
            assert res.reason(i) == want, plan.describe()


def assert_same_abort(ir, base):
    """The run aborts on the planted plan, after exactly the requests
    that come before its first request in a clean run; returns the
    aborted engine."""
    ref, engine, requests = _tune(ir, base)
    target = ref.best.plan
    target_key = engine._key(ir, target)
    keys = [(res.lane_family[i].memo_key, res.keys[i]) for res, i in requests]
    error, aborted = _abort_on(ir, base, target)
    assert error.context["plan"] == target.describe()
    assert aborted.stats.requests == keys.index(target_key)
    assert aborted.stats.lint_rejections == aborted.stats.screened
    return aborted


class TestLaneModelInvariance:
    def test_verdicts_match_reference(
        self, smoother_ir, base_plan, simulate_calls
    ):
        result, engine, requests = _tune(smoother_ir, base_plan)
        # Every request is a family lane: the engine never falls back
        # to pricing a plan on its own.
        assert simulate_calls() == 0
        assert len(requests) == engine.stats.requests
        assert_verdicts_match_reference(smoother_ir, requests, engine.device)
        assert engine.stats.vectorized > 0
        assert engine.stats.lint_rejections == engine.stats.screened
        best = reference_model.simulate(
            smoother_ir, result.best.plan, engine.device
        )
        assert result.best.time_s == best.time_s
        assert result.best.tflops == best.tflops

    def test_memoization_still_content_addressed(self, smoother_ir, base_plan):
        # A second identical tune through the same engine must be
        # served entirely from the memo cache: no new misses, no new
        # lanes, byte-identical winner.
        engine = PlanEvaluator()
        first = HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        misses_after_first = engine.stats.misses
        vectorized_after_first = engine.stats.vectorized
        second = HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        assert second.best.plan == first.best.plan
        assert second.best.time_s == first.best.time_s
        assert engine.stats.misses == misses_after_first
        assert engine.stats.vectorized == vectorized_after_first
        assert engine.stats.hits > 0


class TestFailFastInvariance:
    def test_abort_on_the_planted_plan(self, smoother_ir, base_plan):
        # A bug planted in one candidate fires per *request* (each
        # family lane is one request settled by _settle), so the run
        # ends on that plan, after the requests settled before it.
        aborted = assert_same_abort(smoother_ir, base_plan)
        assert aborted.stats.vectorized > 0


def _suite_bases(name):
    ir = load_ir(name)
    return ir, [
        auto_assign(ir, seed_plan_from_pragma(ir, instance)).plan
        for instance in ir.kernels
    ]


@pytest.mark.parametrize("name", list(BENCHMARKS))
class TestSuiteWideInvariance:
    """The smoother checks above, repeated for every kernel of every
    suite benchmark."""

    def test_verdicts_match_reference(self, name):
        ir, bases = _suite_bases(name)
        for base in bases:
            result, engine, requests = _tune(ir, base)
            assert_verdicts_match_reference(ir, requests, engine.device)
            assert engine.stats.lint_rejections == engine.stats.screened

    def test_repeat_tune_is_deterministic(self, name):
        ir, bases = _suite_bases(name)
        for base in bases:
            first, first_engine, _ = _tune(ir, base)
            second, second_engine, _ = _tune(ir, base)
            assert second.best.plan == first.best.plan
            assert second.best.time_s == first.best.time_s
            fingerprints = candidate_fingerprints(first_engine)
            assert len(fingerprints) == first_engine.stats.requests > 0
            assert candidate_fingerprints(second_engine) == fingerprints
            for field in ("requests", "hits", "misses", "infeasible",
                          "rungs_skipped", "screened", "lint_rejections",
                          "vectorized"):
                assert getattr(second_engine.stats, field) == getattr(
                    first_engine.stats, field
                ), field

    def test_abort_on_the_planted_plan(self, name):
        ir, bases = _suite_bases(name)
        for base in bases:
            assert_same_abort(ir, base)


class TestPhaseAttribution:
    """The search log attributes each request to the tuner stage that
    made it (``context.stage``; rows outside a stage are deep tuning's
    winner classifications)."""

    def test_tuner_stages_are_phase_labelled(self, smoother_ir, base_plan):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        stages = stage_counts(log)
        # Every request is one candidate row of exactly one stage (the
        # tuner tags all its evaluation sites), so the split is a
        # partition of the engine's counters.
        assert set(stages) == {"stage1", "stage2"}
        assert (
            sum(c["candidates"] for c in stages.values())
            == engine.stats.requests
        )
        assert sum(c["hits"] for c in stages.values()) == engine.stats.hits

    def test_spill_fallback_is_phase_labelled(self):
        # rhs4sgcurv has a kernel with no spill-free configuration: its
        # fallback requests carry their own stage tag.
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        optimize(load_ir("rhs4sgcurv"), top_k=2, evaluator=engine)
        stages = stage_counts(log)
        assert stages["spill-fallback"]["candidates"] > 0
        assert "classify" not in stages
        assert (
            sum(c["candidates"] for c in stages.values())
            == engine.stats.requests
        )

    def test_deep_tune_classify_phase_is_all_hits(self, smoother_ir):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        deep_tune(smoother_ir, evaluator=engine, max_degree=2)
        classify = stage_counts(log)["classify"]
        # The winner was just tuned, so classification is served from
        # the memo cache: on a cold run these are the only hits.
        assert classify["candidates"] >= 1
        assert classify["hits"] == classify["candidates"]
        assert engine.stats.hits == classify["hits"]

