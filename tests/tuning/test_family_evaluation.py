"""Family evaluation: the vectorized backend threaded through the engine.

The vectorized pricing path is a pure throughput lever — every
observable of a tuning run must be invariant to it: the winner (bitwise),
the EvalStats accounting (requests, hits, misses, screened,
``lint_rejections == screened``), and the plan a planted model bug
aborts the run on.  These tests run the full hierarchical tuner through
paired engines and compare everything; the reference engine runs under
the ``scalar_pricing`` fixture, which routes every batch through scalar
``simulate()``.
"""

from contextlib import nullcontext

import pytest

from repro.codegen.resources import auto_assign, seed_plan_from_pragma
from repro.gpu.simulator import reset_simulate_calls, simulate_call_count
from repro.resilience import EvaluationError
from repro.suite import BENCHMARKS, load_ir
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune
from repro.tuning.deeptuning import fusion_schedule
from repro.tuning.evaluator import Measurement


#: Stats fields that must not depend on how candidates were priced.
INVARIANT_FIELDS = (
    "requests",
    "hits",
    "misses",
    "infeasible",
    "rungs_skipped",
    "screened",
    "lint_rejections",
)


def _tune(ir, base, pricing=nullcontext):
    engine = PlanEvaluator()
    with pricing():
        return HierarchicalTuner(ir, evaluator=engine).tune(base), engine


def _abort_on(ir, base, target, pricing=nullcontext):
    """Tune with a bug planted in the request for ``target``.

    The engine raises when asked to evaluate ``target`` (the request
    under its memo key); both pricing paths resolve every candidate
    through one request, so the run must end on that plan either way.
    Returns the error and the engine.
    """
    engine = PlanEvaluator()
    evaluate = engine._evaluate
    target_key = engine._key(ir, target)

    def planted(ir_, key, *args, **kwargs):
        if key == target_key:
            raise RuntimeError("model bug")
        return evaluate(ir_, key, *args, **kwargs)

    engine._evaluate = planted
    with pricing(), pytest.raises(EvaluationError) as info:
        HierarchicalTuner(ir, evaluator=engine).tune(base)
    return info.value, engine


def assert_same_abort(ir, base, scalar_pricing):
    """Scalar and vector engines abort on the same plan, after the same
    requests; returns the vector engine."""
    ref, _ = _tune(ir, base, scalar_pricing)
    target = ref.best.plan
    ref_error, ref_engine = _abort_on(ir, base, target, scalar_pricing)
    vec_error, vec_engine = _abort_on(ir, base, target)
    assert vec_error.context == ref_error.context
    assert ref_error.context["plan"] == target.describe()
    assert_invariant_stats(vec_engine, ref_engine)
    return vec_engine


def assert_invariant_stats(vec_engine, ref_engine):
    vec, ref = vec_engine.stats, ref_engine.stats
    for field in INVARIANT_FIELDS:
        assert getattr(vec, field) == getattr(ref, field), field
    # The engine's occupancy screen is routed through repro.lint, so
    # every prescreen rejection carries a rule code — on both paths.
    assert vec.lint_rejections == vec.screened
    assert ref.lint_rejections == ref.screened
    assert vec.simulations == ref.simulations


class TestVectorizedInvariance:
    def test_same_winner_and_stats(
        self, smoother_ir, base_plan, scalar_pricing
    ):
        ref, ref_engine = _tune(smoother_ir, base_plan, scalar_pricing)
        reset_simulate_calls()
        vec, vec_engine = _tune(smoother_ir, base_plan)
        scalar_residue = reset_simulate_calls()

        assert vec.best.plan == ref.best.plan
        assert vec.best.time_s == ref.best.time_s
        assert vec.best.tflops == ref.best.tflops
        assert [m.plan for m in vec.trace] == [m.plan for m in ref.trace]
        assert vec.evaluations == ref.evaluations
        assert_invariant_stats(vec_engine, ref_engine)
        # The vector engine actually vectorized, and every lane it
        # priced that way is one scalar simulate() call that never ran.
        assert vec_engine.stats.vectorized > 0
        assert ref_engine.stats.vectorized == 0
        assert (
            scalar_residue
            == vec_engine.stats.simulations - vec_engine.stats.vectorized
        )

    def test_memoization_still_content_addressed(self, smoother_ir, base_plan):
        # A second identical tune through the same vectorized engine
        # must be served entirely from the memo cache: no new misses,
        # no new lanes, byte-identical winner.
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
    def test_both_paths_abort_on_the_same_plan(
        self, smoother_ir, base_plan, scalar_pricing
    ):
        # A bug planted in one candidate fires per *request* (the vector
        # path still resolves each lane through _evaluate), so both
        # paths end on that plan, after the same accounting.
        vec_engine = assert_same_abort(smoother_ir, base_plan, scalar_pricing)
        assert vec_engine.stats.vectorized > 0


def _suite_bases(name):
    ir = load_ir(name)
    return ir, [
        auto_assign(ir, seed_plan_from_pragma(ir, instance)).plan
        for instance in ir.kernels
    ]


@pytest.mark.parametrize("name", list(BENCHMARKS))
class TestSuiteWideInvariance:
    """The smoother checks above, repeated for every kernel of every
    suite benchmark: batches run on one serial path, so nothing but
    the pricing backend may tell two runs apart."""

    def test_vectorized_matches_scalar(self, name, scalar_pricing):
        ir, bases = _suite_bases(name)
        for base in bases:
            ref, ref_engine = _tune(ir, base, scalar_pricing)
            vec, vec_engine = _tune(ir, base)
            assert vec.best.plan == ref.best.plan
            assert vec.best.time_s == ref.best.time_s
            assert vec.evaluations == ref.evaluations
            assert_invariant_stats(vec_engine, ref_engine)
            assert ref_engine.stats.vectorized == 0

    def test_repeat_tune_is_deterministic(self, name):
        ir, bases = _suite_bases(name)
        for base in bases:
            first, first_engine = _tune(ir, base)
            second, second_engine = _tune(ir, base)
            assert second.best.plan == first.best.plan
            assert second.best.time_s == first.best.time_s
            assert [m.plan for m in second.trace] == [
                m.plan for m in first.trace
            ]
            assert_invariant_stats(second_engine, first_engine)
            assert (
                second_engine.stats.vectorized
                == first_engine.stats.vectorized
            )

    def test_both_paths_abort_on_the_same_plan(self, name, scalar_pricing):
        ir, bases = _suite_bases(name)
        for base in bases:
            assert_same_abort(ir, base, scalar_pricing)


class TestPhaseAttribution:
    def test_tuner_stages_are_phase_labelled(self, smoother_ir, base_plan):
        engine = PlanEvaluator()
        HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        phases = engine.phase_stats
        assert "stage1" in phases and "stage2" in phases
        # Every request lands in exactly one phase (the tuner wraps all
        # its evaluation sites), so the per-phase split is a partition.
        assert (
            sum(ps.requests for ps in phases.values())
            == engine.stats.requests
        )
        for name, ps in phases.items():
            assert 0.0 <= ps.hit_rate <= 1.0, name
        report = engine.phase_dict()
        assert set(report) == set(phases)
        assert report["stage1"]["requests"] == phases["stage1"].requests

    def test_deep_tune_classify_phase_is_all_hits(self, smoother_ir):
        engine = PlanEvaluator()
        deep_tune(smoother_ir, evaluator=engine, max_degree=2)
        classify = engine.phase_stats["classify"]
        # The winner was just tuned, so classification is served from
        # the memo cache — the only cold-run hits, now attributable.
        assert classify.requests >= 1
        assert classify.hits == classify.requests
        assert classify.hit_rate == 1.0


class TestFusionScheduleDP:
    def _result(self, f_values, base_plan):
        from repro.tuning.deeptuning import DeepTuningEntry, DeepTuningResult

        entries = tuple(
            DeepTuningEntry(
                time_tile=x,
                measurement=Measurement(
                    plan=base_plan.replace(time_tile=x),
                    time_s=f,
                    tflops=1.0 / f,
                ),
                bandwidth_bound=True,
                bound_level="dram",
            )
            for x, f in enumerate(f_values, start=1)
        )
        return DeepTuningResult(entries=entries, evaluations=len(entries))

    def test_vector_dp_bitwise_matches_scalar(self, base_plan, monkeypatch):
        import random

        import repro.tuning.deeptuning as dt

        rng = random.Random(42)
        for _ in range(25):
            k = rng.randint(1, 6)
            f_values = [rng.uniform(0.5, 2.0) / x for x in range(1, k + 1)]
            result = self._result(f_values, base_plan)
            iterations = rng.randint(1, 200)
            monkeypatch.setattr(dt, "VECTOR_DP_MIN_OPS", 1)
            vec = fusion_schedule(result, iterations)
            monkeypatch.setattr(dt, "VECTOR_DP_MIN_OPS", 10**12)
            scalar = fusion_schedule(result, iterations)
            assert vec.tiles == scalar.tiles
            assert vec.total_time_s == scalar.total_time_s
            assert sum(vec.tiles) == iterations

    def test_zero_iterations(self, base_plan):
        result = self._result([1.0], base_plan)
        schedule = fusion_schedule(result, 0)
        assert schedule.tiles == () and schedule.total_time_s == 0.0
