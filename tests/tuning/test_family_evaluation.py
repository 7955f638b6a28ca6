"""Family evaluation: the vectorized backend threaded through the engine.

The vectorized pricing path is a pure throughput lever — every
observable of a tuning run must be invariant to it: the winner (bitwise),
the EvalStats accounting (requests, hits, misses, screened,
``lint_rejections == screened``), and the failure bookkeeping under
injected chaos.  These tests run the full hierarchical tuner through paired
engines and compare everything.
"""

import pytest

from repro.codegen.resources import auto_assign, seed_plan_from_pragma
from repro.gpu.simulator import reset_simulate_calls, simulate_call_count
from repro.resilience import FaultInjector
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
    "failures",
)


def _tune(ir, base, **engine_kwargs):
    engine = PlanEvaluator(**engine_kwargs)
    tuner = HierarchicalTuner(ir, evaluator=engine)
    return tuner.tune(base), engine


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
    def test_same_winner_and_stats(self, smoother_ir, base_plan):
        ref, ref_engine = _tune(smoother_ir, base_plan, vectorize=False)
        reset_simulate_calls()
        vec, vec_engine = _tune(smoother_ir, base_plan, vectorize=True)
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
        engine = PlanEvaluator(vectorize=True)
        first = HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        misses_after_first = engine.stats.misses
        vectorized_after_first = engine.stats.vectorized
        second = HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        assert second.best.plan == first.best.plan
        assert second.best.time_s == first.best.time_s
        assert engine.stats.misses == misses_after_first
        assert engine.stats.vectorized == vectorized_after_first
        assert engine.stats.hits > 0


class TestChaosInvariance:
    @pytest.mark.parametrize("on_error", ["skip"])
    def test_fault_schedule_hits_both_paths_identically(
        self, smoother_ir, base_plan, on_error
    ):
        # Same fault seed through scalar and vectorized engines: faults
        # fire per *candidate* (the vector path still resolves each
        # lane through _evaluate), so the quarantine accounting and the
        # surviving winner must match exactly.
        def chaos(vectorize):
            injector = FaultInjector(rate=0.15, seed=11)
            result, engine = _tune(
                smoother_ir,
                base_plan,
                vectorize=vectorize,
                fault_injector=injector,
                on_error=on_error,
            )
            return result, engine, injector

        ref, ref_engine, ref_injector = chaos(vectorize=False)
        vec, vec_engine, vec_injector = chaos(vectorize=True)

        assert vec_injector.injected == ref_injector.injected
        assert vec_injector.injected > 0
        assert vec.best.plan == ref.best.plan
        assert vec.best.time_s == ref.best.time_s
        assert_invariant_stats(vec_engine, ref_engine)
        assert vec_engine.stats.failures > 0
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

    def test_vectorized_matches_scalar(self, name):
        ir, bases = _suite_bases(name)
        for base in bases:
            ref, ref_engine = _tune(ir, base, vectorize=False)
            vec, vec_engine = _tune(ir, base, vectorize=True)
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

    def test_fault_schedule_hits_both_paths_identically(self, name):
        ir, bases = _suite_bases(name)
        for base in bases:
            runs = []
            for vectorize in (False, True):
                injector = FaultInjector(rate=0.15, seed=11)
                result, engine = _tune(
                    ir,
                    base,
                    vectorize=vectorize,
                    fault_injector=injector,
                    on_error="skip",
                )
                runs.append((result, engine, injector))
            (ref, ref_engine, ref_inj), (vec, vec_engine, vec_inj) = runs
            # rhs4sgcurv prices a single candidate, so a 15% schedule
            # may inject nothing there; the counts must still agree.
            assert vec_inj.injected == ref_inj.injected
            assert vec.best.plan == ref.best.plan
            assert vec.best.time_s == ref.best.time_s
            assert_invariant_stats(vec_engine, ref_engine)
            assert vec_engine.stats.failures == vec_inj.injected


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
