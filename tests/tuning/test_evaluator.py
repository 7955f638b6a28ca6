"""Tests for the shared plan-evaluation engine.

The engine's contract is *bit-for-bit equivalence*: memoized, batched
and incrementally-escalated evaluation must return exactly what
the direct ``validate_plan`` + ``simulate`` path returns.
"""

import random
import threading
import time

import pytest

from repro.codegen.plan import REGISTER_LEVELS
from repro.codegen.resources import InvalidPlan, validate_plan
from repro.codegen.tiling import clear_plan_cache, plan_family_key
from repro.gpu.pricing import FamilyStructure
from repro.gpu.simulator import PlanInfeasible, simulate
from repro.ir.analysis import clear_analysis_cache
from repro.resilience import UsageError
from repro.suite import BENCHMARKS, load_ir
from repro.tuning import HierarchicalTuner, PlanEvaluator, plan_fingerprint
from repro.tuning.random_search import _sample_plan

from .test_hierarchical import logged_tune


def sampled_plans(ir, kernel_name, count, seed=7):
    rng = random.Random(seed)
    return [_sample_plan(rng, ir, kernel_name) for _ in range(count)]


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def direct_result(ir, plan, device):
    """The seed evaluation path: validate + simulate, None if infeasible."""
    try:
        validate_plan(ir, plan)
        return simulate(ir, plan, device)
    except (PlanInfeasible, InvalidPlan, ValueError):
        return None


def ladder_walk(ir, plan, device):
    """The paper's register ladder, one ``simulate()`` per rung: the
    first (plan, result) that does not spill, None if infeasible or
    spilling at every rung."""
    for level in REGISTER_LEVELS:
        candidate = plan.replace(max_registers=level)
        result = direct_result(ir, candidate, device)
        if result is None:
            return None
        if not result.counters.has_spills:
            return candidate, result
    return None


class TestIdentityProperty:
    def test_matches_direct_simulate_on_random_plans(self, smoother_ir):
        evaluator = PlanEvaluator()
        kernel = smoother_ir.kernels[0].name
        checked = 0
        for plan in sampled_plans(smoother_ir, kernel, 60):
            expected = direct_result(smoother_ir, plan, evaluator.device)
            got = evaluator.try_evaluate(
                smoother_ir, plan, catch=(PlanInfeasible, InvalidPlan, ValueError)
            )
            if expected is None:
                assert got is None
            else:
                checked += 1
                assert got.counters == expected.counters
                assert got.timing == expected.timing
                assert got.occupancy == expected.occupancy
        assert checked > 5  # the sample must exercise feasible plans

    def test_cached_matches_uncached(self, smoother_ir):
        evaluator = PlanEvaluator()
        kernel = smoother_ir.kernels[0].name
        plans = sampled_plans(smoother_ir, kernel, 30, seed=13)
        warm = [evaluator.try_evaluate(smoother_ir, p) for p in plans]
        cold = []
        for plan in plans:
            clear_plan_cache()
            clear_analysis_cache()
            cold.append(direct_result(smoother_ir, plan, evaluator.device))
        for cached, fresh in zip(warm, cold):
            assert (cached is None) == (fresh is None)
            if cached is not None:
                assert cached.counters == fresh.counters
                assert cached.timing == fresh.timing


class TestMemoization:
    def test_second_evaluation_is_a_hit(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator()
        first = evaluator.evaluate(smoother_ir, base_plan)
        second = evaluator.evaluate(smoother_ir, base_plan)
        assert first is second
        assert evaluator.stats.requests == 2
        assert evaluator.stats.hits == 1
        assert evaluator.stats.misses == 1

    def test_infeasible_failures_memoized(self, smoother_ir, base_plan):
        bad = base_plan.replace(block=(1024, 1024))
        evaluator = PlanEvaluator()
        assert evaluator.try_evaluate(smoother_ir, bad) is None
        assert evaluator.try_evaluate(smoother_ir, bad) is None
        assert evaluator.stats.misses == 1
        assert evaluator.stats.hits == 1
        assert evaluator.stats.infeasible == 2

    def test_memoized_failure_raises_fresh_copies(self, smoother_ir, base_plan):
        # Each hit raises a new copy of the cached failure: re-raising one
        # shared object would grow its traceback on every hit, and keep
        # the evaluator alive through the frames it holds.
        bad = base_plan.replace(block=(1024, 1024))
        evaluator = PlanEvaluator()
        raised = []
        for attempt in range(4):  # one miss, then three hits
            with pytest.raises(PlanInfeasible) as info:
                evaluator.evaluate(smoother_ir, bad)
            raised.append(
                (info.value, _traceback_depth(info.value), info.value.describe())
            )
            info.value.with_context(attempt=attempt)
        assert evaluator.stats.hits == 3
        hits = raised[1:]
        assert len({id(exc) for exc, _, _ in raised}) == len(raised)
        assert len({depth for _, depth, _ in hits}) == 1
        # Context one caller attaches never reaches the next copy.
        assert {described for _, _, described in raised} == {raised[0][2]}
        assert "attempt=" not in raised[0][2]

    def test_family_validation_failure_not_shared(self, smoother_ir, base_plan):
        # A family whose prototype fails validation rejects every lane;
        # each lane must memoize its own copy of that failure.
        blocks = [(32, 4), (32, 8), (16, 8), (64, 4), (16, 16)]
        plans = [base_plan.replace(block=b, stream_axis=7) for b in blocks]
        evaluator = PlanEvaluator()
        assert evaluator.evaluate_batch(smoother_ir, plans) == [None] * len(plans)
        raised = []
        for plan in plans:
            with pytest.raises(InvalidPlan) as info:
                evaluator.evaluate(smoother_ir, plan)
            raised.append((info.value, info.value.describe()))
            info.value.with_context(lane=plan.block)
        assert evaluator.stats.hits == len(plans)
        assert len({id(exc) for exc, _ in raised}) == len(plans)
        assert {described for _, described in raised} == {raised[0][1]}
        assert "lane=" not in raised[0][1]

    def test_register_levels_share_one_family(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator()
        for level in REGISTER_LEVELS:
            evaluator.evaluate(
                smoother_ir, base_plan.replace(max_registers=level)
            )
        # Four cache entries (one per register level), one plan family.
        assert evaluator.cache_size() == len(REGISTER_LEVELS)
        families = {
            plan_family_key(base_plan.replace(max_registers=level))
            for level in REGISTER_LEVELS
        }
        assert len(families) == 1


class TestBatch:
    def test_results_in_input_order(self, smoother_ir):
        kernel = smoother_ir.kernels[0].name
        plans = sampled_plans(smoother_ir, kernel, 40, seed=3)
        evaluator = PlanEvaluator()
        serial = [
            evaluator.try_evaluate(
                smoother_ir, p, catch=(PlanInfeasible, InvalidPlan, ValueError)
            )
            for p in plans
        ]
        batch_eval = PlanEvaluator()
        batched = batch_eval.evaluate_batch(
            smoother_ir,
            plans,
            catch=(PlanInfeasible, InvalidPlan, ValueError),
        )
        assert len(batched) == len(plans)
        for ser, par in zip(serial, batched):
            assert (ser is None) == (par is None)
            if ser is not None:
                assert par.counters == ser.counters
                assert par.timing == ser.timing

    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_batch_matches_one_at_a_time_on_suite(self, name):
        # One batch and the same plans submitted one by one go through
        # the same serial path: identical results, identical accounting.
        ir = load_ir(name)
        catch = (PlanInfeasible, InvalidPlan, ValueError)
        for instance in ir.kernels:
            plans = sampled_plans(ir, instance.name, 24, seed=5)
            single = PlanEvaluator()
            one_by_one = [single.try_evaluate(ir, p, catch=catch) for p in plans]
            batch = PlanEvaluator()
            batched = batch.evaluate_batch(ir, plans, catch=catch)
            assert len(batched) == len(plans)
            for ser, bat in zip(one_by_one, batched):
                assert (ser is None) == (bat is None)
                if ser is not None:
                    assert bat.counters == ser.counters
                    assert bat.timing == ser.timing
            for field in ("requests", "misses", "infeasible", "screened"):
                assert getattr(batch.stats, field) == getattr(
                    single.stats, field
                ), field

    def test_batch_runs_on_the_calling_thread(self, smoother_ir, monkeypatch):
        threads = set()
        real_price = FamilyStructure._price

        def recording_price(*args, **kwargs):
            threads.add(threading.get_ident())
            return real_price(*args, **kwargs)

        monkeypatch.setattr(FamilyStructure, "_price", recording_price)
        kernel = smoother_ir.kernels[0].name
        plans = sampled_plans(smoother_ir, kernel, 40, seed=3)
        PlanEvaluator().evaluate_batch(
            smoother_ir,
            plans,
            catch=(PlanInfeasible, InvalidPlan, ValueError),
        )
        assert threads == {threading.get_ident()}

    def test_spill_free_batch_matches_serial(self, smoother_ir, base_plan):
        variants = [
            base_plan.replace(unroll=(1, 1, u)) for u in (1, 2, 4, 8)
        ]
        serial_eval = PlanEvaluator()
        serial = [
            serial_eval.evaluate_spill_free(smoother_ir, v) for v in variants
        ]
        batch_eval = PlanEvaluator()
        batched = batch_eval.evaluate_spill_free_batch(smoother_ir, variants)
        for ser, par in zip(serial, batched):
            assert (ser is None) == (par is None)
            if ser is not None:
                assert par[0] == ser[0]
                assert par[1].timing == ser[1].timing


class TestEscalation:
    def test_incremental_matches_ladder(self, smoother_ir, simulate_calls):
        kernel = smoother_ir.kernels[0].name
        plans = [
            p.replace(max_registers=REGISTER_LEVELS[-1])
            for p in sampled_plans(smoother_ir, kernel, 40, seed=29)
        ]
        fast = PlanEvaluator()
        simulate_calls()
        found = [fast.evaluate_spill_free(smoother_ir, p) for p in plans]
        fast_calls = simulate_calls()
        walked = [ladder_walk(smoother_ir, p, fast.device) for p in plans]
        ladder_calls = simulate_calls()
        for a, b in zip(found, walked):
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0] == b[0]  # same chosen register level
                assert a[1].timing == b[1].timing
                assert a[1].counters == b[1].counters
        assert fast_calls < ladder_calls
        assert fast.stats.rungs_skipped > 0

    def test_skips_spilling_rungs(self, smoother_ir, base_plan):
        # A heavily unrolled plan demands more than 32 registers, so the
        # low rungs must be resolved without simulation.
        evaluator = PlanEvaluator()
        found = evaluator.evaluate_spill_free(
            smoother_ir, base_plan.replace(unroll=(1, 2, 4))
        )
        assert found is not None
        plan, result = found
        assert plan.max_registers > 32
        assert not result.counters.has_spills
        assert evaluator.stats.rungs_skipped > 0


class TestFingerprint:
    def test_stable_and_content_addressed(self, base_plan):
        assert plan_fingerprint(base_plan) == plan_fingerprint(base_plan)
        other = base_plan.replace(block=(8, 8))
        assert plan_fingerprint(other) != plan_fingerprint(base_plan)

    def test_register_cap_can_be_factored_out(self, base_plan):
        a = base_plan.replace(max_registers=32)
        b = base_plan.replace(max_registers=255)
        assert plan_fingerprint(a) != plan_fingerprint(b)
        assert plan_fingerprint(a, include_registers=False) == plan_fingerprint(
            b, include_registers=False
        )


class TestTunerIntegration:
    def test_uniform_accounting_counts_infeasible(self, smoother_ir, base_plan):
        tuner = HierarchicalTuner(smoother_ir)
        assert tuner.measure(base_plan.replace(block=(1024, 1024))) is None
        assert tuner.evaluations == 1

    def test_stage2_never_remeasures_a_family(self, smoother_ir, base_plan):
        _, rows = logged_tune(smoother_ir, base_plan, use_register_opts=True)
        families = [plan_family_key(row.plan) for row in rows]
        assert len(families) == len(set(families))

    def test_result_carries_eval_stats(self, smoother_ir, base_plan):
        tuner = HierarchicalTuner(smoother_ir)
        result = tuner.tune(base_plan)
        assert result.eval_stats is not None
        assert result.eval_stats.requests >= result.evaluations
        assert result.eval_stats.misses > 0

    def test_shared_evaluator_reuses_results(self, smoother_ir, base_plan):
        shared = PlanEvaluator()
        first = HierarchicalTuner(smoother_ir, evaluator=shared)
        second = HierarchicalTuner(smoother_ir, evaluator=shared)
        a = first.tune(base_plan)
        hits_before = shared.stats.hits
        b = second.tune(base_plan)
        assert b.best.plan == a.best.plan
        assert b.best.time_s == a.best.time_s
        # The re-run is served almost entirely from the memo cache.
        assert shared.stats.hits > hits_before

    @pytest.mark.parametrize("top_k", [0, -1, -2])
    def test_top_k_below_one_is_usage_error(self, smoother_ir, top_k):
        with pytest.raises(UsageError, match="top_k"):
            HierarchicalTuner(smoother_ir, top_k=top_k)

    def test_top_k_of_one_keeps_one_survivor(self, smoother_ir, base_plan):
        narrow = HierarchicalTuner(smoother_ir, top_k=1).tune(base_plan)
        wide = HierarchicalTuner(smoother_ir).tune(base_plan)
        assert narrow.best is not None
        # Fewer stage-1 survivors can only shrink stage 2.
        assert narrow.evaluations <= wide.evaluations
        assert narrow.best.time_s >= wide.best.time_s


class TestTimingAccounting:
    """``wall_s`` is the elapsed time of the engine's outermost frames:
    nested ``evaluate_spill_free`` -> ``evaluate`` frames bill once."""

    def _patch_sleepy_pricing(self, monkeypatch, delay):
        real = FamilyStructure._price

        def sleepy(*args, **kwargs):
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(FamilyStructure, "_price", sleepy)

    def test_nested_calls_bill_outermost_frame_once(
        self, smoother_ir, base_plan, monkeypatch
    ):
        delay = 0.02
        self._patch_sleepy_pricing(monkeypatch, delay)
        evaluator = PlanEvaluator()
        start = time.perf_counter()
        evaluator.evaluate_spill_free(smoother_ir, base_plan)
        elapsed = time.perf_counter() - start
        stats = evaluator.stats
        assert stats.simulations >= 1
        # Every sleeping pricing pass shows, but the nested evaluate()
        # frames must not add their own deltas on top of the
        # evaluate_spill_free() frame.
        assert stats.wall_s >= stats.simulations * delay
        assert stats.wall_s <= elapsed * 1.05 + 1e-3

    def test_report_and_dict_carry_wall_time(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator()
        evaluator.evaluate(smoother_ir, base_plan)
        as_dict = evaluator.stats.as_dict()
        assert "wall_s" in as_dict and "cpu_s" not in as_dict
        described = evaluator.stats.describe()
        assert "ms wall" in described and "cpu-sum" not in described
