"""Tests for the hierarchical autotuner."""

import pytest

from repro.codegen import KernelPlan, seed_plan_from_pragma
from repro.gpu import simulate
from repro.tuning import HierarchicalTuner, tune_kernel


@pytest.fixture
def base(smoother_ir):
    return seed_plan_from_pragma(smoother_ir, smoother_ir.kernels[0]).replace(
        placements=(("in", "shmem"),)
    )


class TestTuning:
    def test_improves_over_baseline(self, smoother_ir, base):
        baseline = simulate(smoother_ir, base)
        result = tune_kernel(smoother_ir, base)
        assert result.best.time_s <= baseline.time_s

    def test_best_is_spill_free(self, smoother_ir, base):
        result = tune_kernel(smoother_ir, base)
        sim = simulate(smoother_ir, result.best_plan)
        assert not sim.counters.has_spills

    def test_register_escalation(self, smoother_ir, base):
        tuner = HierarchicalTuner(smoother_ir)
        # A large unroll needs more than 32 registers: the tuner must
        # escalate rather than accept a spilling config.
        measurement = tuner.measure(base.replace(unroll=(1, 2, 4)))
        assert measurement is not None
        assert measurement.plan.max_registers >= 32
        sim = simulate(smoother_ir, measurement.plan)
        assert not sim.counters.has_spills

    def test_stage1_explores_blocks_and_unrolls(self, smoother_ir, base):
        tuner = HierarchicalTuner(smoother_ir, keep_trace=True)
        result = tuner.tune(base)
        blocks = {m.plan.block for m in result.trace}
        unrolls = {m.plan.unroll for m in result.trace}
        assert len(blocks) > 3 and len(unrolls) > 1

    def test_stage2_explores_second_tier(self, smoother_ir, base):
        tuner = HierarchicalTuner(smoother_ir, keep_trace=True)
        result = tuner.tune(base)
        stage2 = result.trace[result.stage1_evaluations :]
        assert any(
            m.plan.prefetch
            or m.plan.streaming == "concurrent"
            or m.plan.perspective == "mixed"
            for m in result.trace
        )

    def test_evaluation_count_reported(self, smoother_ir, base):
        tuner = HierarchicalTuner(smoother_ir)
        result = tuner.tune(base)
        assert result.evaluations > result.stage1_evaluations > 0

    def test_unrolling_suppressed(self, smoother_ir, base):
        tuner = HierarchicalTuner(smoother_ir, use_unrolling=False)
        result = tuner.tune(base)
        assert result.best_plan.unroll in ((), (1, 1, 1))

    def test_register_opts_add_retime_variants(self, smoother_ir, base):
        tuner = HierarchicalTuner(
            smoother_ir, use_register_opts=True, keep_trace=True
        )
        result = tuner.tune(base)
        assert any(m.plan.retime for m in result.trace)


class TestCustomHierarchy:
    def test_user_defined_levels(self, smoother_ir, base):
        def level1(ir, plan):
            yield plan.replace(block=(16, 16))
            yield plan.replace(block=(32, 16))

        def level2(ir, plan):
            yield plan.replace(prefetch=True)

        tuner = HierarchicalTuner(smoother_ir, hierarchy=[level1, level2])
        result = tuner.tune(base)
        assert result.best.time_s > 0
        assert result.evaluations <= 8  # 2 + top_k*1 at most


def _level_a(ir, plan):
    yield plan.replace(block=(16, 16))
    yield plan.replace(block=(32, 16))


def _level_b(ir, plan):
    yield plan.replace(prefetch=True)


class TestUnitJournal:
    """Each ``tune`` call is one journaled unit, keyed by everything
    that shapes its search."""

    @pytest.mark.parametrize(
        "setting",
        [
            {"use_unrolling": False},
            {"use_register_opts": True},
            {"bandwidth_bound": False},
            {"top_k": 2},
            {"lint_prune": True},
            # Functions print with their address: fixed ids keep these
            # two stable from one collection to the next.
            pytest.param(
                {"hierarchy": [_level_a]},
                id="('hierarchy', [_level_a])",
            ),
            pytest.param(
                {"hierarchy": [_level_a, _level_b]},
                id="('hierarchy', [_level_a, _level_b])",
            ),
        ],
        ids=lambda setting: "-".join(map(str, setting.items())),
    )
    def test_each_setting_changes_the_unit_key(self, smoother_ir, setting):
        default = HierarchicalTuner(smoother_ir)
        assert HierarchicalTuner(smoother_ir, **setting).config_digest() != (
            default.config_digest()
        )
        # Settings that do not shape the search leave the key alone.
        assert HierarchicalTuner(
            smoother_ir, keep_trace=True
        ).config_digest() == default.config_digest()

    def test_replay_continues_the_tuner_counts(
        self, smoother_ir, base, tmp_path
    ):
        from repro.resilience import TuningJournal
        from repro.tuning import PlanEvaluator

        path = str(tmp_path / "units.jsonl")
        moved = base.replace(block=(16, 16))
        with TuningJournal(path) as journal:
            tuner = HierarchicalTuner(smoother_ir, journal=journal)
            first = tuner.tune(base)
            second = tuner.tune(moved)
            assert len(journal) == 2
        with TuningJournal(path) as journal:
            engine = PlanEvaluator()
            tuner = HierarchicalTuner(
                smoother_ir, evaluator=engine, journal=journal
            )
            assert tuner.tune(base).best == first.best
            replayed = tuner.tune(moved)
        assert engine.stats.requests == 0
        assert replayed.evaluations == second.evaluations
        assert replayed.stage1_evaluations == second.stage1_evaluations
        assert replayed.best == second.best
        assert replayed.seeds == second.seeds


class TestStage2Facts:
    def test_fold_groups_found_once_per_tune(
        self, smoother_ir, base, monkeypatch
    ):
        # Fold groups depend on the fused kernels alone: one iterative
        # tune with register optimizations looks them up once, not once
        # per stage-2 survivor.
        import repro.tuning.hierarchical as hierarchical

        calls = []
        real = hierarchical.find_fold_groups

        def counting(instance):
            calls.append(instance.name)
            return real(instance)

        monkeypatch.setattr(hierarchical, "find_fold_groups", counting)
        tuner = HierarchicalTuner(smoother_ir, use_register_opts=True)
        result = tuner.tune(base)
        assert result.best is not None
        assert tuner.evaluations > 0
        assert calls == [base.kernel_names[0]]
