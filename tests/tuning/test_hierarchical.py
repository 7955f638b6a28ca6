"""Tests for the hierarchical autotuner."""

import inspect

import pytest

from repro.codegen import KernelPlan, seed_plan_from_pragma
from repro.gpu import simulate
from repro.obs.search import SearchLog
from repro.tuning import HierarchicalTuner, PlanEvaluator, tune_kernel


def priced_rows(log):
    """The log's ``candidate`` rows the model priced (feasible ones), in
    request order."""
    return [
        row for row in log.events()
        if row.get("kind") == "candidate" and row.get("gflops") is not None
    ]


def logged_tune(ir, base, **settings):
    """Tune ``base`` with a search log attached to the evaluator;
    returns the result and the priced candidate rows."""
    log = SearchLog()
    tuner = HierarchicalTuner(
        ir, evaluator=PlanEvaluator(search_log=log), **settings
    )
    return tuner.tune(base), priced_rows(log)


def stage_plans(rows, stage):
    """The plans of ``rows`` that the tuner stage ``stage`` requested."""
    return [row.plan for row in rows if row["context"]["stage"] == stage]


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
        _, rows = logged_tune(smoother_ir, base)
        stage1 = stage_plans(rows, "stage1")
        blocks = {plan.block for plan in stage1}
        unrolls = {plan.unroll for plan in stage1}
        assert len(blocks) > 3 and len(unrolls) > 1

    def test_stage2_explores_second_tier(self, smoother_ir, base):
        _, rows = logged_tune(smoother_ir, base)
        stage2 = stage_plans(rows, "stage2")
        assert stage2
        assert all(
            plan.prefetch
            or plan.streaming == "concurrent"
            or plan.perspective == "mixed"
            for plan in stage2
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
        _, rows = logged_tune(smoother_ir, base, use_register_opts=True)
        assert any(row.plan.retime for row in rows)


class TestSettings:
    def test_options_are_the_ones_callers_pass(self):
        # The pipeline, the naive baselines and the benchmarks set these
        # seven; an option only a test sets is search-shaping code that
        # no run reaches.
        params = list(inspect.signature(HierarchicalTuner).parameters)
        assert params == [
            "ir", "device", "use_unrolling", "use_register_opts",
            "bandwidth_bound", "top_k", "evaluator", "journal",
        ]

    def test_top_k_below_one_is_refused(self, smoother_ir):
        from repro.resilience import UsageError

        with pytest.raises(UsageError, match="at least one"):
            HierarchicalTuner(smoother_ir, top_k=0)


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
        ],
        ids=lambda setting: "-".join(map(str, setting.items())),
    )
    def test_each_setting_changes_the_unit_key(self, smoother_ir, setting):
        default = HierarchicalTuner(smoother_ir)
        assert HierarchicalTuner(smoother_ir, **setting).config_digest() != (
            default.config_digest()
        )
        # An evaluator does not shape the search: its log leaves the
        # key alone.
        assert HierarchicalTuner(
            smoother_ir, evaluator=PlanEvaluator(search_log=SearchLog())
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
