"""Lint rules wired into the evaluation engine, tuners and metrics.

The PlanEvaluator screens each candidate as ``plan_rejection`` would
(the fusion rules once per structural family, the occupancy rules per
lane of the pricing pass): every screened rejection carries a stable
RLxxx code (in the exception message, the ``rule`` field and the
``lint.reject.*`` counters), and ``EvalStats.lint_rejections`` tracks
``screened`` exactly.
"""

import pytest

from repro.codegen.plan import KernelPlan
from repro.gpu.device import P100
from repro.gpu.simulator import PlanInfeasible
from repro.obs import configure_metrics, get_metrics
from repro.lint import check_plan
from repro.obs.search import SearchLog
from repro.tuning import HierarchicalTuner, PlanEvaluator

from ..settle_hooks import trap_settle


def kernel_of(ir):
    return ir.kernels[0].name


class TestEvaluatorPrescreen:
    def test_rejection_carries_rule_code(self, smoother_ir):
        engine = PlanEvaluator(device=P100)
        doomed = KernelPlan((kernel_of(smoother_ir),), block=(64, 64))
        with pytest.raises(PlanInfeasible) as excinfo:
            engine.evaluate(smoother_ir, doomed)
        assert "[RL202]" in str(excinfo.value)
        assert getattr(excinfo.value, "context", {}).get("rule") == "RL202"

    def test_lint_rejections_track_screened(self, smoother_ir):
        engine = PlanEvaluator(device=P100)
        kernel = kernel_of(smoother_ir)
        plans = [
            KernelPlan((kernel,), block=(64, 64)),  # RL202
            KernelPlan((kernel,), block=(32, 16)),  # feasible
            KernelPlan(
                (kernel,),
                block=(32, 32),
                unroll=(1, 4, 4),
                placements=(("in", "shmem"),),
            ),  # RL201
        ]
        for plan in plans:
            engine.try_evaluate(smoother_ir, plan, catch=(PlanInfeasible,))
        assert engine.stats.screened == 2
        assert engine.stats.lint_rejections == engine.stats.screened

    def test_stats_survive_snapshot_roundtrip(self, smoother_ir):
        engine = PlanEvaluator(device=P100)
        engine.try_evaluate(
            smoother_ir,
            KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
            catch=(PlanInfeasible,),
        )
        assert engine.stats.as_dict()["lint_rejections"] == 1
        assert "lint rule" in engine.stats.describe()

    def test_rejection_counter_emitted(self, smoother_ir):
        configure_metrics(reset=True)
        engine = PlanEvaluator(device=P100)
        engine.try_evaluate(
            smoother_ir,
            KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
            catch=(PlanInfeasible,),
        )
        snap = get_metrics().snapshot()
        assert snap["lint.reject.RL202"] == 1


class TestRefusalCounters:
    """The engine tallies its refusals per rule and adds each batch's
    tally to ``lint.reject.<rule>`` and ``simulate.prescreen_rejections``
    once, when the batch ends."""

    #: Five distinct plans the occupancy screen refuses as RL202.
    BLOCKS = ((64, 64), (128, 32), (256, 16), (512, 8), (1024, 4))

    def _refused(self, ir):
        return [KernelPlan((kernel_of(ir),), block=b) for b in self.BLOCKS]

    def test_one_lookup_per_rule_per_batch(self, smoother_ir, monkeypatch):
        import repro.tuning.evaluator as evaluator

        looked_up = []
        real = evaluator._counter

        def counter(name):
            looked_up.append(name)
            return real(name)

        monkeypatch.setattr(evaluator, "_counter", counter)
        configure_metrics(reset=True)
        engine = PlanEvaluator(device=P100)
        assert engine.evaluate_batch(smoother_ir, self._refused(smoother_ir)) == [
            None
        ] * len(self.BLOCKS)
        assert sorted(looked_up) == [
            "lint.reject.RL202", "simulate.prescreen_rejections",
        ]
        snap = get_metrics().snapshot()
        assert snap["lint.reject.RL202"] == engine.stats.screened == 5
        assert snap["simulate.prescreen_rejections"] == 5

    def test_counters_track_screened_across_calls(self, smoother_ir):
        configure_metrics(reset=True)
        engine = PlanEvaluator(device=P100)
        plans = self._refused(smoother_ir)
        engine.evaluate_batch(smoother_ir, plans[:2])
        for plan in plans[2:]:
            engine.try_evaluate(smoother_ir, plan)
        snap = get_metrics().snapshot()
        assert snap["lint.reject.RL202"] == engine.stats.screened == 5

    def test_cache_hits_add_no_refusal(self, smoother_ir):
        configure_metrics(reset=True)
        engine = PlanEvaluator(device=P100)
        plan = self._refused(smoother_ir)[0]
        for _ in range(3):
            engine.try_evaluate(smoother_ir, plan)
        assert engine.stats.hits == 2
        assert get_metrics().snapshot()["lint.reject.RL202"] == 1

    def test_refusals_before_a_failure_are_counted(self, smoother_ir):
        from repro.resilience import EvaluationError

        configure_metrics(reset=True)
        engine = PlanEvaluator(device=P100)
        trap_settle(
            engine,
            "disposition",
            lambda family, disposition: disposition == "simulated",
        )
        kernel = kernel_of(smoother_ir)
        plans = self._refused(smoother_ir)[:2] + [
            KernelPlan((kernel,), block=(32, 16))
        ]
        with pytest.raises(EvaluationError):
            engine.evaluate_batch(smoother_ir, plans)
        assert engine.stats.screened == 2
        assert get_metrics().snapshot()["lint.reject.RL202"] == 2


class TestSimulatorRouting:
    def test_occupancy_prescreen_counts_rule_code(self, smoother_ir):
        from repro.gpu.simulator import plan_occupancy

        configure_metrics(reset=True)
        with pytest.raises(PlanInfeasible):
            plan_occupancy(
                smoother_ir,
                KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
                P100,
            )
        snap = get_metrics().snapshot()
        assert snap["simulate.prescreen_rejections"] == 1
        assert snap["lint.reject.RL202"] == 1


class TestOvertiledLanes:
    """RL205 (overtile) is an advisory: the model prices overtiled plans
    as first-class, and they can win, so the tuner measures them."""

    def test_tune_measures_overtiled_lanes(self, smoother_ir):
        base = KernelPlan(
            (kernel_of(smoother_ir),), block=(32, 16), streaming="serial",
            stream_axis=0,
        )
        log = SearchLog()
        result = HierarchicalTuner(
            smoother_ir, evaluator=PlanEvaluator(search_log=log)
        ).tune(base)
        stage1 = [
            row for row in log.events()
            if row.get("kind") == "candidate"
            and row["context"]["stage"] == "stage1"
        ]
        assert len(stage1) == result.stage1_evaluations
        # Priced, not screened out: each has a model throughput.
        overtiled = [
            row for row in stage1
            if row.get("gflops") is not None
            and "RL205" in check_plan(smoother_ir, row.plan, P100).codes()
        ]
        assert overtiled


class TestHtmlReportSection:
    def test_lint_rejections_rendered(self):
        from repro.obs.report_html import render_html

        events = [
            {
                "kind": "candidate",
                "disposition": "rejected",
                "reason": "[RL202] block of 4096 threads",
            },
            {
                "kind": "candidate",
                "disposition": "rejected",
                "reason": "[RL202] block of 2048 threads",
            },
        ]
        html = render_html(events)
        assert "Lint rejections" in html
        assert "RL202" in html
