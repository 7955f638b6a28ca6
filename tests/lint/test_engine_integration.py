"""Lint rules wired into the evaluation engine, tuners and metrics.

The PlanEvaluator screens each candidate as ``plan_rejection`` would
(the fusion rules once per structural family, the occupancy rules per
lane of the pricing pass): every screened rejection carries a stable
RLxxx code (in the exception message, the ``rule`` field and the
``lint.reject.*`` counters), and ``EvalStats.lint_rejections`` tracks
``screened`` exactly.  Overtile pruning (RL205) is a separate, opt-in
tuner knob.
"""

import pytest

from repro.codegen.plan import KernelPlan
from repro.gpu.device import P100
from repro.gpu.simulator import PlanInfeasible
from repro.obs import configure_metrics, get_metrics
from repro.tuning import HierarchicalTuner, PlanEvaluator
from repro.tuning.space import KnobGrid, prune_overtiled


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
        configure_metrics(True, reset=True)
        try:
            engine = PlanEvaluator(device=P100)
            engine.try_evaluate(
                smoother_ir,
                KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
                catch=(PlanInfeasible,),
            )
            snap = get_metrics().snapshot()
            assert snap["lint.reject.RL202"]["value"] == 1
        finally:
            configure_metrics(False, reset=True)


class TestPruneOvertiled:
    def _grid(self, ir, unrolls):
        kernel = kernel_of(ir)
        fits = KernelPlan(
            (kernel,), block=(4, 128), streaming="serial", stream_axis=0
        )
        # unroll (1, 1, 8): a 1024-point tile on a 512 domain
        return KnobGrid(
            fits, [fits.block], unrolls, [0] * len(unrolls),
            list(range(len(unrolls))), [False] * len(unrolls),
        )

    def test_drops_overtiled_keeps_fitting(self, smoother_ir):
        grid = self._grid(smoother_ir, [(), (1, 1, 8)])
        kept = prune_overtiled(smoother_ir, grid)
        assert list(kept.plans()) == [grid.plan(0)]

    def test_all_overtiled_falls_back_unpruned(self, smoother_ir):
        grid = self._grid(smoother_ir, [(1, 1, 8)])
        kept = prune_overtiled(smoother_ir, grid)
        assert list(kept.plans()) == list(grid.plans())

    def test_prune_emits_counter(self, smoother_ir):
        grid = self._grid(smoother_ir, [(), (1, 1, 8)])
        configure_metrics(True, reset=True)
        try:
            prune_overtiled(smoother_ir, grid)
            snap = get_metrics().snapshot()
            assert snap["lint.prune.overtile"]["value"] == 1
        finally:
            configure_metrics(False, reset=True)

    def test_pruned_tune_measures_fewer_lanes(self, smoother_ir):
        base = KernelPlan(
            (kernel_of(smoother_ir),), block=(32, 16), streaming="serial",
            stream_axis=0,
        )
        full = HierarchicalTuner(smoother_ir).tune(base)
        pruned = HierarchicalTuner(smoother_ir, lint_prune=True).tune(base)
        assert pruned.stage1_evaluations < full.stage1_evaluations

    def test_tuner_exposes_opt_in_knob(self, smoother_ir):
        # Off by default: pruning trades model fidelity (the analytical
        # model prices overtiled plans as first-class, and they can win)
        # for saved simulations, so it must be explicit.
        assert HierarchicalTuner(smoother_ir).lint_prune is False
        assert (
            HierarchicalTuner(smoother_ir, lint_prune=True).lint_prune is True
        )


class TestSimulatorRouting:
    def test_occupancy_prescreen_counts_rule_code(self, smoother_ir):
        from repro.gpu.simulator import plan_occupancy

        configure_metrics(True, reset=True)
        try:
            with pytest.raises(PlanInfeasible):
                plan_occupancy(
                    smoother_ir,
                    KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
                    P100,
                )
            snap = get_metrics().snapshot()
            assert snap["simulate.prescreen_rejections"]["value"] == 1
            assert snap["lint.reject.RL202"]["value"] == 1
        finally:
            configure_metrics(False, reset=True)


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
            {"kind": "prune", "reason": "lint.RL205", "dropped": 3, "kept": 9},
        ]
        html = render_html(events)
        assert "Lint rejections" in html
        assert "RL202" in html and "RL205" in html
