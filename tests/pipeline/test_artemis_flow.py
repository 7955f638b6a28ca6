"""End-to-end tests of the ARTEMIS optimization flow (Section VII)."""

import pytest

from repro.baselines import run_global, run_ppcg, run_stencilgen
from repro.codegen.generator import generate_baseline, lower
from repro.gpu.device import get_device
from repro.obs.search import SearchLog
from repro.pipeline import format_report, optimize
from repro.resilience import UsageError
from repro.suite import load_ir
from repro.tuning import PlanEvaluator, deep_tune
from tests.codegen.test_resources import rationed_src


@pytest.fixture(scope="module")
def smoother_outcome():
    return optimize(load_ir("7pt-smoother"))


@pytest.fixture(scope="module")
def sw4_outcome():
    return optimize(load_ir("rhs4center"), top_k=2)


class TestIterativeFlow:
    def test_deep_tuned_variant(self, smoother_outcome):
        assert smoother_outcome.variant == "deep-tuned"
        assert smoother_outcome.deep_tuning is not None

    def test_schedule_covers_iterations(self, smoother_outcome):
        assert smoother_outcome.schedule.total_time_steps() == 12

    def test_tipping_point_under_four(self, smoother_outcome):
        assert smoother_outcome.deep_tuning.tipping_point <= 4

    @pytest.mark.parametrize("name", ["7pt-smoother", "rhs4center"])
    def test_top_k_below_one_is_usage_error(self, name):
        with pytest.raises(UsageError, match="top_k"):
            optimize(load_ir(name), top_k=0)

    def test_custom_iteration_count(self):
        outcome = optimize(load_ir("7pt-smoother"), iterations=13)
        assert outcome.schedule.total_time_steps() == 13

    def test_hints_mention_schedule(self, smoother_outcome):
        assert any("schedule" in h for h in smoother_outcome.hints)


class TestSpatialFlow:
    def test_produces_schedule(self, sw4_outcome):
        assert sw4_outcome.tflops > 0
        assert sw4_outcome.schedule.plans

    def test_advice_collected(self, sw4_outcome):
        assert sw4_outcome.advice

    def test_beats_ppcg(self, sw4_outcome):
        assert sw4_outcome.tflops > run_ppcg(load_ir("rhs4center")).tflops


class TestFigure5Ordering:
    """The headline comparison: ARTEMIS >= STENCILGEN >= global > PPCG."""

    def test_smoother_ordering(self, smoother_outcome):
        ir = load_ir("7pt-smoother")
        sg = run_stencilgen(ir).tflops
        glob = run_global(ir).tflops
        ppcg = run_ppcg(ir).tflops
        assert smoother_outcome.tflops >= sg * 0.999
        assert sg > glob
        assert glob > ppcg


class TestReport:
    def test_report_renders(self, smoother_outcome):
        text = format_report(smoother_outcome)
        assert "ARTEMIS optimization report" in text
        assert "TFLOPS" in text
        assert "tipping point" in text

    def test_report_lists_launches(self, smoother_outcome):
        text = format_report(smoother_outcome)
        assert "ms/launch" in text


class TestOccupancyPragma:
    """An ``occupancy`` pragma rations the shared buffers for the job's
    device: at 0.5, MI100 demotes ``la`` and ``mu`` (P100 would keep
    all five); at 0.75, V100 keeps all five (P100 would demote two)."""

    CASES = [
        (0.5, "MI100", {"u0", "u1", "u2"}),
        (0.75, "V100", {"u0", "u1", "u2", "mu", "la"}),
    ]
    ARRAYS = {"u0", "u1", "u2", "mu", "la"}

    @pytest.mark.parametrize("target, device, shared", CASES)
    def test_tuned_version(self, target, device, shared):
        spec = get_device(device)
        log = SearchLog()
        optimize(
            rationed_src(target),
            device=spec,
            evaluator=PlanEvaluator(device=spec, search_log=log),
        )
        buffered = {
            array
            for row in log.events()
            if row["kind"] == "candidate"
            and row["context"].get("variant") == "tuned"
            for array in row["config"].get("shmem", ())
        }
        assert buffered & self.ARRAYS == shared

    @pytest.mark.parametrize("target, device, shared", CASES)
    def test_baseline(self, target, device, shared):
        generated = generate_baseline(
            rationed_src(target), device=get_device(device)
        )
        placements = generated.schedule.plans[0].placement_map
        assert {a for a, s in placements.items() if s == "shmem"} == shared

    @pytest.mark.parametrize("target, device, shared", CASES)
    def test_deep_tuning(self, target, device, shared):
        source = rationed_src(target).replace(
            "copyout out;", "copyout out;\niterate 2;"
        )
        result = deep_tune(lower(source), device=get_device(device))
        for entry in result.entries:
            placements = entry.measurement.plan.placement_map
            buffered = {a for a, s in placements.items() if s == "shmem"}
            assert buffered & self.ARRAYS == shared
