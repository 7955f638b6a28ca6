"""End-to-end tests of the ARTEMIS optimization flow (Section VII)."""

import pytest

from repro.baselines import run_global, run_ppcg, run_stencilgen
from repro.pipeline import format_report, optimize
from repro.resilience import UsageError
from repro.suite import load_ir


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
