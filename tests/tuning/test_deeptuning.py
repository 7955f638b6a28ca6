"""Tests for deep tuning and the opt(T) fusion-schedule DP."""

import itertools

import numpy as np
import pytest

from repro.codegen import ProgramPlan
from repro.gpu.executor import (
    allocate_inputs,
    default_scalars,
    execute_program_plan,
    execute_reference,
)
from repro.dsl import parse
from repro.ir import build_ir
from repro.resilience import UsageError
from repro.tuning import (
    DeepTuningResult,
    deep_tune,
    fusion_schedule,
    schedule_to_program_plan,
)
from repro.tuning.deeptuning import DeepTuningEntry
from repro.tuning.hierarchical import Measurement
from repro.codegen import KernelPlan


@pytest.fixture(scope="module")
def tuned(request):
    src = """
    parameter L=512, M=512, N=512;
    iterator k, j, i;
    double in[L,M,N], out[L,M,N], a;
    copyin in, a;
    iterate 12;
    #pragma stream k block (32,16)
    stencil s (B, A, a) {
      B[k][j][i] = a * (A[k][j][i+1] + A[k][j][i-1] + A[k][j+1][i]
        + A[k][j-1][i] + A[k+1][j][i] + A[k-1][j][i] + A[k][j][i]);
    }
    s (out, in, a);
    copyout out;
    """
    ir = build_ir(parse(src))
    return ir, deep_tune(ir, top_k=2)


class TestDeepTune:
    def test_explores_multiple_degrees(self, tuned):
        _ir, result = tuned
        assert result.k >= 3

    def test_performance_rises_then_falls(self, tuned):
        _ir, result = tuned
        tflops = [e.tflops for e in result.entries]
        peak = tflops.index(max(tflops))
        assert all(
            tflops[i] <= tflops[i + 1] for i in range(peak)
        )

    def test_tipping_point_under_paper_bound(self, tuned):
        # "The tipping point was under 4 time steps for all the evaluated
        # iterative stencils" (our order-1 smoother: <= 4).
        _ir, result = tuned
        assert 2 <= result.tipping_point <= 4

    def test_stops_when_not_bandwidth_bound(self, tuned):
        _ir, result = tuned
        for entry in result.entries[:-1]:
            assert entry.bandwidth_bound

    def test_requires_iterative(self):
        src = """
        parameter N=64;
        iterator k, j, i;
        double A[N,N,N], B[N,N,N];
        stencil s (B, A) { B[k][j][i] = A[k][j][i+1]; }
        s (B, A);
        """
        ir = build_ir(parse(src))
        with pytest.raises(ValueError):
            deep_tune(ir)

    def test_top_k_below_one_is_usage_error(self, tuned):
        ir, _result = tuned
        with pytest.raises(UsageError, match="top_k"):
            deep_tune(ir, top_k=0)


def _fake_result(times):
    entries = []
    for x, t in times.items():
        plan = KernelPlan(kernel_names=("s.0",), block=(8, 8),
                          streaming="serial", stream_axis=0, time_tile=x)
        entries.append(
            DeepTuningEntry(
                time_tile=x,
                measurement=Measurement(plan=plan, time_s=t, tflops=1.0),
                bandwidth_bound=True,
                bound_level="dram",
            )
        )
    return DeepTuningResult(entries=tuple(entries), evaluations=0)


class TestFusionScheduleDP:
    def test_trivial_schedule(self):
        result = _fake_result({1: 1.0})
        schedule = fusion_schedule(result, 5)
        assert schedule.tiles == (1, 1, 1, 1, 1)
        assert schedule.total_time_s == pytest.approx(5.0)

    def test_prefers_fused_when_cheaper(self):
        # f(1)=1.0, f(2)=1.2 (cheaper per step), f(3)=3.5 (worse).
        result = _fake_result({1: 1.0, 2: 1.2, 3: 3.5})
        schedule = fusion_schedule(result, 4)
        assert schedule.tiles == (2, 2)
        assert schedule.total_time_s == pytest.approx(2.4)

    def test_remainder_handled(self):
        result = _fake_result({1: 1.0, 2: 1.2})
        schedule = fusion_schedule(result, 5)
        assert sorted(schedule.tiles) == [1, 2, 2]

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 7, 13, 24])
    def test_dp_matches_bruteforce(self, T):
        times = {1: 1.0, 2: 1.7, 3: 2.1, 4: 3.9}
        result = _fake_result(times)
        schedule = fusion_schedule(result, T)
        # Brute force over the multisets of parts <= 4 summing to T (the
        # partitions of T): a schedule's cost does not depend on the
        # order of its parts, so every composition costs as much as the
        # partition it reorders.
        best = float("inf")
        def partitions(total, largest=4):
            if total == 0:
                yield ()
                return
            for part in range(min(largest, total), 0, -1):
                for rest in partitions(total - part, part):
                    yield (part,) + rest
        for combo in partitions(T):
            cost = sum(times[p] for p in combo)
            best = min(best, cost)
        assert schedule.total_time_s == pytest.approx(best)

    def test_long_horizon(self):
        # 5000 steps x 5 degrees: the regime where the DP's inner loop
        # dominates.  Counts and total recorded from the previous
        # implementation (scalar and NumPy paths agreed bitwise).
        result = _fake_result({1: 1.0, 2: 1.7, 3: 2.1, 4: 3.9, 5: 3.6})
        schedule = fusion_schedule(result, 5000)
        assert schedule.counts() == {5: 1, 3: 1665}
        assert schedule.tiles == (5,) + (3,) * 1665
        assert schedule.total_time_s == 3500.099999999901

    def test_ties_pick_the_smallest_degree(self):
        # f(2) = 2 f(1): every split costs the same, and the strict-less
        # update keeps the first minimum in ascending degree.
        result = _fake_result({1: 1.0, 2: 2.0})
        schedule = fusion_schedule(result, 6)
        assert schedule.tiles == (1,) * 6
        assert schedule.total_time_s == 6.0

    def test_missing_degree_raises_key_error(self):
        result = _fake_result({1: 1.0, 3: 2.1})
        with pytest.raises(KeyError):
            fusion_schedule(result, 4)

    def test_describe_uses_paper_notation(self):
        result = _fake_result({1: 1.0, 2: 1.2})
        schedule = fusion_schedule(result, 5)
        assert "2x2" in schedule.describe()
        assert "1x1" in schedule.describe()

    def test_zero_iterations(self):
        result = _fake_result({1: 1.0})
        schedule = fusion_schedule(result, 0)
        assert schedule.tiles == () and schedule.total_time_s == 0.0


class TestScheduleCorrectness:
    def test_deep_tuned_schedule_matches_reference(self):
        """End-to-end: the deep-tuned schedule computes the right values."""
        src = """
        parameter L=24, M=24, N=24;
        iterator k, j, i;
        double in[L,M,N], out[L,M,N], a;
        copyin in, a;
        iterate 7;
        #pragma stream k block (8,8)
        stencil s (B, A, a) {
          B[k][j][i] = a * (A[k][j][i+1] + A[k][j][i-1] + A[k+1][j][i]
            + A[k-1][j][i]);
        }
        s (out, in, a);
        copyout out;
        """
        ir = build_ir(parse(src))
        result = deep_tune(ir, max_degree=3, top_k=1)
        schedule = fusion_schedule(result, 7)
        program_plan = schedule_to_program_plan(result, schedule)
        assert program_plan.total_time_steps() == 7
        inputs = allocate_inputs(ir)
        scalars = default_scalars(ir)
        ref = execute_reference(ir, inputs, scalars, time_iterations=7)
        got = execute_program_plan(ir, program_plan, inputs, scalars)
        assert np.array_equal(ref["out"], got["out"])
