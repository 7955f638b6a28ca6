"""Tests for the analytical kernel simulator (counter + timing model)."""

import pytest

from repro.codegen.plan import KernelPlan
from repro.gpu import simulate
from repro.gpu.simulator import PlanInfeasible


def _plan(**kw):
    base = dict(
        kernel_names=("jacobi.0",),
        block=(32, 16),
        streaming="serial",
        stream_axis=0,
        placements=(("in", "shmem"),),
    )
    base.update(kw)
    return KernelPlan(**base)


class TestCounters:
    def test_useful_flops(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert result.counters.useful_flops == 11 * 512**3

    def test_recompute_grows_flops(self, jacobi_ir):
        single = simulate(jacobi_ir, _plan())
        fused = simulate(jacobi_ir, _plan(time_tile=2))
        # Fused launch does 2 applications, plus halo recomputation.
        assert fused.counters.flops > 2 * single.counters.flops
        assert fused.counters.useful_flops == 2 * single.counters.useful_flops

    def test_write_bytes(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert result.counters.dram_write_bytes == pytest.approx(512**3 * 8)

    def test_fusion_reduces_dram_per_step(self, jacobi_ir):
        single = simulate(jacobi_ir, _plan())
        fused = simulate(jacobi_ir, _plan(time_tile=3, block=(16, 16)))
        per_step_single = single.counters.dram_bytes
        per_step_fused = fused.counters.dram_bytes / 3
        assert per_step_fused < per_step_single * 0.6

    def test_oi_dram_rises_with_fusion(self, jacobi_ir):
        ois = []
        for t in (1, 2, 3):
            result = simulate(jacobi_ir, _plan(time_tile=t, block=(16, 16)))
            ois.append(result.counters.oi("dram"))
        assert ois[0] < ois[1] < ois[2]

    def test_shmem_version_has_shm_traffic(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert result.counters.shm_bytes > 0

    def test_gmem_version_no_shm_traffic(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan(placements=()))
        assert result.counters.shm_bytes == 0
        assert result.counters.shmem_per_block == 0

    def test_gmem_has_more_tex_traffic(self, jacobi_ir):
        shm = simulate(jacobi_ir, _plan())
        gmem = simulate(jacobi_ir, _plan(placements=()))
        assert gmem.counters.tex_bytes > shm.counters.tex_bytes

    def test_no_spills_for_simple_stencil(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert not result.counters.has_spills
        assert result.counters.spill_bytes == 0

    def test_spills_when_register_capped(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan(max_registers=16))
        assert result.counters.has_spills
        assert result.counters.spill_bytes > 0

    def test_sync_counted_only_with_shmem(self, jacobi_ir):
        shm = simulate(jacobi_ir, _plan())
        gmem = simulate(jacobi_ir, _plan(placements=()))
        assert shm.counters.syncs > 0
        assert gmem.counters.syncs == 0


class TestTiming:
    def test_positive_time(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert result.time_ms > 0
        assert 0 < result.tflops < 4.7

    def test_bandwidth_bound_baseline(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert result.timing.bound_resource in ("dram", "tex")

    def test_fusion_improves_bandwidth_bound_stencil(self, jacobi_ir):
        t1 = simulate(jacobi_ir, _plan())
        t3 = simulate(jacobi_ir, _plan(time_tile=3, block=(32, 32)))
        assert t3.tflops > t1.tflops

    def test_deterministic(self, jacobi_ir):
        a = simulate(jacobi_ir, _plan())
        b = simulate(jacobi_ir, _plan())
        assert a.time_s == b.time_s
        assert a.counters == b.counters

    def test_total_includes_launch_overhead(self, jacobi_ir):
        result = simulate(jacobi_ir, _plan())
        assert result.timing.total_s >= result.timing.launch_s


class TestStreamingModes:
    def test_global_stream_worse_than_global(self, jacobi_ir):
        """Paper §VIII-F: streaming without shared memory hurts DRAM
        locality and loses to plain 3D tiling."""
        gstream = simulate(
            jacobi_ir, _plan(placements=(), streaming="serial")
        )
        gtiled = simulate(
            jacobi_ir,
            _plan(placements=(), streaming="none", block=(4, 16, 16)),
        )
        assert gstream.counters.dram_read_bytes > gtiled.counters.dram_read_bytes

    def test_concurrent_streaming_increases_blocks(self, jacobi_ir):
        serial = simulate(jacobi_ir, _plan())
        conc = simulate(
            jacobi_ir, _plan(streaming="concurrent", concurrent_chunks=4)
        )
        assert conc.counters.blocks == 4 * serial.counters.blocks

    def test_concurrent_streaming_loads_overlap(self, jacobi_ir):
        serial = simulate(jacobi_ir, _plan())
        conc = simulate(
            jacobi_ir, _plan(streaming="concurrent", concurrent_chunks=4)
        )
        # Chunked sweeps reload halo planes at chunk seams.
        assert conc.counters.tex_bytes > serial.counters.tex_bytes


class TestPerspectives:
    def test_mixed_reduces_tex_vs_output(self, jacobi_ir):
        out = simulate(jacobi_ir, _plan(perspective="output"))
        mixed = simulate(jacobi_ir, _plan(perspective="mixed"))
        assert mixed.counters.tex_bytes < out.counters.tex_bytes

    def test_input_perspective_more_threads(self, jacobi_ir):
        out = simulate(jacobi_ir, _plan(perspective="output"))
        inp = simulate(jacobi_ir, _plan(perspective="input"))
        assert inp.counters.threads_per_block > out.counters.threads_per_block


class TestUnrollAndPrefetch:
    def test_unroll_raises_register_use(self, jacobi_ir):
        base = simulate(jacobi_ir, _plan())
        unrolled = simulate(jacobi_ir, _plan(unroll=(1, 2, 2)))
        assert unrolled.counters.regs_per_thread > base.counters.regs_per_thread

    def test_blocked_unroll_reduces_gmem_loads(self, jacobi_ir):
        base = simulate(jacobi_ir, _plan(placements=()))
        unrolled = simulate(
            jacobi_ir, _plan(placements=(), unroll=(1, 1, 4))
        )
        # Loads per launch: unrolled covers same domain with fewer loads.
        assert unrolled.counters.tex_bytes < base.counters.tex_bytes

    def test_cyclic_unroll_no_load_reuse(self, jacobi_ir):
        blocked = simulate(
            jacobi_ir, _plan(placements=(), unroll=(1, 1, 4))
        )
        cyclic = simulate(
            jacobi_ir,
            _plan(placements=(), unroll=(1, 1, 4), unroll_blocked=False),
        )
        assert cyclic.counters.tex_bytes > blocked.counters.tex_bytes

    def test_prefetch_adds_register(self, jacobi_ir):
        base = simulate(jacobi_ir, _plan())
        pref = simulate(jacobi_ir, _plan(prefetch=True))
        assert pref.counters.regs_per_thread >= base.counters.regs_per_thread


class TestInfeasible:
    def test_oversized_block(self, jacobi_ir):
        with pytest.raises(PlanInfeasible):
            simulate(jacobi_ir, _plan(block=(64, 64)))

    def test_shmem_explosion(self, jacobi_ir):
        # time_tile 8 at 32x32 needs more than 48KB of shared memory.
        with pytest.raises(PlanInfeasible):
            simulate(jacobi_ir, _plan(time_tile=8, block=(32, 32)))


class TestOneLane:
    def test_refused_lane_raises_the_occupancy_screen(self, jacobi_ir):
        # A lane the model refuses raises plan_occupancy's exception:
        # same message, same context.
        from repro.gpu.simulator import plan_occupancy

        plan = _plan(block=(64, 64))
        with pytest.raises(PlanInfeasible) as screen:
            plan_occupancy(jacobi_ir, plan)
        with pytest.raises(PlanInfeasible) as info:
            simulate(jacobi_ir, plan)
        assert str(info.value) == str(screen.value)
        assert info.value.context == screen.value.context

    def test_model_bug_names_the_plan(self, jacobi_ir, monkeypatch):
        from repro.gpu.pricing import FamilyStructure
        from repro.resilience import EvaluationError

        def broken(*args, **kwargs):
            raise RuntimeError("model bug")

        monkeypatch.setattr(FamilyStructure, "_price", broken)
        plan = _plan()
        with pytest.raises(EvaluationError) as info:
            simulate(jacobi_ir, plan)
        assert info.value.exit_code == 4
        assert info.value.context == {
            "plan": plan.describe(), "phase": "simulate"
        }
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_each_call_counts_once(self, jacobi_ir, simulate_calls):
        # ``simulate.calls`` is the one count of the plans priced
        # outside the evaluation engine, refused ones included.
        simulate(jacobi_ir, _plan())
        with pytest.raises(PlanInfeasible):
            simulate(jacobi_ir, _plan(block=(64, 64)))
        assert simulate_calls() == 2
