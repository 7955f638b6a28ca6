"""Tests for the Section IV-A advisor rules."""

import pytest

from repro.codegen import KernelPlan
from repro.dsl import parse
from repro.ir import build_ir
from repro.profiling import advise

ITERATIVE_SRC = """
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a;
copyin in, a;
iterate 12;
stencil s (B, A, a) {
  B[k][j][i] = a * (A[k][j][i+1] + A[k][j][i-1] + A[k+1][j][i]
    + A[k-1][j][i] + A[k][j][i]);
}
s (out, in, a);
copyout out;
"""


def _spatial_heavy_src():
    """A register-hungry spatial kernel (many temps, many arrays)."""
    arrays = ", ".join(f"u{n}[N,N,N]" for n in range(8))
    temps = []
    acc = []
    for n in range(8):
        temps.append(
            f"t{n} = u{n}[k][j][i+2]*u{n}[k][j][i-2] + u{n}[k][j+1][i]"
            f" + u{n}[k][j-1][i] + u{n}[k+2][j][i] + u{n}[k-2][j][i];"
        )
        acc.append(f"t{n}")
    body = "\n  ".join(temps)
    params = ", ".join(f"u{n}" for n in range(8))
    return f"""
    parameter N=320;
    iterator k, j, i;
    double {arrays}, out[N,N,N];
    copyin {params};
    stencil heavy (out, {params}) {{
      {body}
      out[k][j][i] = {' + '.join(acc)};
    }}
    heavy (out, {params});
    copyout out;
    """


class TestIterativeAdvice:
    def test_bandwidth_bound_iterative_explores_fusion(self):
        ir = build_ir(parse(ITERATIVE_SRC))
        plan = KernelPlan(
            kernel_names=("s.0",), block=(32, 16),
            streaming="serial", stream_axis=0,
            placements=(("in", "shmem"),),
        )
        advice = advise(ir, plan)
        assert advice.explore_higher_fusion
        assert advice.use_shared_memory

    def test_hints_are_textual(self):
        ir = build_ir(parse(ITERATIVE_SRC))
        plan = KernelPlan(
            kernel_names=("s.0",), block=(32, 16),
            streaming="serial", stream_axis=0,
        )
        advice = advise(ir, plan)
        assert all(isinstance(h, str) and h for h in advice.hints)


class TestSpatialAdvice:
    def test_register_pressure_disables_unrolling(self):
        ir = build_ir(parse(_spatial_heavy_src()))
        plan = KernelPlan(
            kernel_names=("heavy.0",), block=(16, 16),
            streaming="serial", stream_axis=0,
            placements=tuple((f"u{n}", "shmem") for n in range(8)),
            max_registers=32,
        )
        advice = advise(ir, plan)
        assert not advice.use_unrolling
        assert advice.explore_fission

    def test_texture_bound_spatial_uses_shared(self):
        ir = build_ir(parse(_spatial_heavy_src()))
        plan = KernelPlan(
            kernel_names=("heavy.0",), block=(16, 16),
            streaming="serial", stream_axis=0,
        )
        advice = advise(ir, plan)
        assert advice.use_shared_memory

    def test_suppressed_lists_disabled_families(self):
        ir = build_ir(parse(_spatial_heavy_src()))
        plan = KernelPlan(
            kernel_names=("heavy.0",), block=(16, 16),
            streaming="serial", stream_axis=0,
            placements=tuple((f"u{n}", "shmem") for n in range(8)),
            max_registers=32,
        )
        advice = advise(ir, plan)
        assert "loop unrolling" in advice.suppressed()


# --- synthetic bottleneck classes -----------------------------------------
#
# ``advise`` accepts an injected ``ProfileReport``, so each Section IV-A
# rule can be exercised against a hand-built counter set whose OIs land
# decisively on one side of the P100 ridge points (outside the 0.25
# ambiguity band, so no differencing simulations run).

SPATIAL_SRC = """
parameter N=256;
iterator k, j, i;
double in[N,N,N], out[N,N,N];
copyin in;
stencil s (B, A) {
  B[k][j][i] = A[k][j][i] + A[k][j][i+1] + A[k][j][i-1];
}
s (out, in);
copyout out;
"""


def _synthetic_report(
    plan,
    *,
    flops=1e9,
    dram_bytes=1e8,
    tex_bytes=1e8,
    shm_bytes=0.0,
    spill_bytes=0.0,
    occupancy=0.5,
    regs_per_thread=32,
    regs_demand=None,
):
    """A ProfileReport whose OIs are exactly flops / bytes per level."""
    from repro.gpu.counters import (
        KernelCounters,
        SimulationResult,
        TimingBreakdown,
    )
    from repro.gpu.occupancy import OccupancyResult
    from repro.profiling.nvprof import ProfileReport

    counters = KernelCounters(
        flops=flops,
        useful_flops=flops,
        dram_read_bytes=dram_bytes,
        dram_write_bytes=0.0,
        tex_bytes=tex_bytes,
        shm_bytes=shm_bytes,
        spill_bytes=spill_bytes,
        blocks=1024,
        threads_per_block=256,
        regs_per_thread=regs_per_thread,
        regs_demand=(
            regs_per_thread if regs_demand is None else regs_demand
        ),
        shmem_per_block=0,
        syncs=0.0,
    )
    occ = OccupancyResult(
        blocks_per_sm=4,
        active_warps=32,
        occupancy=occupancy,
        limiter="threads",
    )
    timing = TimingBreakdown(
        compute_s=1e-3, dram_s=1e-3, tex_s=1e-3, shm_s=1e-3,
        sync_s=0.0, latency_s=0.0, launch_s=0.0,
    )
    return ProfileReport(
        plan=plan,
        metrics={"elapsed_ms": 1.0},
        result=SimulationResult(
            counters=counters, occupancy=occ, timing=timing
        ),
    )


class TestSyntheticBottleneckClasses:
    """One test per bottleneck class, via injected reports."""

    @pytest.fixture(scope="class")
    def iterative_ir(self):
        return build_ir(parse(ITERATIVE_SRC))

    @pytest.fixture(scope="class")
    def spatial_ir(self):
        return build_ir(parse(SPATIAL_SRC))

    def _plan(self, ir):
        return KernelPlan(
            kernel_names=(ir.kernels[0].name + ".0",),
            block=(32, 8),
            streaming="serial",
            stream_axis=0,
        )

    def test_compute_bound_disables_shared_and_unrolling(self, spatial_ir):
        plan = self._plan(spatial_ir)
        # OI_dram = 10 >= 6.42, OI_tex = 10 >= 2.35, OI_shm = inf
        report = _synthetic_report(
            plan, flops=1e10, dram_bytes=1e9, tex_bytes=1e9
        )
        advice = advise(spatial_ir, plan, report=report)
        assert advice.bottleneck.bound_level == "compute"
        assert not advice.use_shared_memory
        assert not advice.use_unrolling
        assert advice.use_register_opts
        assert any("compute-bound" in h for h in advice.hints)

    def test_dram_bound_iterative_explores_fusion(self, iterative_ir):
        plan = self._plan(iterative_ir)
        # OI_dram = 1 << 6.42 * 0.75; tex and shm decisively compute
        report = _synthetic_report(
            plan, flops=1e9, dram_bytes=1e9, tex_bytes=1e8
        )
        advice = advise(iterative_ir, plan, report=report)
        assert advice.bottleneck.bound_level == "dram"
        assert advice.explore_higher_fusion
        assert any("fusion" in h for h in advice.hints)

    def test_tex_bound_spatial_enables_shared(self, spatial_ir):
        plan = self._plan(spatial_ir)
        # OI_tex = 1 << 2.35 * 0.75; dram decisively compute
        report = _synthetic_report(
            plan, flops=1e9, dram_bytes=1e8, tex_bytes=1e9
        )
        advice = advise(spatial_ir, plan, report=report)
        assert advice.bottleneck.bound_level == "tex"
        assert advice.use_shared_memory
        assert not advice.explore_higher_fusion  # spatial, not iterative
        assert any("texture" in h for h in advice.hints)

    def test_shm_bound_enables_register_opts(self, spatial_ir):
        plan = self._plan(spatial_ir)
        # OI_shm = 0.25 << 0.49 * 0.75; dram/tex decisively compute
        report = _synthetic_report(
            plan, flops=1e9, dram_bytes=1e8, tex_bytes=1e8, shm_bytes=4e9
        )
        advice = advise(spatial_ir, plan, report=report)
        assert advice.bottleneck.bound_level == "shm"
        assert advice.use_register_opts
        assert any("shared-memory bandwidth" in h for h in advice.hints)

    def test_latency_bound_at_low_occupancy(self, spatial_ir):
        plan = self._plan(spatial_ir)
        # compute-bound everywhere but occupancy below the latency floor
        report = _synthetic_report(
            plan, flops=1e10, dram_bytes=1e9, tex_bytes=1e9, occupancy=0.1
        )
        advice = advise(spatial_ir, plan, report=report)
        assert advice.bottleneck.bound_level == "latency"
        assert advice.bottleneck.latency_bound

    def test_register_spills_disable_unrolling(self, spatial_ir):
        plan = self._plan(spatial_ir)
        report = _synthetic_report(
            plan,
            flops=1e10,
            dram_bytes=1e9,
            tex_bytes=1e9,
            regs_per_thread=32,
            regs_demand=64,
        )
        advice = advise(spatial_ir, plan, report=report)
        assert not advice.use_unrolling
        assert advice.explore_fission
        assert any("register pressure" in h for h in advice.hints)

    def test_spill_pressure_ratio_without_hard_spills(self, spatial_ir):
        plan = self._plan(spatial_ir)
        # spill bytes are 5% of DRAM traffic: over SPILL_PRESSURE_RATIO
        # even though regs_demand == regs_per_thread
        report = _synthetic_report(
            plan, flops=1e10, dram_bytes=1e9, tex_bytes=1e9, spill_bytes=5e7
        )
        advice = advise(spatial_ir, plan, report=report)
        assert advice.explore_fission
        assert not advice.use_unrolling


def test_advice_prices_the_plan_once(monkeypatch, simulate_calls):
    # Code differencing reuses the profile the advisor just took: one
    # price of the plan, however many levels differencing resolves.
    import repro.profiling.advisor as advisor
    from repro.codegen.resources import auto_assign, seed_plan_from_pragma
    from repro.gpu import P100
    from repro.gpu.simulator import simulate
    from repro.suite import load_ir

    levels = []
    real = advisor.differencing_test

    def counting(ir, plan, level, *args, **kwargs):
        levels.append(level)
        return real(ir, plan, level, *args, **kwargs)

    monkeypatch.setattr(advisor, "differencing_test", counting)
    ir = load_ir("hypterm")
    plan = auto_assign(ir, seed_plan_from_pragma(ir, ir.kernels[0]), P100).plan
    simulate_calls()
    advice = advise(ir, plan, P100)
    assert simulate_calls() == 1
    assert len(levels) == 2  # an ambiguous level, then the DRAM re-check
    # Passing the profiled result changes no verdict.
    base = simulate(ir, plan, P100)
    for level in levels:
        assert real(ir, plan, level, P100, base=base) == real(
            ir, plan, level, P100
        )
    assert advice.hints
