"""Tests for resource assignment, rationing, and plan validation."""

import pytest

from repro.codegen import (
    InvalidPlan,
    KernelPlan,
    apply_occupancy_target,
    auto_assign,
    candidate_arrays,
    seed_plan_from_pragma,
    shmem_bytes_per_block,
    validate_plan,
)
from repro.dsl import parse
from repro.gpu import P100, get_device, occupancy
from repro.gpu.registers import compiled_registers
from repro.codegen.tiling import launch_geometry
from repro.ir import build_ir

MULTI_ARRAY_SRC = """
parameter N=320;
iterator k, j, i;
double u0[N,N,N], u1[N,N,N], u2[N,N,N], mu[N,N,N], la[N,N,N],
       out[N,N,N], strx[N];
copyin u0, u1, u2, mu, la, strx;
stencil rhs (out, u0, u1, u2, mu, la, strx) {
  r = mu[k][j][i+1] * u0[k][j][i+1] + mu[k][j][i-1] * u0[k][j][i-1];
  r += la[k][j][i+2] * u1[k][j][i+2] + la[k][j][i-2] * u1[k][j][i-2];
  r += u2[k+1][j][i] + u2[k-1][j][i] + u0[k][j+1][i] + u0[k][j-1][i];
  out[k][j][i] = strx[i] * r;
}
rhs (out, u0, u1, u2, mu, la, strx);
copyout out;
"""


def rationed_src(target):
    """``MULTI_ARRAY_SRC`` with every 3-D input assigned to shared memory
    at block (32, 32), asking for occupancy ``target``."""
    return MULTI_ARRAY_SRC.replace(
        "stencil rhs",
        f"#pragma stream k block (32,32) occupancy {target}\nstencil rhs",
    ).replace("{\n  r =", "{\n  #assign shmem (u0, u1, u2, mu, la)\n  r =")


@pytest.fixture
def multi_ir():
    return build_ir(parse(MULTI_ARRAY_SRC))


def _plan(ir, **kw):
    base = dict(
        kernel_names=(ir.kernels[0].name,),
        block=(16, 16),
        streaming="serial",
        stream_axis=0,
    )
    base.update(kw)
    return KernelPlan(**base)


class TestAutoAssign:
    def test_assigns_hot_arrays_to_shmem(self, multi_ir):
        result = auto_assign(multi_ir, _plan(multi_ir))
        placed = result.plan.placement_map
        # u0 has the most reads; it must be buffered.
        assert placed.get("u0") == "shmem"

    def test_lower_rank_stays_global(self, multi_ir):
        result = auto_assign(multi_ir, _plan(multi_ir))
        assert "strx" not in result.plan.placement_map
        assert any("strx" in note for note in result.notes)

    def test_respects_user_placements(self, multi_ir):
        plan = _plan(multi_ir, placements=(("mu", "gmem"), ("la", "gmem")))
        result = auto_assign(multi_ir, plan)
        placed = result.plan.placement_map
        assert placed["mu"] == "gmem" and placed["la"] == "gmem"

    def test_budget_respected(self, multi_ir):
        result = auto_assign(multi_ir, _plan(multi_ir, block=(32, 32)))
        assert (
            shmem_bytes_per_block(multi_ir, result.plan)
            <= P100.shared_mem_per_block
        )

    def test_candidates_ranked_by_reads(self, multi_ir):
        ranked = candidate_arrays(multi_ir, _plan(multi_ir))
        assert ranked[0] == "u0"


class TestOccupancyRationing:
    def _occupancy_of(self, ir, plan):
        geometry = launch_geometry(ir, plan)
        shmem = shmem_bytes_per_block(ir, plan)
        regs = compiled_registers(ir, plan)["compiled"]
        return occupancy(P100, geometry.threads_per_block, regs, shmem).occupancy

    def test_demotes_until_target(self, multi_ir):
        # Buffer everything, then demand an occupancy the full set of
        # buffers cannot reach.
        full = auto_assign(multi_ir, _plan(multi_ir, block=(32, 32))).plan
        before = self._occupancy_of(multi_ir, full)
        result = apply_occupancy_target(multi_ir, full, 0.5)
        after = self._occupancy_of(multi_ir, result.plan)
        assert after >= 0.5
        if before < 0.5:
            assert result.demoted

    def test_demotes_least_accessed_first(self, multi_ir):
        full = auto_assign(multi_ir, _plan(multi_ir, block=(32, 32))).plan
        result = apply_occupancy_target(multi_ir, full, 0.5)
        if result.demoted:
            # u0 (most-read) must survive longer than mu/la/u2.
            assert result.demoted[0] != "u0"

    def test_noop_when_target_met(self, multi_ir):
        plan = _plan(multi_ir)
        result = apply_occupancy_target(multi_ir, plan, 0.25)
        assert result.plan == plan and result.demoted == ()

    def test_invalid_target(self, multi_ir):
        with pytest.raises(ValueError):
            apply_occupancy_target(multi_ir, _plan(multi_ir), 1.5)


class TestValidatePlan:
    def test_valid_plan_passes(self, multi_ir):
        validate_plan(multi_ir, _plan(multi_ir))

    def test_unknown_kernel(self, multi_ir):
        with pytest.raises(InvalidPlan):
            validate_plan(multi_ir, _plan(multi_ir, kernel_names=("nope.0",)))

    def test_stream_axis_out_of_range(self, multi_ir):
        with pytest.raises(InvalidPlan):
            validate_plan(multi_ir, _plan(multi_ir, stream_axis=5))

    def test_register_placement_requires_star(self, multi_ir):
        # u0 is read at (k, j±1, i) and (k, j, i±1): star along k is fine,
        # but u2 at (k±1, j, i) is star too.  Build a box case instead:
        src = """
        parameter N=64;
        iterator k, j, i;
        double A[N,N,N], B[N,N,N];
        stencil s (B, A) {
          B[k][j][i] = A[k+1][j+1][i] + A[k-1][j][i];
        }
        s (B, A);
        """
        ir = build_ir(parse(src))
        plan = KernelPlan(
            kernel_names=("s.0",),
            block=(8, 8),
            streaming="serial",
            stream_axis=0,
            placements=(("A", "register"),),
        )
        with pytest.raises(InvalidPlan):
            validate_plan(ir, plan)

    def test_retime_requires_streaming(self, multi_ir):
        plan = _plan(multi_ir, streaming="none", block=(4, 8, 8), retime=True)
        with pytest.raises(InvalidPlan):
            validate_plan(multi_ir, plan)

    def test_retime_requires_homogenizable(self):
        src = """
        parameter N=64;
        iterator k, j, i;
        double A[N,N,N], B[N,N,N], C[N,N,N];
        stencil s (B, A, C) {
          B[k][j][i] = C[k+1][j][i] * A[k-1][j][i];
        }
        s (B, A, C);
        """
        ir = build_ir(parse(src))
        plan = KernelPlan(
            kernel_names=("s.0",),
            block=(8, 8),
            streaming="serial",
            stream_axis=0,
            retime=True,
        )
        with pytest.raises(InvalidPlan):
            validate_plan(ir, plan)


class TestSeedPlan:
    def test_pragma_seeds_plan(self, jacobi_ir):
        plan = seed_plan_from_pragma(jacobi_ir, jacobi_ir.kernels[0])
        assert plan.streaming == "serial"
        assert plan.stream_axis == 0
        assert plan.block == (32, 16)
        assert plan.unroll == (1, 2, 1)

    def test_defaults_without_pragma(self, multi_ir):
        plan = seed_plan_from_pragma(multi_ir, multi_ir.kernels[0])
        assert plan.streaming == "serial"
        assert plan.block == (16, 16)

    def test_assign_directive_flows_into_plan(self):
        src = """
        parameter N=64;
        iterator k, j, i;
        double A[N,N,N], B[N,N,N], C[N,N,N];
        stencil s (B, A, C) {
          #assign shmem (A), gmem (C)
          B[k][j][i] = A[k][j][i+1] + C[k][j][i-1];
        }
        s (B, A, C);
        """
        ir = build_ir(parse(src))
        plan = seed_plan_from_pragma(ir, ir.kernels[0])
        assert plan.placement_map == {"A": "shmem", "C": "gmem"}

    @pytest.mark.parametrize(
        "target, device, demoted",
        [
            (0.75, "P100", ("la", "mu")),
            (0.75, "V100", ()),
            (0.75, "A100", ()),
            (0.5, "MI100", ("la", "mu")),
            (0.5, "P100", ()),
        ],
    )
    def test_occupancy_pragma_rations_for_the_device(
        self, target, device, demoted
    ):
        ir = build_ir(parse(rationed_src(target)))
        plan = seed_plan_from_pragma(ir, ir.kernels[0], get_device(device))
        gmem = tuple(sorted(a for a, s in plan.placements if s == "gmem"))
        assert gmem == demoted
        assert len(plan.placements) == 5
