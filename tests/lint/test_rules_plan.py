"""Adversarial tests for the plan rules (RL2xx).

``check_plan`` runs the full catalog; ``plan_rejection`` is the
evaluation engine's prescreen and must honour the identity contract —
it may only reject plans the direct ``validate_plan`` + ``simulate``
path also refuses (structural RL204, the RL3xx certifier and the
occupancy rules), never the catalog-only shape rules (RL207/RL209) or
advisories.
"""

import pytest

from repro.codegen.plan import KernelPlan
from repro.dsl import parse
from repro.gpu.device import P100
from repro.ir import build_ir
from repro.lint import check_plan, classify_occupancy_failure, plan_rejection


def single_kernel_plan(ir, **kwargs):
    return KernelPlan((ir.kernels[0].name,), **kwargs)


class TestRL201ShmemCapacity:
    def test_oversized_shmem_tile_fires(self, smoother_ir):
        plan = single_kernel_plan(
            smoother_ir,
            block=(32, 32),
            unroll=(1, 4, 4),
            placements=(("in", "shmem"),),
        )
        report = check_plan(smoother_ir, plan, P100)
        assert "RL201" in report.codes()
        assert report.has_errors

    def test_engine_rejects_it_too(self, smoother_ir):
        plan = single_kernel_plan(
            smoother_ir,
            block=(32, 32),
            unroll=(1, 4, 4),
            placements=(("in", "shmem"),),
        )
        rejection = plan_rejection(smoother_ir, plan, P100)
        assert rejection is not None and rejection.code == "RL201"


class TestRL202ThreadLimit:
    def test_block_over_device_limit_fires(self, smoother_ir):
        plan = single_kernel_plan(smoother_ir, block=(64, 64))
        report = check_plan(smoother_ir, plan, P100)
        assert "RL202" in report.codes()
        rejection = plan_rejection(smoother_ir, plan, P100)
        assert rejection is not None and rejection.code == "RL202"


class TestRL203RegisterFile:
    def test_register_hungry_kernel_fires(self, rhs4sgcurv_ir):
        plan = single_kernel_plan(rhs4sgcurv_ir, block=(32, 32))
        report = check_plan(rhs4sgcurv_ir, plan, P100)
        assert "RL203" in report.codes()
        rejection = plan_rejection(rhs4sgcurv_ir, plan, P100)
        assert rejection is not None and rejection.code == "RL203"


class TestRL204PlanInvalid:
    def test_unknown_kernel_fires(self, smoother_ir):
        plan = KernelPlan(("no-such-kernel",), block=(32, 16))
        report = check_plan(smoother_ir, plan, P100)
        assert report.codes() == ("RL204",)
        rejection = plan_rejection(
            smoother_ir, plan, P100, assume_validated=False
        )
        assert rejection is not None and rejection.code == "RL204"


class TestRL205Overtile:
    def _overtiled(self, ir):
        # Streaming along k leaves (j, i) tiled; 128 threads x 8 unroll
        # is a 1024-point tile on the 512-point innermost axis.  This is
        # the shape the hierarchical tuner actually wins with, so it
        # must stay feasible (the model prices overtiled plans).
        return single_kernel_plan(
            ir,
            block=(4, 128),
            streaming="serial",
            stream_axis=0,
            unroll=(1, 1, 8),
        )

    def test_tile_past_domain_warns(self, smoother_ir):
        report = check_plan(smoother_ir, self._overtiled(smoother_ir), P100)
        assert "RL205" in report.codes()
        assert not report.has_errors

    def test_advisories_never_reject(self, smoother_ir):
        plan = self._overtiled(smoother_ir)
        assert plan_rejection(smoother_ir, plan, P100) is None


TWO_KERNEL_SRC = """
parameter N=256;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k+1][j][i] + X[k][j][i]; }
produce (T, A);
consume (B, T);
copyout B;
"""


@pytest.fixture(scope="module")
def two_kernel_ir():
    return build_ir(parse(TWO_KERNEL_SRC))


class TestFusionOrder:
    """Fusion legality is the dependence certifier's (RL3xx): it refutes
    a mis-ordered or chunk-racing fusion with a witness."""

    def test_consumer_before_producer_fires_as_rl301(self, two_kernel_ir):
        names = tuple(k.name for k in two_kernel_ir.kernels)
        plan = KernelPlan(tuple(reversed(names)), block=(32, 16))
        report = check_plan(two_kernel_ir, plan, P100)
        assert "RL301" in report.codes()
        rejection = plan_rejection(two_kernel_ir, plan, P100)
        assert rejection is not None and rejection.code == "RL301"
        assert rejection.witness is not None

    def test_concurrent_chunks_racing_a_flow_fire_as_rl303(
        self, two_kernel_ir
    ):
        # A DAG-consistent fusion whose concurrent chunks race the
        # k-axis flow distance (-1) is refuted too.
        names = tuple(k.name for k in two_kernel_ir.kernels)
        plan = KernelPlan(
            names,
            block=(32, 16),
            streaming="concurrent",
            stream_axis=0,
            concurrent_chunks=2,
        )
        report = check_plan(two_kernel_ir, plan, P100)
        assert "RL303" in report.codes()
        rejection = plan_rejection(two_kernel_ir, plan, P100)
        assert rejection is not None and rejection.code == "RL303"
        assert rejection.witness is not None

    def test_dag_order_is_clean(self, two_kernel_ir):
        names = tuple(k.name for k in two_kernel_ir.kernels)
        plan = KernelPlan(names, block=(32, 16))
        report = check_plan(two_kernel_ir, plan, P100)
        assert "RL301" not in report.codes()


class TestRL207TimeTileNonIterative:
    def test_time_tiling_a_single_sweep_fires(self, hypterm_ir):
        plan = single_kernel_plan(hypterm_ir, block=(32, 16), time_tile=2)
        report = check_plan(hypterm_ir, plan, P100)
        assert "RL207" in report.codes()

    def test_catalog_only_engine_accepts(self, hypterm_ir):
        # Identity contract: the pricing model prices this shape, so the
        # engine prescreen must not reject it.
        plan = single_kernel_plan(hypterm_ir, block=(32, 16), time_tile=2)
        rejection = plan_rejection(hypterm_ir, plan, P100)
        assert rejection is None or rejection.code != "RL207"

    def test_time_tiling_an_iterative_program_is_clean(self, smoother_ir):
        plan = single_kernel_plan(smoother_ir, block=(32, 16), time_tile=2)
        report = check_plan(smoother_ir, plan, P100)
        assert "RL207" not in report.codes()


class TestRL208UnrollIndivisible:
    def test_remainder_tile_warns(self, smoother_ir):
        # 32 threads x 3 unroll = 96, which does not divide 512.
        plan = single_kernel_plan(
            smoother_ir, block=(32, 16), unroll=(1, 1, 3)
        )
        report = check_plan(smoother_ir, plan, P100)
        assert "RL208" in report.codes()
        assert plan_rejection(smoother_ir, plan, P100) is None

    def test_divisible_tile_is_clean(self, smoother_ir):
        plan = single_kernel_plan(
            smoother_ir, block=(32, 16), unroll=(1, 1, 4)
        )
        assert "RL208" not in check_plan(smoother_ir, plan, P100).codes()


class TestRL209StreamAxisUnroll:
    def test_unrolled_sweep_axis_fires(self, smoother_ir):
        plan = single_kernel_plan(
            smoother_ir,
            block=(32, 16),
            streaming="serial",
            stream_axis=0,
            unroll=(2, 1, 1),
        )
        report = check_plan(smoother_ir, plan, P100)
        assert "RL209" in report.codes()

    def test_catalog_only_engine_accepts(self, smoother_ir):
        plan = single_kernel_plan(
            smoother_ir,
            block=(32, 16),
            streaming="serial",
            stream_axis=0,
            unroll=(2, 1, 1),
        )
        rejection = plan_rejection(smoother_ir, plan, P100)
        assert rejection is None or rejection.code != "RL209"


class TestRL210StreamLookahead:
    def test_fused_consumer_reading_ahead_notes(self, two_kernel_ir):
        names = tuple(k.name for k in two_kernel_ir.kernels)
        plan = KernelPlan(
            names, block=(32, 16), streaming="serial", stream_axis=0
        )
        report = check_plan(two_kernel_ir, plan, P100)
        assert "RL210" in report.codes()
        # Info only: never rejects.
        assert not any(d.severity == "error" for d in report if d.code == "RL210")

    def test_unfused_plan_has_no_lookahead(self, two_kernel_ir):
        plan = KernelPlan(
            (two_kernel_ir.kernels[0].name,),
            block=(32, 16),
            streaming="serial",
            stream_axis=0,
        )
        assert "RL210" not in check_plan(two_kernel_ir, plan, P100).codes()


class TestClassifyOccupancyFailure:
    class _Err(Exception):
        def __init__(self, context=None):
            super().__init__("boom")
            self.context = context or {}

    def test_thread_context(self):
        assert classify_occupancy_failure(self._Err({"threads": 4096})) == "RL202"

    def test_shmem_context(self):
        exc = self._Err({"shmem_bytes": 1 << 20})
        assert classify_occupancy_failure(exc) == "RL201"

    def test_register_context(self):
        exc = self._Err({"registers": 400})
        assert classify_occupancy_failure(exc) == "RL203"

    def test_limiter_shmem(self):
        assert classify_occupancy_failure(self._Err({"limiter": "shmem"})) == "RL201"

    def test_limiter_registers(self):
        exc = self._Err({"limiter": "registers"})
        assert classify_occupancy_failure(exc) == "RL203"

    def test_wrapped_cause_context(self):
        outer = RuntimeError("wrapper")
        outer.__cause__ = self._Err({"shmem_bytes": 99})
        assert classify_occupancy_failure(outer) == "RL201"

    def test_unknown_defaults_to_geometry(self):
        assert classify_occupancy_failure(RuntimeError("???")) == "RL202"

    def test_every_plan_code_is_registered(self):
        from repro.lint import RULES

        for code in ("RL201", "RL202", "RL203"):
            assert code in RULES


class TestPlanReportShape:
    def test_artifact_names_the_kernels(self, smoother_ir):
        plan = single_kernel_plan(smoother_ir, block=(64, 64))
        report = check_plan(smoother_ir, plan, P100)
        assert report.artifact.startswith("plan(")
        for d in report:
            assert d.artifact == report.artifact

    def test_clean_plan_is_silent(self, smoother_ir):
        plan = single_kernel_plan(smoother_ir, block=(32, 16))
        report = check_plan(smoother_ir, plan, P100)
        assert report.codes() == ()
        assert plan_rejection(smoother_ir, plan, P100) is None
