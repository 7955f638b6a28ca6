"""Adversarial tests for the transformation certifier (RL3xx).

Every refutation the certifier emits must rest on a *live* witness: the
tests replay each one through the instrumented reference executor and
assert the two events really hold different values.  RL301 additionally
gets an end-to-end check — the refuted stage order executes to output
that diverges from the reference — because mis-ordered fusion is the
one refuted shape the block-tiled executor will actually run.
"""

import numpy as np
import pytest

from repro.codegen.plan import KernelPlan
from repro.dsl import parse
from repro.gpu.device import P100
from repro.gpu.executor import allocate_inputs, execute_plan, execute_reference
from repro.gpu.simulator import PlanInfeasible
from repro.ir import build_ir
from repro.lint import (
    certify_plan_transformations,
    check_plan,
    plan_rejection,
    replay_witness,
)
from repro.obs import configure_metrics, get_metrics
from repro.tuning import PlanEvaluator


def ir_of(src):
    return build_ir(parse(src))


def certified_errors(ir, plan):
    findings = certify_plan_transformations(ir, plan)
    assert all(d.severity == "error" for d in findings)
    return findings


def assert_live_witness(ir, diag):
    """Every RL3xx error must carry a witness that replays to divergence."""
    assert diag.witness is not None, f"{diag.code} carries no witness"
    replay = replay_witness(ir, diag.witness)
    assert replay.diverged, (
        f"{diag.code} witness is vacuous: both events hold "
        f"{replay.required_value}"
    )
    return replay


PRODUCER_CONSUMER = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k+1][j][i] + X[k][j][i]; }
produce (T, A);
consume (B, T);
copyout B;
"""

ITERATIVE_PAIR = """
parameter N=32;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
iterate 2;
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k][j][i] * 0.5; }
produce (T, A);
consume (B, T);
copyout B;
"""

NO_PINGPONG = """
parameter N=32;
iterator k, j, i;
double A[N,N,N], T[N,N,N], U[N,N,N];
iterate 3;
copyin A, U;
stencil fill (Y, X) { Y[k][j][i] = X[k][j][i]; }
stencil relax (Y) { Y[k][j][i] = Y[k][j][i] * 0.5; }
fill (T, A);
relax (U);
copyout U;
"""

SKEWED = """
parameter N=32;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil fill (Y, X) { Y[k][j][i] = X[k][j][i]; }
stencil skew (Y, X) { Y[k][j][i] = X[k-j][j][i]; }
fill (T, A);
skew (B, T);
copyout B;
"""

INDEPENDENT = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], P[N,N,N], Q[N,N,N];
copyin A;
stencil left (Y, X) { Y[k][j][i] = X[k][j][i] + 1.0; }
stencil right (Y, X) { Y[k][j][i] = X[k][j][i] - 1.0; }
left (P, A);
right (Q, A);
copyout P, Q;
"""


class TestRL301IllegalFusion:
    def test_reversed_order_is_refuted_with_live_witness(self):
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("consume.0", "produce.0"), block=(32, 16))
        findings = certified_errors(ir, plan)
        assert [d.code for d in findings] == ["RL301"]
        assert_live_witness(ir, findings[0])

    def test_refuted_order_actually_diverges_when_executed(self):
        # End to end: the mis-ordered launch computes the wrong answer.
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("consume.0", "produce.0"), block=(32, 16))
        inputs = allocate_inputs(ir)
        reference = execute_reference(ir, inputs)
        broken = execute_plan(ir, plan, inputs)
        assert not np.array_equal(broken["B"], reference["B"])

    def test_certified_order_matches_reference(self):
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("produce.0", "consume.0"), block=(32, 16))
        assert certify_plan_transformations(ir, plan) == []
        inputs = allocate_inputs(ir)
        reference = execute_reference(ir, inputs)
        fused = execute_plan(ir, plan, inputs)
        assert np.array_equal(fused["B"], reference["B"])

    def test_interposed_kernel_is_refuted(self):
        ir = ir_of(
            """
            parameter N=64;
            iterator k, j, i;
            double A[N,N,N], T[N,N,N], U[N,N,N], B[N,N,N];
            copyin A;
            stencil step (Y, X) { Y[k][j][i] = X[k][j][i] + 1.0; }
            step (T, A);
            step (U, T);
            step (B, U);
            copyout B;
            """
        )
        plan = KernelPlan(("step.0", "step.2"), block=(32, 16))
        findings = certified_errors(ir, plan)
        assert [d.code for d in findings] == ["RL301"]
        assert "step.1" in findings[0].message
        assert_live_witness(ir, findings[0])

    def test_unknown_kernels_are_not_certified(self):
        # RL204's territory: certification must not guess.
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("ghost.0", "produce.0"), block=(32, 16))
        assert certify_plan_transformations(ir, plan) == []


class TestRL302IllegalTimeTile:
    def test_multi_kernel_time_tile_is_refuted(self):
        ir = ir_of(ITERATIVE_PAIR)
        plan = KernelPlan(
            ("produce.0", "consume.0"), block=(32, 16), time_tile=2
        )
        findings = certified_errors(ir, plan)
        assert [d.code for d in findings] == ["RL302"]
        assert_live_witness(ir, findings[0])

    def test_kernel_without_pingpong_is_refuted(self):
        ir = ir_of(NO_PINGPONG)
        plan = KernelPlan(("relax.0",), block=(32, 16), time_tile=2)
        findings = certified_errors(ir, plan)
        assert [d.code for d in findings] == ["RL302"]
        assert_live_witness(ir, findings[0])

    def test_priceable_time_tile_is_certified(self, smoother_ir):
        # Anything the pricing model prices, the certifier accepts.
        plan = KernelPlan(
            (smoother_ir.kernels[0].name,), block=(32, 16), time_tile=2
        )
        assert certify_plan_transformations(smoother_ir, plan) == []

    def test_non_iterative_time_tile_is_rl207_territory(self, hypterm_ir):
        plan = KernelPlan(
            (hypterm_ir.kernels[0].name,), block=(32, 16), time_tile=2
        )
        assert certify_plan_transformations(hypterm_ir, plan) == []


class TestRL303IllegalStream:
    def _race_plan(self):
        return KernelPlan(
            ("produce.0", "consume.0"),
            block=(32, 16),
            streaming="concurrent",
            stream_axis=0,
            concurrent_chunks=2,
        )

    def test_chunked_flow_distance_is_refuted(self):
        ir = ir_of(PRODUCER_CONSUMER)
        findings = certified_errors(ir, self._race_plan())
        assert [d.code for d in findings] == ["RL303"]
        assert_live_witness(ir, findings[0])

    def test_witness_sits_on_the_chunk_boundary(self):
        ir = ir_of(PRODUCER_CONSUMER)
        findings = certified_errors(ir, self._race_plan())
        witness = findings[0].witness
        assert witness.point[0] == 64 // 2  # extent // chunks

    def test_zero_distance_flow_streams_clean(self):
        ir = ir_of(ITERATIVE_PAIR)  # consume reads T only at the centre
        plan = KernelPlan(
            ("produce.0", "consume.0"),
            block=(32, 16),
            streaming="concurrent",
            stream_axis=0,
            concurrent_chunks=2,
        )
        assert certify_plan_transformations(ir, plan) == []

    def test_serial_streaming_is_not_refuted(self):
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(
            ("produce.0", "consume.0"),
            block=(32, 16),
            streaming="serial",
            stream_axis=0,
        )
        assert certify_plan_transformations(ir, plan) == []


class TestRL304RetimingViolation:
    def test_skewed_flow_refutes_retiming(self):
        ir = ir_of(SKEWED)
        plan = KernelPlan(
            ("fill.0", "skew.0"),
            block=(32, 16),
            streaming="serial",
            stream_axis=0,
            retime=True,
        )
        findings = certified_errors(ir, plan)
        assert [d.code for d in findings] == ["RL304"]
        assert_live_witness(ir, findings[0])

    def test_uniform_flow_retimes_clean(self):
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(
            ("produce.0", "consume.0"),
            block=(32, 16),
            streaming="serial",
            stream_axis=0,
            retime=True,
        )
        assert certify_plan_transformations(ir, plan) == []


class TestRL305FusionUnprofitable:
    def test_independent_fusion_gets_an_advisory(self):
        ir = ir_of(INDEPENDENT)
        plan = KernelPlan(("left.0", "right.0"), block=(32, 16))
        report = check_plan(ir, plan, P100)
        assert "RL305" in report.codes()
        rl305 = [d for d in report if d.code == "RL305"]
        assert all(d.severity == "info" for d in rl305)
        # Advisories never reject.
        assert plan_rejection(ir, plan, P100) is None

    def test_dependent_fusion_is_silent(self):
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("produce.0", "consume.0"), block=(32, 16))
        report = check_plan(ir, plan, P100)
        assert "RL305" not in report.codes()


class TestEnginePrescreen:
    @pytest.mark.parametrize("lanes", [1, 4])
    def test_evaluator_rejects_with_rule_and_witness_context(self, lanes):
        ir = ir_of(PRODUCER_CONSUMER)
        engine = PlanEvaluator(device=P100)
        doomed = KernelPlan(("consume.0", "produce.0"), block=(32, 16))
        # The refusal is reached once for a whole structural family and
        # memoized for each lane; re-requesting the plan raises it.
        blocks = [(32, 16), (16, 16), (32, 8), (64, 4)][:lanes]
        engine.evaluate_batch(ir, [doomed.replace(block=b) for b in blocks])
        with pytest.raises(PlanInfeasible) as excinfo:
            engine.evaluate(ir, doomed)
        assert "[RL301]" in str(excinfo.value)
        assert getattr(excinfo.value, "context", {}).get("rule") == "RL301"
        # The refutation's counterexample rides along in the exception
        # context so batch telemetry can explain the rejection.
        witness = excinfo.value.context.get("witness")
        assert witness is not None and "T" in witness

    def test_lint_rejections_track_screened(self):
        ir = ir_of(PRODUCER_CONSUMER)
        engine = PlanEvaluator(device=P100)
        engine.try_evaluate(
            ir,
            KernelPlan(("consume.0", "produce.0"), block=(32, 16)),
            catch=(PlanInfeasible,),
        )
        assert engine.stats.screened == 1
        assert engine.stats.lint_rejections == engine.stats.screened

    def test_rejection_counter_emitted(self):
        ir = ir_of(PRODUCER_CONSUMER)
        configure_metrics(reset=True)
        engine = PlanEvaluator(device=P100)
        engine.try_evaluate(
            ir,
            KernelPlan(("consume.0", "produce.0"), block=(32, 16)),
            catch=(PlanInfeasible,),
        )
        snap = get_metrics().snapshot()
        assert snap["lint.reject.RL301"] == 1


class TestWitnessSerialization:
    def test_diagnostic_dict_and_sarif_carry_the_witness(self):
        from repro.lint import sarif_log

        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("consume.0", "produce.0"), block=(32, 16))
        report = check_plan(ir, plan, P100)
        diag = next(d for d in report if d.code == "RL301")
        payload = diag.as_dict()["witness"]
        assert payload["array"] == "T"
        assert payload["source"] == "produce.0"
        assert payload["kind"] == "flow"
        log = sarif_log([report])
        results = log["runs"][0]["results"]
        certified = [
            r for r in results if r["ruleId"] == "RL301"
        ]
        assert certified
        assert certified[0]["properties"]["witness"]["array"] == "T"

    def test_witness_replay_round_trips_to_dict(self):
        ir = ir_of(PRODUCER_CONSUMER)
        plan = KernelPlan(("consume.0", "produce.0"), block=(32, 16))
        diag = certify_plan_transformations(ir, plan)[0]
        replay = replay_witness(ir, diag.witness)
        payload = replay.as_dict()
        assert payload["diverged"] is True
        assert payload["required_value"] != payload["observed_value"]
