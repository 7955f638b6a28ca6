"""Certification purity.

The certifier is a pure function of (IR, plan-family): every
evaluation context — certifying directly, the engine prescreen, a
memo-cache replay of the same family, even a process with a different
hash seed — must derive *byte-identical* diagnostics, and rejection
counters of a batch split across engines must sum to those of one
engine evaluating everything.
"""

import json
import os
import subprocess
import sys

from repro.codegen.plan import KernelPlan
from repro.dsl import parse
from repro.gpu.device import P100
from repro.gpu.simulator import PlanInfeasible
from repro.ir import build_ir
from repro.lint import certify_plan_transformations, check_plan, plan_rejection
from repro.obs import configure_metrics, get_metrics
from repro.tuning import PlanEvaluator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

PROGRAM = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k+1][j][i] = X[k][j][i] + X[k][j][i-1]; }
produce (T, A);
consume (B, T);
copyout B;
"""


def refuted_plan():
    return KernelPlan(("consume.0", "produce.0"), block=(32, 16))


def diagnostics_payload(diags):
    """Canonical bytes for a diagnostic list (what purity must preserve)."""
    return json.dumps(
        {
            "dicts": [d.as_dict() for d in diags],
            "renders": [d.render() for d in diags],
        },
        sort_keys=True,
    )


class TestDiagnosticPurity:
    def test_direct_prescreen_and_memo_views_agree(self):
        ir = build_ir(parse(PROGRAM))
        plan = refuted_plan()
        direct = diagnostics_payload(certify_plan_transformations(ir, plan))
        # The engine prescreen's rejection diagnostic.
        prescreen = diagnostics_payload([plan_rejection(ir, plan, P100)])
        # Memo-cache replay: the second probe of the same plan family
        # answers from the family memo, and must not drift.
        replay = diagnostics_payload([plan_rejection(ir, plan, P100)])
        assert direct == prescreen == replay

    def test_family_siblings_share_identical_diagnostics(self):
        # max_registers/block/unroll are structurally exempt: siblings
        # of one family must certify to the same bytes (modulo nothing).
        ir = build_ir(parse(PROGRAM))
        base = diagnostics_payload(
            certify_plan_transformations(ir, refuted_plan())
        )
        sibling = refuted_plan().replace(
            block=(16, 8), unroll=(1, 1, 2), max_registers=64
        )
        assert diagnostics_payload(
            certify_plan_transformations(ir, sibling)
        ) == base

    def test_byte_identical_across_hash_seeds(self):
        # The classic purity hazard: set-iteration order varying with
        # PYTHONHASHSEED.  Two processes with different seeds must
        # print the same certification bytes.
        script = (
            "import json, sys\n"
            "from repro.codegen.plan import KernelPlan\n"
            "from repro.dsl import parse\n"
            "from repro.ir import build_ir\n"
            "from repro.lint import certify_plan_transformations\n"
            f"ir = build_ir(parse({PROGRAM!r}))\n"
            "plan = KernelPlan(('consume.0', 'produce.0'), block=(32, 16))\n"
            "diags = certify_plan_transformations(ir, plan)\n"
            "print(json.dumps([d.as_dict() for d in diags], sort_keys=True))\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert "RL301" in outputs[0]

    def test_check_plan_report_is_stable_across_calls(self):
        ir = build_ir(parse(PROGRAM))
        plan = refuted_plan()
        first = check_plan(ir, plan, P100)
        second = check_plan(ir, plan, P100)
        assert diagnostics_payload(list(first)) == diagnostics_payload(
            list(second)
        )


class TestCounterParity:
    def _lint_counters(self, snapshot):
        return {
            name: data["value"]
            for name, data in snapshot.items()
            if name.startswith("lint.reject.")
        }

    def test_split_evaluation_counts_like_single(self):
        # A batch — refuted fused plans among feasible singles — split
        # across two engines must emit exactly the per-rule counters of
        # one engine evaluating everything.
        ir = build_ir(parse(PROGRAM))
        plans = [
            refuted_plan(),
            KernelPlan(("produce.0",), block=(32, 16)),
            refuted_plan().replace(block=(16, 8)),
            KernelPlan(("consume.0",), block=(32, 16)),
        ]

        def run(engines):
            configure_metrics(True, reset=True)
            try:
                for index, plan in enumerate(plans):
                    engine = engines[index % len(engines)]
                    engine.try_evaluate(ir, plan, catch=(PlanInfeasible,))
                counters = self._lint_counters(get_metrics().snapshot())
                stats = [
                    (e.stats.screened, e.stats.lint_rejections)
                    for e in engines
                ]
            finally:
                configure_metrics(False, reset=True)
            return counters, stats

        single_counters, single_stats = run([PlanEvaluator(device=P100)])
        split_counters, split_stats = run(
            [PlanEvaluator(device=P100), PlanEvaluator(device=P100)]
        )
        assert split_counters == single_counters
        assert single_counters.get("lint.reject.RL301") == 2
        # EvalStats invariant holds per engine: every screened
        # candidate is a counted lint rejection.
        for screened, lint_rejections in single_stats + split_stats:
            assert lint_rejections == screened
