"""The register model counts distinct reads on the frozen accesses.

``_expression_registers`` sizes a kernel's operand pressure by the
distinct array reads of each statement.  It hashes the frozen
:class:`~repro.dsl.ast.ArrayAccess` nodes instead of rendering them to
text; two accesses are equal exactly when they render the same, so the
counts must agree on every statement of every kernel a suite job
reaches: the parsed kernels, the fused ``maxfuse`` kernels and the
kernels fission splits off.
"""

import repro.gpu.registers as registers
from repro.dsl import parse
from repro.dsl.ast import array_accesses
from repro.gpu.device import get_device
from repro.ir import build_ir
from repro.pipeline import optimize
from repro.suite import BENCHMARKS
from repro.tuning.evaluator import PlanEvaluator


def test_distinct_reads_match_rendered_reads_on_every_suite_instance(
    monkeypatch,
):
    seen = []
    real = registers._expression_registers

    def checked(instance):
        for stmt in instance.statements:
            accesses = tuple(array_accesses(stmt.rhs))
            assert len(set(accesses)) == len({str(a) for a in accesses}), (
                instance.name,
                stmt,
            )
        seen.append(instance)
        return real(instance)

    monkeypatch.setattr(registers, "_expression_registers", checked)
    device = get_device("P100")
    parsed = set()
    for spec in BENCHMARKS.values():
        # A fresh IR per job: register pressure is memoized per instance.
        ir = build_ir(parse(spec.dsl()))
        parsed |= {instance.stencil_name for instance in ir.kernels}
        optimize(ir, device=device, evaluator=PlanEvaluator(device=device))

    stencils = {instance.stencil_name for instance in seen}
    assert parsed <= stencils
    assert "maxfuse" in stencils  # fused kernels
    assert any(name.startswith("rhs4sgcurv_") for name in stencils)  # fission
    assert sum(len(instance.statements) for instance in seen) > 116
