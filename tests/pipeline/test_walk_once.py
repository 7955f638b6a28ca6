"""Each expression node is walked at most once per tuning job.

``array_accesses`` and ``scalar_names`` read one ``(accesses, names)``
pair that a single ``walk`` computes on first use and pins on the frozen
node.  The validator, the dependence DAG, the analyses, the register
model, fission and the CUDA emitter all ask for the same statements, so
without the pinned pair a complex kernel's trees are re-walked
thousands of times per job.  ``rhs4sgcurv`` on P100 takes the fission
path, which asks the most.
"""

import repro.dsl.ast as dsl_ast
from repro.codegen.cuda_emitter import emit_cuda
from repro.dsl import parse
from repro.gpu.device import get_device
from repro.ir import build_ir
from repro.pipeline import optimize
from repro.suite import BENCHMARKS
from repro.tuning.evaluator import PlanEvaluator


def test_rhs4sgcurv_job_walks_no_node_twice(monkeypatch):
    walked = []  # every node any walk yielded, kept alive so ids stay unique
    roots = []
    queried = {}  # id -> node passed to array_accesses / scalar_names
    real_walk, real_refs = dsl_ast.walk, dsl_ast._refs

    def counting_walk(expr):
        roots.append(expr)
        for node in real_walk(expr):
            walked.append(node)
            yield node

    def recording_refs(expr):
        queried[id(expr)] = expr
        return real_refs(expr)

    monkeypatch.setattr(dsl_ast, "walk", counting_walk)
    monkeypatch.setattr(dsl_ast, "_refs", recording_refs)

    device = get_device("P100")
    ir = build_ir(parse(BENCHMARKS["rhs4sgcurv"].dsl()))
    outcome = optimize(ir, device=device, evaluator=PlanEvaluator(device=device))
    for plan in outcome.schedule.plans:
        emit_cuda(outcome.ir, plan)

    def interior(nodes):
        kinds = (dsl_ast.BinOp, dsl_ast.UnaryOp, dsl_ast.Call)
        return [node for node in nodes if isinstance(node, kinds)]

    assert len(outcome.ir.kernels) > 1  # the fission path ran
    # Leaves may be shared: the IR passes rebuild trees around the same
    # immutable ``Num`` leaves.  Interior nodes are never shared, and
    # none may be walked twice.
    walked_interior = interior(walked)
    assert walked_interior
    assert len(walked_interior) == len({id(node) for node in walked_interior})
    # One walk per distinct interior node asked for; leaves answer directly.
    assert len(roots) == len(interior(queried.values()))
