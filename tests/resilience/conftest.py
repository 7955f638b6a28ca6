"""Fixtures for the resilience/chaos test suite.

A reduced-domain Jacobi smoother keeps each full hierarchical tuning
run cheap enough that the crash/resume tests can afford several of them
(reference run, interrupted run, resumed run).
"""

import itertools

import pytest

from repro.codegen import seed_plan_from_pragma
from repro.dsl import parse
from repro.ir import build_ir
from repro.tuning import PlanEvaluator

from ..settle_hooks import trap_settle

SMOOTHER_SRC = """
parameter L=128, M=128, N=128;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin in, h2inv, a, b;
iterate 8;
#pragma stream k block (32,16)
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1] + A[k][j][i-1]
    + A[k][j+1][i] + A[k][j-1][i] + A[k+1][j][i] + A[k-1][j][i]
    - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
"""


@pytest.fixture(scope="module")
def smoother_ir():
    return build_ir(parse(SMOOTHER_SRC))


@pytest.fixture
def base_plan(smoother_ir):
    return seed_plan_from_pragma(smoother_ir, smoother_ir.kernels[0]).replace(
        placements=(("in", "shmem"),)
    )


@pytest.fixture
def crashing_engine():
    """Factory for an engine that raises on its Nth request.

    ``crashing_engine(n)`` returns a :class:`PlanEvaluator` whose
    ``n``-th request raises a plain ``RuntimeError`` as the engine's
    seam settles it — a bug planted in one candidate evaluation, which
    fail-fast turns into an :class:`EvaluationError` that ends the run,
    like a crash would.  The ``n - 1`` requests settled before it are
    counted and logged.
    """

    def make(request_number, **engine_kwargs):
        engine = PlanEvaluator(**engine_kwargs)
        seen = itertools.count(1)
        trap_settle(
            engine,
            "disposition",
            lambda family, disposition: disposition is not None
            and next(seen) == request_number,
            message=f"planted crash at request {request_number}",
        )
        return engine

    return make
