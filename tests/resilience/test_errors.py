"""The unified exception taxonomy: hierarchy, context, exit codes."""

import pytest

from repro.codegen.resources import InvalidPlan
from repro.dsl.errors import DSLError, LexError, ParseError, ValidationError
from repro.gpu.simulator import PlanInfeasible
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointError,
    EvaluationError,
    FailureBudgetExceeded,
    InfeasiblePlanError,
    InjectedFault,
    ReproError,
    UsageError,
)


class TestHierarchy:
    def test_every_error_is_a_repro_error(self):
        for cls in (
            UsageError,
            InfeasiblePlanError,
            EvaluationError,
            InjectedFault,
            FailureBudgetExceeded,
            CheckpointError,
            CheckpointCorruptError,
            DSLError,
        ):
            assert issubclass(cls, ReproError)

    def test_backward_compatible_builtin_bases(self):
        # Pre-taxonomy code (and tests) catch ValueError / RuntimeError;
        # the taxonomy keeps those in the MRO so nothing breaks.
        assert issubclass(InfeasiblePlanError, ValueError)
        assert issubclass(UsageError, ValueError)
        assert issubclass(EvaluationError, RuntimeError)
        assert issubclass(InjectedFault, EvaluationError)
        assert issubclass(FailureBudgetExceeded, EvaluationError)
        assert issubclass(CheckpointCorruptError, CheckpointError)

    def test_domain_errors_joined_the_taxonomy(self):
        assert issubclass(PlanInfeasible, InfeasiblePlanError)
        assert issubclass(InvalidPlan, InfeasiblePlanError)
        assert issubclass(PlanInfeasible, ValueError)
        for cls in (LexError, ParseError, ValidationError):
            assert issubclass(cls, DSLError)

    def test_exit_codes(self):
        assert ReproError().exit_code == 1
        assert UsageError().exit_code == 2
        assert InfeasiblePlanError().exit_code == 3
        assert DSLError("x").exit_code == 3
        assert EvaluationError().exit_code == 4
        assert CheckpointError().exit_code == 4


class TestContext:
    def test_context_captured_and_none_dropped(self):
        exc = EvaluationError("boom", plan="p1", phase=None, attempt=2)
        assert exc.context == {"plan": "p1", "attempt": 2}
        assert exc.message == "boom"
        assert str(exc) == "boom"

    def test_with_context_returns_self_without_overwriting(self):
        exc = EvaluationError("boom", plan="original")
        out = exc.with_context(plan="clobber", extra="new")
        assert out is exc
        assert exc.context == {"plan": "original", "extra": "new"}

    def test_describe_is_one_line_and_sorted(self):
        exc = EvaluationError("boom", zeta=1, alpha="a")
        assert exc.describe() == "boom [alpha=a, zeta=1]"
        assert "\n" not in exc.describe()

    def test_describe_without_context(self):
        assert ReproError("plain").describe() == "plain"

    def test_dsl_error_location(self):
        exc = ParseError("bad token", line=3, col=7)
        assert exc.message == "bad token"
        assert exc.line == 3 and exc.col == 7
        assert "line 3" in str(exc)

    def test_catching_by_legacy_type(self):
        with pytest.raises(ValueError):
            raise InfeasiblePlanError("nope")
        with pytest.raises(RuntimeError):
            raise InjectedFault("boom")
