"""The ``on_error`` policy names and the failure budget (incl. properties)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import (
    FailureBudget,
    FailureBudgetExceeded,
    ON_ERROR_POLICIES,
    UsageError,
)


class TestFailureBudget:
    def test_unlimited_never_raises(self):
        budget = FailureBudget(None)
        for _ in range(1000):
            budget.charge()
        assert budget.spent == 1000

    def test_raises_past_limit(self):
        budget = FailureBudget(2)
        budget.charge()
        budget.charge()
        assert budget.spent == 2
        with pytest.raises(FailureBudgetExceeded) as info:
            budget.charge(plan="p3")
        assert info.value.context["failures"] == 3
        assert info.value.context["limit"] == 2
        assert info.value.context["plan"] == "p3"

    def test_zero_budget_tolerates_nothing(self):
        with pytest.raises(FailureBudgetExceeded):
            FailureBudget(0).charge()

    def test_negative_budget_rejected(self):
        with pytest.raises(UsageError):
            FailureBudget(-1)

    @given(limit=st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_budget_exhausts_exactly_once_past_limit(self, limit):
        budget = FailureBudget(limit)
        for _ in range(limit):
            budget.charge()
        with pytest.raises(FailureBudgetExceeded):
            budget.charge()


def test_policy_names_are_stable():
    # The CLI, docs and journal records reference these names.
    assert ON_ERROR_POLICIES == ("fail-fast", "skip")
