"""The ``on_error`` policies and the failure budget for candidate evaluation.

The evaluation engine treats two classes of outcomes differently:

* *infeasible* — the candidate cannot run at all; deterministic, never
  a failure;
* *failures* — an evaluation raised unexpectedly.  The model is a pure
  function, so the same candidate would fail the same way again: each
  failure is resolved at once by the evaluator's ``on_error`` policy
  and, under ``skip``, charged against the :class:`FailureBudget`.
"""

from __future__ import annotations

from typing import Optional

from .errors import FailureBudgetExceeded, UsageError

__all__ = [
    "ON_ERROR_POLICIES",
    "FailureBudget",
]

#: Batch-evaluation error policies:
#:
#: * ``fail-fast`` — the first failure aborts the batch (wrapped as
#:   :class:`~repro.resilience.errors.EvaluationError` with the
#:   candidate attached);
#: * ``skip``      — the failing candidate is quarantined (reported as
#:   infeasible) and the search continues.
ON_ERROR_POLICIES = ("fail-fast", "skip")


class FailureBudget:
    """Cap on quarantined evaluation failures.

    ``charge()`` records one failure and raises
    :class:`FailureBudgetExceeded` once more than ``limit`` failures
    accumulate — under ``on_error=skip`` a budget keeps a systematically
    broken run (model regression, corrupt device spec) from silently
    degrading into a search over no candidates.  ``limit=None`` is
    unlimited.
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 0:
            raise UsageError("failure budget must be >= 0")
        self.limit = limit
        self.spent = 0

    def charge(self, **context) -> None:
        """Record one failure; raise once over budget."""
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise FailureBudgetExceeded(
                f"evaluation failure budget exhausted "
                f"({self.spent} failures > limit {self.limit})",
                limit=self.limit,
                failures=self.spent,
                **context,
            )
