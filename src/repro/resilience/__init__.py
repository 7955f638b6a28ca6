"""Fault tolerance for the ARTEMIS pipeline.

A production autotuner evaluates thousands of candidate plans per run;
a single malformed candidate or a crashed process must not destroy the
search.  This package holds the pieces that make the pipeline
survivable:

* :mod:`~repro.resilience.errors` — the unified exception taxonomy
  (:class:`ReproError` and friends) with structured diagnostic context
  and CLI exit-code mapping;
* :mod:`~repro.resilience.faults` — a deterministic, seedable
  fault-injection harness for exercising the failure paths;
* :mod:`~repro.resilience.retry` — the ``on_error`` policy names and
  the failure budget used by ``PlanEvaluator``;
* :mod:`~repro.resilience.checkpoint` — the crash-safe JSONL tuning
  journal behind ``--checkpoint`` / ``--resume``;
* :mod:`~repro.resilience.atomic` — write-tmp-then-rename helpers used
  for every JSON/report artifact the pipeline emits.

See ``docs/robustness.md`` for the operator-facing guide.
"""

from .errors import (
    CheckpointCorruptError,
    CheckpointDeviceMismatch,
    CheckpointError,
    CheckpointLockedError,
    EvaluationError,
    FailureBudgetExceeded,
    InfeasiblePlanError,
    InjectedFault,
    ReproError,
    UsageError,
)
from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .retry import ON_ERROR_POLICIES, FailureBudget
from .faults import FaultInjector
from .checkpoint import (
    JOURNAL_VERSION,
    TuningJournal,
    ir_fingerprint,
    plan_from_dict,
    plan_to_dict,
)

__all__ = [
    "CheckpointCorruptError",
    "CheckpointDeviceMismatch",
    "CheckpointError",
    "CheckpointLockedError",
    "EvaluationError",
    "FailureBudget",
    "FailureBudgetExceeded",
    "FaultInjector",
    "InfeasiblePlanError",
    "InjectedFault",
    "JOURNAL_VERSION",
    "ON_ERROR_POLICIES",
    "ReproError",
    "TuningJournal",
    "UsageError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "ir_fingerprint",
    "plan_from_dict",
    "plan_to_dict",
]
