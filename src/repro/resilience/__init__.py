"""Fault tolerance for the ARTEMIS pipeline.

A production autotuner evaluates thousands of candidate plans per run.
A failed candidate must end the run with an error that names it, and a
crashed process must not lose the work it finished.  This package holds
the pieces that make that so:

* :mod:`~repro.resilience.errors` — the unified exception taxonomy
  (:class:`ReproError` and friends) with structured diagnostic context
  and CLI exit-code mapping;
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
    InfeasiblePlanError,
    ReproError,
    UsageError,
)
from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .checkpoint import (
    JOURNAL_VERSION,
    TuningJournal,
    ir_fingerprint,
    plan_from_dict,
    plan_to_dict,
    read_journal,
)

__all__ = [
    "CheckpointCorruptError",
    "CheckpointDeviceMismatch",
    "CheckpointError",
    "CheckpointLockedError",
    "EvaluationError",
    "InfeasiblePlanError",
    "JOURNAL_VERSION",
    "ReproError",
    "TuningJournal",
    "UsageError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "ir_fingerprint",
    "plan_from_dict",
    "plan_to_dict",
    "read_journal",
]
