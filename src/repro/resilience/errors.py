"""Unified exception taxonomy for the ARTEMIS pipeline.

Every failure the pipeline can produce descends from :class:`ReproError`
and carries *structured diagnostic context* — which stencil, which plan,
which phase — so a failure deep inside a thousand-candidate batch is
attributable without re-running anything.  The taxonomy replaces the
ad-hoc ``ValueError`` / ``RuntimeError`` mix the seed implementation
used across ``dsl/``, ``codegen/``, ``gpu/`` and ``tuning/``.

Design constraints:

* **Backward compatibility** — the pre-existing exception types
  (:class:`repro.gpu.simulator.PlanInfeasible`,
  :class:`repro.codegen.resources.InvalidPlan`) subclassed ``ValueError``
  and are caught as such throughout the codebase and its tests, so the
  taxonomy classes that replace their bases keep ``ValueError`` (or
  ``RuntimeError``) in their MRO.
* **Exit-code mapping** — every class carries an ``exit_code`` the CLI
  maps to: ``2`` usage errors, ``3`` infeasible input, ``4`` evaluation
  / runtime failures (see ``docs/robustness.md``).
* **No heavy imports** — this module is imported by the DSL frontend and
  must stay dependency-free.
"""

from __future__ import annotations

import copy
from typing import Any, Dict

__all__ = [
    "CheckpointCorruptError",
    "CheckpointDeviceMismatch",
    "CheckpointError",
    "CheckpointLockedError",
    "EvaluationError",
    "InfeasiblePlanError",
    "ReproError",
    "UsageError",
]


class ReproError(Exception):
    """Root of the repro exception taxonomy.

    ``context`` holds structured diagnostic key/values (``stencil``,
    ``plan``, ``phase``, ``candidate``, ...).  :meth:`describe` renders
    the one-line operator-facing message the CLI prints.
    """

    #: Process exit status the CLI maps this error class to.
    exit_code = 1

    def __init__(self, message: str = "", **context: Any):
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = {
            key: value for key, value in context.items() if value is not None
        }

    def with_context(self, **context: Any) -> "ReproError":
        """Attach additional diagnostic context; returns ``self``."""
        for key, value in context.items():
            if value is not None and key not in self.context:
                self.context[key] = value
        return self

    def clone(self) -> "ReproError":
        """A fresh copy to raise again: same class, message and context.

        The copy has its own ``context`` dict and no traceback, cause or
        chained exception, so a memoized failure neither keeps the
        frames that first raised it alive nor shares context that one
        caller attaches with the next.
        """
        fresh = copy.copy(self)
        fresh.context = dict(self.context)
        return fresh

    def describe(self) -> str:
        """One-line message with the diagnostic context appended."""
        text = self.message or self.__class__.__name__
        if not self.context:
            return text
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(self.context.items())
        )
        return f"{text} [{rendered}]"


class UsageError(ReproError, ValueError):
    """The caller asked for something the API does not offer.

    Unknown modes, negative iteration counts, deep-tuning a
    non-iterative stencil: correctable misuse, not a pipeline defect.
    """

    exit_code = 2


class InfeasiblePlanError(ReproError, ValueError):
    """A plan (or input) cannot be realized on the target device.

    Base of :class:`repro.gpu.simulator.PlanInfeasible` and
    :class:`repro.codegen.resources.InvalidPlan`; tuners treat these as
    "candidate rejected", never as a crash.
    """

    exit_code = 3


class EvaluationError(ReproError, RuntimeError):
    """A candidate evaluation failed for a non-infeasibility reason.

    Wraps the original exception (``__cause__``) and carries the
    candidate's plan description, batch index and phase in
    ``context``.
    """

    exit_code = 4


class CheckpointError(ReproError):
    """A checkpoint journal could not be used (wrong device, version)."""

    exit_code = 4


class CheckpointDeviceMismatch(CheckpointError, UsageError):
    """A checkpoint journal was recorded on a different device.

    Resuming a P100 journal on a V100 would replay P100 timings into a
    V100 search, silently poisoning the result — the journal refuses.
    This is caller-correctable misuse (pick the matching ``--device`` or
    start a fresh checkpoint), so it exits with the usage code ``2``
    while remaining catchable as :class:`CheckpointError`.
    """

    exit_code = 2


class CheckpointLockedError(CheckpointError, UsageError):
    """Another live writer already holds this checkpoint journal.

    Two processes appending to the same JSONL file would interleave
    (and tear) each other's records, silently corrupting the very
    history the journal exists to protect.  Pointing two runs at one
    ``--checkpoint`` path is caller-correctable misuse, so
    this exits with the usage code ``2`` while remaining catchable as
    :class:`CheckpointError`.
    """

    exit_code = 2


class CheckpointCorruptError(CheckpointError):
    """A checkpoint journal is damaged beyond automatic repair.

    Torn trailing writes are repaired silently (the partial record is
    dropped); this error means a *middle* record failed to parse or is
    not a well-formed record of a known kind, so the journal's history
    cannot be trusted.
    """
