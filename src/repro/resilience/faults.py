"""Deterministic, seedable fault injection for the evaluation pipeline.

The failure paths of a tuner are only trustworthy if they can be
*exercised on demand*: this harness wraps the evaluation engine (see
``PlanEvaluator(fault_injector=...)``) and makes selected candidate
evaluations raise :class:`~repro.resilience.errors.InjectedFault`.

Injection decisions are **content-addressed, not sequence-addressed**:
whether a candidate faults is a pure function of ``(seed, candidate
fingerprint)``, so the same candidates fault regardless of evaluation
order or memoization — chaos runs are reproducible even when a
checkpointed run resumes and replays candidates in a different order.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

from .errors import InjectedFault, UsageError

__all__ = ["FaultInjector"]


class FaultInjector:
    """Injects faults into evaluations, deterministically by seed.

    Parameters
    ----------
    rate:
        Fraction of candidates faulted, decided per candidate key.
    seed:
        Injection seed; same seed + same keys = same faults.
    after:
        Skip injection for the first ``after`` invocations — lets a test
        let a run proceed, then "crash" it mid-search.
    max_faults:
        Stop injecting after this many faults (None = unlimited).
    match:
        Optional predicate on the candidate key restricting injection.
    """

    def __init__(
        self,
        rate: float = 0.0,
        seed: int = 0,
        after: int = 0,
        max_faults: Optional[int] = None,
        match: Optional[Callable[[str], bool]] = None,
    ):
        if not (0.0 <= rate <= 1.0):
            raise UsageError("fault rate must be in [0, 1]")
        self.rate = rate
        self.seed = seed
        self.after = after
        self.max_faults = max_faults
        self.match = match
        #: observable tallies, for assertions and the obs counters
        self.invocations = 0
        self.injected = 0

    # -- decision ---------------------------------------------------------------

    def selects(self, key: str) -> bool:
        """Whether this candidate key is in the faulted set (pure)."""
        if self.rate <= 0.0:
            return False
        if self.match is not None and not self.match(key):
            return False
        digest = hashlib.sha256(f"{self.seed}:{key}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.rate

    # -- injection --------------------------------------------------------------

    def invoke(self, key: str) -> None:
        """Called by the engine once per evaluation.

        Either returns or raises :class:`InjectedFault`.
        """
        self.invocations += 1
        if self.invocations <= self.after or not self.selects(key):
            return
        if self.max_faults is not None and self.injected >= self.max_faults:
            return
        self.injected += 1
        self._count("faults.injected")
        raise InjectedFault(
            f"injected fault #{self.injected}",
            fault_seed=self.seed,
            candidate=key,
        )

    @staticmethod
    def _count(name: str) -> None:
        from ..obs import counter, metrics_enabled

        if metrics_enabled():
            counter(name).add(1)
