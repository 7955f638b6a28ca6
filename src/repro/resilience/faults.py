"""Deterministic, seedable fault injection for the evaluation pipeline.

The recovery paths of a fault-tolerant tuner are only trustworthy if
they can be *exercised on demand*: this harness wraps the evaluation
engine (see ``PlanEvaluator(fault_injector=...)``) and injects
configurable exceptions, latency spikes and hangs into candidate
evaluations.

Injection decisions are **content-addressed, not sequence-addressed**:
whether a candidate faults is a pure function of ``(seed, candidate
fingerprint)``, so the same candidates fault regardless of evaluation
order or memoization — chaos runs are reproducible even when a
checkpointed run resumes and replays candidates in a different order.

Fault kinds:

* ``error``   — raise :class:`~repro.resilience.errors.InjectedFault`;
* ``latency`` — sleep ``latency_s`` before the evaluation proceeds;
* ``hang``    — sleep ``hang_s`` (pair with the evaluator's
  per-evaluation timeout to exercise the timeout path).

``transient_failures=N`` makes injected errors clear after ``N``
failures per candidate — the shape of a real transient fault, and what
lets retry/backoff recover to *bit-identical* tuning results.  By
default, injection is disarmed during degraded-mode re-evaluation
(``spare_degraded``), modelling faults that live in the fast path the
degraded mode bypasses.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Dict, Optional

from .errors import InjectedFault, UsageError

__all__ = ["FAULT_KINDS", "FaultInjector"]

FAULT_KINDS = ("error", "latency", "hang")


class FaultInjector:
    """Injects faults into evaluations, deterministically by seed.

    Parameters
    ----------
    rate:
        Fraction of candidates faulted, decided per candidate key.
    seed:
        Injection seed; same seed + same keys = same faults.
    kind:
        ``error`` | ``latency`` | ``hang``.
    latency_s / hang_s:
        Sleep durations for the two delay kinds.
    transient_failures:
        When > 0, an ``error`` fault clears after this many failures of
        the same candidate (retries then succeed).  0 = persistent.
    after:
        Skip injection for the first ``after`` invocations — lets a test
        let a run proceed, then "crash" it mid-search.
    max_faults:
        Stop injecting after this many faults (None = unlimited).
    match:
        Optional predicate on the candidate key restricting injection.
    spare_degraded:
        Disarm injection for degraded-mode attempts (default True).
    """

    def __init__(
        self,
        rate: float = 0.0,
        seed: int = 0,
        kind: str = "error",
        latency_s: float = 0.0,
        hang_s: float = 30.0,
        transient_failures: int = 0,
        after: int = 0,
        max_faults: Optional[int] = None,
        match: Optional[Callable[[str], bool]] = None,
        spare_degraded: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if kind not in FAULT_KINDS:
            raise UsageError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if not (0.0 <= rate <= 1.0):
            raise UsageError("fault rate must be in [0, 1]")
        if transient_failures < 0:
            raise UsageError("transient_failures must be >= 0")
        self.rate = rate
        self.seed = seed
        self.kind = kind
        self.latency_s = latency_s
        self.hang_s = hang_s
        self.transient_failures = transient_failures
        self.after = after
        self.max_faults = max_faults
        self.match = match
        self.spare_degraded = spare_degraded
        self._sleep = sleep
        self._lock = threading.Lock()
        self._failures_by_key: Dict[str, int] = {}
        #: observable tallies, for assertions and the obs counters
        self.invocations = 0
        self.injected = 0
        self.recovered = 0  # transient faults that have cleared

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

    def invoke(self, key: str, degraded: bool = False) -> None:
        """Called by the engine once per evaluation attempt.

        Either returns (possibly after an injected delay) or raises
        :class:`InjectedFault`.
        """
        with self._lock:
            self.invocations += 1
            invocation = self.invocations
        if invocation <= self.after:
            return
        if degraded and self.spare_degraded:
            return
        if not self.selects(key):
            return
        with self._lock:
            if self.max_faults is not None and self.injected >= self.max_faults:
                return
            if self.transient_failures:
                failures = self._failures_by_key.get(key, 0)
                if failures >= self.transient_failures:
                    self.recovered += 1
                    return
                self._failures_by_key[key] = failures + 1
            self.injected += 1
            injected = self.injected
        self._count("faults.injected")
        if self.kind == "latency":
            self._sleep(self.latency_s)
            return
        if self.kind == "hang":
            self._sleep(self.hang_s)
            return
        raise InjectedFault(
            f"injected fault #{injected}",
            fault_seed=self.seed,
            fault_kind=self.kind,
            candidate=key,
        )

    @staticmethod
    def _count(name: str) -> None:
        from ..obs import counter, metrics_enabled

        if metrics_enabled():
            counter(name).add(1)
