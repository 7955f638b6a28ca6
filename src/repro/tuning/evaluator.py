"""Shared plan-evaluation engine: memoized, incremental, vectorized.

Every result in this repository flows through repeated invocations of
the analytical simulator — hierarchical autotuning (§V), deep tuning's
per-degree sweeps (§VI-A), fission search (§VI-B), random search and the
baseline generators all price candidate :class:`KernelPlan`s with
:func:`repro.gpu.simulator.simulate`.  A fast analytical model is only a
net win while evaluation cost stays negligible next to the search-space
size, so all search code routes measurements through one
:class:`PlanEvaluator`, which provides:

* **content-addressed memoization** — simulation results are cached by a
  canonical plan fingerprint + IR identity + device, so duplicate
  variants (stage 2 generates overlapping variants per survivor, deep
  tuning re-visits degree-1 plans, benchmarks re-tune the same kernels)
  are never simulated twice.  Memoized and fresh paths return the very
  same :class:`SimulationResult` objects — results are deterministic and
  bit-for-bit identical either way.
* **incremental simulation** — the simulator's register-independent
  prefix (geometry, stages, buffers, access analysis, register demand)
  is cached per plan *family*, so the paper's register-escalation ladder
  (32 → 64 → 128 → 255) collapses: demand is known up front and the
  evaluator jumps straight to the first non-spilling rung instead of
  simulating every spilling one.
* **vectorized family pricing** — batches are grouped by structural
  plan key and each group of :data:`MIN_FAMILY` or more plans is priced
  in one NumPy pass over the whole candidate axis
  (:mod:`repro.gpu.pricing`), bit-for-bit equal to the scalar
  ``simulate`` path that smaller groups take.  Each priced lane is
  then one request through the same seam as a scalar one
  (:meth:`PlanEvaluator._evaluate`), carrying its verdict, so the
  accounting, memoization and telemetry are the same.  Per-phase
  activity is attributed through :meth:`PlanEvaluator.phase`
  (``docs/performance_model.md``).
* **batch evaluation** — :meth:`PlanEvaluator.evaluate_batch` runs a
  batch serially on the calling thread with input-ordered results.  A
  search prices its candidates in about a second, so no worker pool
  has a workload to hide, and the engine starts no thread.
* **fail-fast** — every batch job is one attempt.  The model is
  deterministic, so a candidate that raised once would raise again: an
  unexpected (non-infeasibility) exception, whether raised by one
  candidate or while pricing its whole family, ends the batch as an
  :class:`~repro.resilience.EvaluationError` naming the candidate
  (``docs/robustness.md``).
* **cache / throughput statistics** — hits, misses, simulations avoided
  and wall-clock, surfaced through tuning results, ``pipeline.report``
  and the ``--eval-stats`` CLI flag.

The engine has one configuration: memoization, the incremental ladder
and the occupancy prescreen are always on, and the group size alone
picks scalar or family pricing.  A :class:`PlanEvaluator` takes only a
device, whether to validate plans, and an optional search log.

Evaluation accounting is uniform: one *request* per candidate plan
submitted (feasible, spilling or infeasible alike), independent of how
many register rungs the escalation needed.  Tuners count evaluations the
same way.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple

from ..codegen.plan import KernelPlan, REGISTER_LEVELS
from ..codegen.resources import InvalidPlan, validate_plan
from ..codegen.tiling import plan_family_key, plan_structural_key
from ..gpu.counters import SimulationResult
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import (
    PlanInfeasible,
    plan_prefix,
    simulate,
)
from ..ir.stencil import ProgramIR
from ..lint.rules_plan import fusion_rejection, plan_rejection
from ..obs import span as _span
from ..obs.search import SearchLog
from ..resilience import EvaluationError

#: Exceptions that mark a candidate as infeasible rather than a bug.
INFEASIBLE = (PlanInfeasible, InvalidPlan)


#: Smallest structural group worth routing through the vectorized
#: pricing backend — below this the per-family setup cost (structure
#: capture, array assembly) beats the per-lane savings.
MIN_FAMILY = 4


#: Batch job kinds (see :meth:`PlanEvaluator._jobs`): one request,
#: with or without a precomputed verdict; a prune that makes no
#: request; one scalar register-ladder walk.
_LANE, _PRUNE, _LADDER = "lane", "prune", "ladder"


class Refusal:
    """A request the prescreen refused: its lint rule and message.

    The verdict a family lane carries when the occupancy screen or the
    fusion certifier rejects it, and the memo entry of every screened
    request.  It stands for the :class:`PlanInfeasible` the scalar
    prescreen raises, which is built only when a caller raises it
    (:meth:`clone`).  ``occupancy`` marks an occupancy-screen refusal,
    whose metrics include ``simulate.prescreen_rejections``.
    """

    __slots__ = ("message", "rule", "witness", "occupancy")

    def __init__(
        self,
        rule: str,
        message: str,
        witness: Optional[str] = None,
        occupancy: bool = False,
    ):
        self.message = f"[{rule}] {message}"
        self.rule = rule
        self.witness = witness
        self.occupancy = occupancy

    def __str__(self) -> str:
        return self.message

    def clone(self) -> PlanInfeasible:
        """A fresh :class:`PlanInfeasible` for this refusal."""
        return PlanInfeasible(
            self.message, rule=self.rule, witness=self.witness
        )

    def count(self) -> None:
        """Bump the metrics the scalar prescreen bumps for this rule."""
        from ..obs import counter, metrics_enabled

        if metrics_enabled():
            if self.occupancy:
                counter("simulate.prescreen_rejections").add()
            counter(f"lint.reject.{self.rule}").add()


def _verdict_of(lane):
    """A priced lane's verdict: its result, or its occupancy refusal."""
    if lane.feasible:
        return lane.result
    return Refusal(lane.occ_code, lane.occ_message, occupancy=True)


def _first_rung(demand: int, levels: Tuple[int, ...]) -> int:
    """Index of the first register level covering ``demand``, else -1."""
    return next((i for i, lv in enumerate(levels) if demand <= lv), -1)


def _all_spill(demand: int, levels: Tuple[int, ...]) -> str:
    return (
        f"spills at every register level (demand {demand} > {levels[-1]})"
    )


@dataclass(frozen=True)
class Measurement:
    """One evaluated candidate."""

    plan: KernelPlan
    time_s: float
    tflops: float


@dataclass
class EvalStats:
    """Cache and throughput statistics of one evaluation engine.

    ``wall_s`` is the real time spent inside the engine: each public
    call (one request, one ladder walk or one whole batch) is billed
    once.
    """

    requests: int = 0  # candidate evaluations requested
    hits: int = 0  # served from the result cache
    misses: int = 0  # went to the model (screened or fully simulated)
    infeasible: int = 0  # requests that turned out infeasible
    rungs_skipped: int = 0  # escalation rungs resolved without simulating
    screened: int = 0  # rejected by the occupancy screen, not simulated
    lint_rejections: int = 0  # screened rejections carrying a lint rule code
    vectorized: int = 0  # priced via the vectorized family backend
    wall_s: float = 0.0  # real time the engine was busy

    @property
    def simulations(self) -> int:
        """Candidates priced by the model (scalar *or* vectorized).

        ``misses - screened`` — the logical count of full prices the
        engine produced.  ``vectorized`` of these came from the family
        backend; the remainder were scalar ``simulate`` calls.
        """
        return self.misses - self.screened

    @property
    def simulations_avoided(self) -> int:
        """Simulator invocations removed by memoization + incrementality."""
        return self.hits + self.rungs_skipped + self.screened

    def snapshot(self) -> "EvalStats":
        return EvalStats(
            requests=self.requests,
            hits=self.hits,
            misses=self.misses,
            infeasible=self.infeasible,
            rungs_skipped=self.rungs_skipped,
            screened=self.screened,
            lint_rejections=self.lint_rejections,
            vectorized=self.vectorized,
            wall_s=self.wall_s,
        )

    def since(self, before: "EvalStats") -> "EvalStats":
        """Difference of two snapshots: activity between them."""
        return EvalStats(
            requests=self.requests - before.requests,
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            infeasible=self.infeasible - before.infeasible,
            rungs_skipped=self.rungs_skipped - before.rungs_skipped,
            screened=self.screened - before.screened,
            lint_rejections=self.lint_rejections - before.lint_rejections,
            vectorized=self.vectorized - before.vectorized,
            wall_s=self.wall_s - before.wall_s,
        )

    def add(self, other: "EvalStats") -> None:
        """Accumulate another snapshot/delta into this one in place."""
        self.requests += other.requests
        self.hits += other.hits
        self.misses += other.misses
        self.infeasible += other.infeasible
        self.rungs_skipped += other.rungs_skipped
        self.screened += other.screened
        self.lint_rejections += other.lint_rejections
        self.vectorized += other.vectorized
        self.wall_s += other.wall_s

    @property
    def hit_rate(self) -> float:
        """Cache hits per request (0.0 on an idle engine)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "infeasible": self.infeasible,
            "rungs_skipped": self.rungs_skipped,
            "screened": self.screened,
            "lint_rejections": self.lint_rejections,
            "vectorized": self.vectorized,
            "simulations": self.simulations,
            "simulations_avoided": self.simulations_avoided,
            "wall_s": self.wall_s,
        }

    def publish(self, prefix: str = "eval", registry=None) -> None:
        """Mirror these statistics into a metrics registry.

        Every field becomes a counter, except ``wall_s``, which is one
        histogram observation — none on an idle engine, whose zero
        timing measured nothing.  Without ``registry`` this publishes
        into the process registry, and only while metrics are enabled;
        the ``/metrics`` collector passes the registry it builds for
        each scrape.
        """
        if registry is None:
            from ..obs import get_metrics, metrics_enabled

            if not metrics_enabled():
                return
            registry = get_metrics()
        for name, value in self.as_dict().items():
            if name != "wall_s":
                registry.counter(f"{prefix}.{name}").add(value)
            elif value:
                registry.histogram(f"{prefix}.{name}").observe(value)

    def describe(self) -> str:
        return (
            f"{self.requests} requests, {self.hits} cache hits, "
            f"{self.simulations} priced "
            f"[{self.vectorized} vectorized], {self.rungs_skipped} rungs "
            f"skipped, {self.screened} screened "
            f"[{self.lint_rejections} by lint rule] "
            f"({self.simulations_avoided} simulations avoided), "
            f"{self.wall_s * 1e3:.1f} ms wall"
        )


def plan_fingerprint(plan: KernelPlan, include_registers: bool = True) -> str:
    """Stable, content-addressed hex fingerprint of a plan.

    Two plans fingerprint identically iff every code-generation decision
    they encode is identical; with ``include_registers=False`` the
    register cap is factored out (the plan *family* — what the
    register-independent simulation prefix is keyed by).
    """
    payload = repr(plan_family_key(plan))
    if include_registers:
        payload += f"|regs={plan.max_registers}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class PlanEvaluator:
    """Single evaluation front-end for every tuner and baseline.

    One evaluator serves any number of programs but exactly one device.
    Results are keyed by IR identity, and each entry holds its IR, so an
    id cannot be recycled while the evaluator lives.  Failures are
    memoized alongside successes, so repeatedly probing an infeasible
    configuration costs one lookup.

    The cache lives as long as the evaluator, and a cached value must
    not reference the evaluator.  A failure is therefore memoized as a
    :class:`Refusal` record or an exception copy without the traceback
    (whose frames hold the evaluator), and :meth:`evaluate` raises a
    fresh exception with its own ``context`` each time it meets one.
    A finished job's evaluator is freed by reference counting alone.

    One evaluator serves one thread.  Batches run serially on the
    calling thread, every candidate is one attempt, and the engine
    starts no thread of its own, so its cache and counters take no
    lock.  A caller that wants concurrency gives each thread its own
    evaluator.
    """

    def __init__(
        self,
        device: DeviceSpec = P100,
        validate: bool = True,
        search_log: Optional[SearchLog] = None,
    ):
        self.device = device
        #: run ``validate_plan`` before simulating (some baselines probe
        #: raw configurations the way a fixed code generator would,
        #: without the planner's feasibility screen).
        self.validate = validate
        #: candidate-level telemetry sink (``repro.obs.search``): when
        #: set, every request resolved by this engine — cache hits,
        #: screens, infeasibilities, errors included — emits exactly one
        #: ``candidate`` event, so the log mirrors ``stats.requests``.
        self.search_log = search_log
        #: per-phase activity, accumulated by :meth:`phase` — tuners
        #: wrap their stages so cache behaviour can be reported per
        #: phase instead of as one misleading whole-run ratio.
        self.phase_stats: Dict[str, EvalStats] = {}
        self.stats = EvalStats()
        #: key -> (ir, SimulationResult | Refusal | INFEASIBLE exception)
        self._cache: Dict[tuple, tuple] = {}

    # -- phase accounting ------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute engine activity inside the block to phase ``name``.

        Deltas accumulate in :attr:`phase_stats`, so re-entering a phase
        (e.g. stage 2 running once per stage-1 survivor) extends its
        bucket.  Phases are flat — tuners label their top-level stages;
        nesting would double-count and is not supported.
        """
        before = self.stats.snapshot()
        try:
            yield
        finally:
            delta = self.stats.since(before)
            self.phase_stats.setdefault(name, EvalStats()).add(delta)

    def phase_dict(self) -> Dict[str, Dict[str, float]]:
        """``phase -> as_dict()`` for reports and benchmark baselines."""
        return {
            name: stats.as_dict() for name, stats in self.phase_stats.items()
        }

    # -- timing ----------------------------------------------------------------

    @contextmanager
    def _timed(self):
        """Bill one engine frame's elapsed time to ``wall_s``.

        Every public entry point opens exactly one frame and the engine
        never calls its own public methods, so frames do not nest.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stats.wall_s += time.perf_counter() - start

    # -- single evaluation -----------------------------------------------------

    def _key(self, ir: ProgramIR, plan: KernelPlan) -> tuple:
        # The device profile is part of the content address: the same
        # plan priced on two profiles must never share a cache entry
        # (profiles are frozen, hashable value objects — two specs that
        # merely share a name still produce distinct keys).
        return (id(ir), self.device, plan_family_key(plan), plan.max_registers)

    def evaluate(self, ir: ProgramIR, plan: KernelPlan) -> SimulationResult:
        """Validate + simulate one plan, memoized.

        Raises :class:`PlanInfeasible` / :class:`InvalidPlan` exactly as
        the direct ``validate_plan`` + ``simulate`` path would.
        """
        with self._timed():
            outcome = self._evaluate(ir, plan)
        if isinstance(outcome, SimulationResult):
            return outcome
        raise outcome.clone()

    def _log_candidate(
        self,
        plan: KernelPlan,
        disposition: str,
        reason: Optional[str] = None,
        result: Optional[SimulationResult] = None,
    ) -> None:
        if self.search_log is None:
            return
        self.search_log.candidate(
            plan, disposition, reason=reason, result=result,
            device=self.device.name,
        )

    def _evaluate(self, ir: ProgramIR, plan: KernelPlan, verdict=None):
        """One request: every candidate crosses this seam exactly once.

        ``verdict`` is what the model says about ``plan`` when the
        caller already knows it: a family lane's ``SimulationResult``,
        its occupancy or fusion :class:`Refusal`, or the validation
        failure its family's prototype raised.  Without one, the scalar
        path computes it (:meth:`_verdict`).  Both paths then do the
        same request/hit/miss/screen/infeasible accounting, memo write
        and candidate event.

        Returns the result, or the memoized failure — a
        :class:`Refusal` or an infeasibility exception — whose
        ``clone()`` is the fresh exception a raising caller raises.
        Only an unexpected exception propagates.
        """
        stats = self.stats
        stats.requests += 1
        key = self._key(ir, plan)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is ir:
            stats.hits += 1
            outcome = hit[1]
            if isinstance(outcome, SimulationResult):
                self._log_candidate(plan, "cache-hit", result=outcome)
            else:
                stats.infeasible += 1
                self._log_candidate(
                    plan, "cache-hit-infeasible", reason=str(outcome)
                )
            return outcome
        stats.misses += 1
        priced = verdict is not None
        if not priced:
            verdict = self._verdict(ir, plan)
        self._cache[key] = (ir, verdict)
        if isinstance(verdict, SimulationResult):
            if priced:
                stats.vectorized += 1
            self._log_candidate(plan, "simulated", result=verdict)
            return verdict
        stats.infeasible += 1
        disposition = "infeasible"
        if isinstance(verdict, Refusal):
            if priced:
                verdict.count()  # the scalar prescreen counts its own
            stats.screened += 1
            stats.lint_rejections += 1
            disposition = "screened"
        self._log_candidate(plan, disposition, reason=str(verdict))
        return verdict

    def _verdict(self, ir: ProgramIR, plan: KernelPlan):
        """The scalar path's verdict: validate, prescreen, simulate.

        The legality prescreen covers the structural lint rules, the
        RL3xx transformation certifier (dependence-distance refutations
        of fusion/time-tile/streaming/retiming) and the cheap
        register-dependent occupancy suffix: candidates the device
        cannot run, or whose transformations are provably illegal, are
        refused without paying for the counter and timing models, and
        every refusal carries a stable ``RLxxx`` rule code.
        """
        try:
            if self.validate:
                validate_plan(ir, plan)
            diag = plan_rejection(ir, plan, self.device, assume_validated=True)
            if diag is not None:
                # RL3xx refutations carry a counterexample (grid point +
                # event pair); keep it so a raised refusal shows *why*
                # the plan is illegal, not just the code.
                witness = diag.witness
                return Refusal(
                    diag.code,
                    diag.message,
                    witness=None if witness is None else witness.describe(),
                )
            return simulate(ir, plan, self.device)
        except INFEASIBLE as exc:
            return exc.clone()
        except Exception as exc:  # noqa: BLE001 — telemetry, then re-raise
            # Unexpected error: still one request, so still one
            # candidate event; a batch then fails fast on it.
            self._log_candidate(
                plan, "error", reason=f"{type(exc).__name__}: {exc}"
            )
            raise

    def try_evaluate(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        catch: tuple = INFEASIBLE,
    ) -> Optional[SimulationResult]:
        """Like :meth:`evaluate` but returns None for infeasible plans."""
        try:
            return self.evaluate(ir, plan)
        except catch:
            return None

    # -- register escalation ---------------------------------------------------

    def register_demand(self, ir: ProgramIR, plan: KernelPlan) -> int:
        """Uncapped register demand of a plan (register-independent)."""
        return plan_prefix(ir, plan).reg_demand

    def evaluate_spill_free(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        levels: Sequence[int] = REGISTER_LEVELS,
    ) -> Optional[Tuple[KernelPlan, SimulationResult]]:
        """The paper's dynamic register-increment ladder, incrementally.

        Returns the first (plan, result) along the escalation levels that
        does not spill, or None when the plan is infeasible or spills
        even at the top level.  The register-independent prefix supplies
        the demand up front, so the spilling rungs below the first
        feasible level are skipped entirely — the chosen plan and its
        simulated result are identical to walking the full ladder.
        """
        with self._timed():
            return self._evaluate_spill_free(ir, plan, tuple(levels))

    def _evaluate_spill_free(
        self, ir: ProgramIR, plan: KernelPlan, levels: Tuple[int, ...]
    ) -> Optional[Tuple[KernelPlan, SimulationResult]]:
        # Demand is register-independent, so the first non-spilling rung
        # is known without simulating the others.
        try:
            if self.validate:
                validate_plan(ir, plan)
            demand = self.register_demand(ir, plan)
        except INFEASIBLE as exc:
            if self.search_log is not None:
                self.search_log.prune(plan, reason=f"infeasible: {exc}")
            return None
        position = _first_rung(demand, levels)
        if position < 0:
            # Spills even at the top level: every rung would have
            # spilled; the seed ladder discarded the candidate too.
            self.stats.rungs_skipped += len(levels)
            if self.search_log is not None:
                self.search_log.prune(plan, reason=_all_spill(demand, levels))
            return None
        self.stats.rungs_skipped += position
        candidate = plan.replace(max_registers=levels[position])
        result = self._evaluate(ir, candidate)
        if not isinstance(result, SimulationResult):
            return None
        return candidate, result

    # -- batch evaluation ------------------------------------------------------

    def evaluate_batch(
        self,
        ir: ProgramIR,
        plans: Iterable[KernelPlan],
        catch: tuple = INFEASIBLE,
    ) -> List[Optional[SimulationResult]]:
        """Evaluate many plans, results in input order (None = infeasible).

        Structural groups large enough for the vectorized backend are
        priced whole-axis in one NumPy pass; small groups run the scalar
        route — results are bit-for-bit identical either way.
        """
        plans = list(plans)
        with self._timed():
            jobs = self._jobs(ir, plans, None)
            return self._run_batch(ir, plans, jobs, None, catch)

    def evaluate_spill_free_batch(
        self,
        ir: ProgramIR,
        plans: Iterable[KernelPlan],
        levels: Sequence[int] = REGISTER_LEVELS,
    ) -> List[Optional[Tuple[KernelPlan, SimulationResult]]]:
        """Batch variant of :meth:`evaluate_spill_free`, input-ordered."""
        plans = list(plans)
        levels = tuple(levels)
        with self._timed():
            jobs = self._jobs(ir, plans, levels)
            return self._run_batch(ir, plans, jobs, levels, INFEASIBLE)

    # -- vectorized family pricing ---------------------------------------------

    def _jobs(
        self,
        ir: ProgramIR,
        plans: List[KernelPlan],
        levels: Optional[Tuple[int, ...]],
    ) -> List[tuple]:
        """Input-ordered batch jobs; ``levels`` is None for a plain batch.

        A job is a ``(kind, plan, verdict, rungs)`` record.  Plans are
        grouped by structural key; a group of ``MIN_FAMILY`` or more is
        priced in one vectorized pass and becomes ``_LANE`` and
        ``_PRUNE`` records.  A smaller group's plans each run one scalar
        request: a ``_LANE`` without a verdict in a plain batch, a
        ``_LADDER`` in a spill-free one.  An exception while pricing a
        family fails fast, naming the family's first candidate.
        """
        groups: Dict[tuple, List[int]] = {}
        for index, plan in enumerate(plans):
            groups.setdefault(plan_structural_key(plan), []).append(index)
        scalar = _LANE if levels is None else _LADDER
        jobs: List[Optional[tuple]] = [None] * len(plans)
        for indexes in groups.values():
            members = [plans[i] for i in indexes]
            if len(members) < MIN_FAMILY:
                group_jobs = [(scalar, plan, None, 0) for plan in members]
            else:
                try:
                    if levels is None:
                        group_jobs = self._price_group(ir, members)
                    else:
                        group_jobs = self._price_spill_free_group(
                            ir, members, levels
                        )
                except Exception as exc:  # noqa: BLE001 — fail fast
                    self._fail_fast(members[0], exc, indexes[0])
            for i, job in zip(indexes, group_jobs):
                jobs[i] = job
        return jobs  # type: ignore[return-value]

    def _price_spill_free_group(
        self, ir: ProgramIR, group: List[KernelPlan], levels: Tuple[int, ...]
    ) -> List[tuple]:
        """Jobs for one structural family, spill-free mode.

        Mirrors :meth:`_evaluate_spill_free` lane by lane: validation
        failures and all-level spills prune without a request; every
        other lane is a request for its first non-spilling rung that
        carries the lane's verdict.
        """
        from ..gpu import pricing

        proto = group[0]
        if self.validate:
            try:
                validate_plan(ir, proto)
            except INFEASIBLE as exc:
                reason = f"infeasible: {exc}"
                return [(_PRUNE, plan, reason, 0) for plan in group]
        structure = pricing.family_structure(ir, proto)
        fusion = fusion_rejection(ir, proto)
        if fusion is None:
            # One-shot: demand, rung resolution, and pricing share a
            # single pass over the family's lane arrays.  A lane the
            # memo already holds is priced wastefully, but misses
            # dominate searches so overwhelmingly that one fused pass
            # beats a demand pass plus a memo-filtered pricing pass.
            demands, positions, lanes = structure.price_spill_free(
                group, levels, self.device
            )
            positions = positions.tolist()
            refusal = None
        else:
            # Fusion-rejected families never reach the occupancy screen
            # or the model, so pricing their lanes would be pure waste;
            # rung resolution still needs the demand vector.
            demands = structure.demand(group)
            positions = [_first_rung(d, levels) for d in demands.tolist()]
            lanes = None
            refusal = Refusal(fusion.code, fusion.message)
        jobs: List[tuple] = []
        for i, (plan, demand, position) in enumerate(
            zip(group, demands.tolist(), positions)
        ):
            if position < 0:
                jobs.append(
                    (_PRUNE, plan, _all_spill(demand, levels), len(levels))
                )
                continue
            verdict = refusal if lanes is None else _verdict_of(lanes[i])
            candidate = plan.replace(max_registers=levels[position])
            jobs.append((_LANE, candidate, verdict, position))
        return jobs

    def _price_group(
        self, ir: ProgramIR, group: List[KernelPlan]
    ) -> List[tuple]:
        """Jobs for one structural family, plain-batch mode.

        Mirrors ``try_evaluate``: every plan is one request.  A
        validation failure of the prototype is every lane's verdict,
        exactly as the scalar ``_verdict`` would return it; lanes the
        memo already holds carry no verdict and are not priced.
        """
        from ..gpu import pricing

        proto = group[0]
        if self.validate:
            try:
                validate_plan(ir, proto)
            except INFEASIBLE as exc:
                invalid = exc.clone()
                return [(_LANE, plan, invalid, 0) for plan in group]
        structure = pricing.family_structure(ir, proto)
        fusion = fusion_rejection(ir, proto)
        if fusion is not None:
            refusal = Refusal(fusion.code, fusion.message)
            return [(_LANE, plan, refusal, 0) for plan in group]
        to_price: Dict[tuple, KernelPlan] = {}
        keys = []
        for plan in group:
            key = self._key(ir, plan)
            keys.append(key)
            hit = self._cache.get(key)
            if hit is None or hit[0] is not ir:
                to_price.setdefault(key, plan)
        verdicts: Dict[tuple, object] = {}
        if to_price:
            lanes = structure.price(list(to_price.values()), self.device)
            verdicts = dict(zip(to_price, map(_verdict_of, lanes)))
        return [
            (_LANE, plan, verdicts.get(key), 0)
            for plan, key in zip(group, keys)
        ]

    def _run_batch(
        self,
        ir: ProgramIR,
        plans: List[KernelPlan],
        jobs: List[tuple],
        levels: Optional[Tuple[int, ...]],
        catch: tuple,
    ) -> List:
        """Run ``_jobs`` records in input order, one attempt each.

        An infeasible candidate yields None; a spill-free lane yields
        ``(candidate, result)``.  An exception ``catch`` does not cover
        fails fast (:meth:`_fail_fast`), naming the submitted plan.
        """
        stats = self.stats
        results: List = []
        with _span("eval.batch", candidates=len(jobs)):
            for index, (kind, plan, verdict, rungs) in enumerate(jobs):
                try:
                    if kind is _LANE:
                        stats.rungs_skipped += rungs
                        result = self._evaluate(ir, plan, verdict)
                        if not isinstance(result, SimulationResult):
                            result = None
                        elif levels is not None:
                            result = (plan, result)
                    elif kind is _PRUNE:
                        stats.rungs_skipped += rungs
                        if self.search_log is not None:
                            self.search_log.prune(plan, reason=verdict)
                        result = None
                    else:
                        result = self._evaluate_spill_free(ir, plan, levels)
                except catch:
                    result = None
                except Exception as exc:  # noqa: BLE001 — fail fast
                    self._fail_fast(plans[index], exc, index)
                results.append(result)
        return results

    def _fail_fast(self, plan, exc: Exception, index: int) -> NoReturn:
        """End the batch: raise ``exc`` as an :class:`EvaluationError`
        carrying the candidate's plan and batch index."""
        described = plan.describe()
        if self.search_log is not None:
            self.search_log.marker(
                "failure", plan, error=type(exc).__name__, message=str(exc)
            )
        if isinstance(exc, EvaluationError):
            raise exc.with_context(plan=described, candidate=index)
        raise EvaluationError(
            f"evaluation of candidate failed: {exc}",
            plan=described,
            candidate=index,
            phase="evaluate",
        ) from exc

    # -- maintenance -----------------------------------------------------------

    def cache_size(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
