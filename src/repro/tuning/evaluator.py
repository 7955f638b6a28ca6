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
  ``simulate`` path that smaller groups take; per-lane finalization
  replays the normal accounting, memoization and telemetry.  Per-phase
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
from ..lint.rules_plan import _count_rejection, fusion_rejection, plan_rejection
from ..obs import span as _span
from ..obs.search import SearchLog
from ..resilience import EvaluationError

#: Exceptions that mark a candidate as infeasible rather than a bug.
INFEASIBLE = (PlanInfeasible, InvalidPlan)


#: Smallest structural group worth routing through the vectorized
#: pricing backend — below this the per-family setup cost (structure
#: capture, array assembly) beats the per-lane savings.
MIN_FAMILY = 4


@dataclass(frozen=True)
class Measurement:
    """One evaluated candidate."""

    plan: KernelPlan
    time_s: float
    tflops: float


@dataclass
class EvalStats:
    """Cache and throughput statistics of one evaluation engine.

    ``wall_s`` is the real time spent inside the engine's outermost
    frames; nested calls (``evaluate_spill_free`` invoking
    ``evaluate``) are billed once.
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
    not reference the evaluator.  A failure is therefore memoized
    without its traceback (whose frames hold the evaluator), and each
    hit raises a fresh copy with its own ``context``.  A finished job's
    evaluator is freed by reference counting alone.

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
        #: key -> (ir, ("ok", SimulationResult) | ("fail", exception))
        self._cache: Dict[tuple, tuple] = {}
        #: nesting depth of :meth:`_timed` frames; only the outermost bills
        self._depth = 0

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
        """Bill the outermost engine frame's elapsed time to ``wall_s``.

        Nested calls (``evaluate_spill_free`` invoking ``evaluate``)
        must not double-bill, so only the outermost frame reads the clock.
        """
        self._depth += 1
        start = time.perf_counter() if self._depth == 1 else None
        try:
            yield
        finally:
            self._depth -= 1
            if start is not None:
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
            return self._evaluate(ir, plan)

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

    def _evaluate(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        rejection_fn=None,
        produce_fn=None,
    ) -> SimulationResult:
        """One request through the engine, scalar or family-priced.

        Without hooks this is the scalar path: validate, prescreen,
        simulate.  The family-pricing path injects two hooks carrying a
        pre-priced lane — ``rejection_fn(plan) -> (code, message) |
        None`` replaces the prescreen (the lane already knows its
        occupancy verdict; it may also *raise* an INFEASIBLE directly to
        replay a validation failure) and ``produce_fn(plan)`` replaces
        the ``simulate`` call.  Everything observable — request/hit/
        miss/screen/infeasible accounting, memoization, candidate
        telemetry — is identical in both modes.
        """
        self.stats.requests += 1
        key = self._key(ir, plan)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is ir:
            self.stats.hits += 1
            status, value = hit[1]
            if status == "ok":
                self._log_candidate(plan, "cache-hit", result=value)
                return value
            self.stats.infeasible += 1
            self._log_candidate(
                plan, "cache-hit-infeasible", reason=str(value)
            )
            raise value.clone()
        self.stats.misses += 1
        screened = False
        try:
            # Legality prescreen: structural lint rules, the RL3xx
            # transformation certifier (dependence-distance refutations
            # of fusion/time-tile/streaming/retiming), and the cheap
            # register-dependent occupancy suffix — candidates the
            # device cannot run (or whose transformations are provably
            # illegal) are rejected without paying for the counter and
            # timing models, and every rejection carries a stable
            # ``RLxxx`` rule code.
            rejection = None
            witness = None
            if rejection_fn is not None:
                rejection = rejection_fn(plan)
            else:
                if self.validate:
                    validate_plan(ir, plan)
                diag = plan_rejection(
                    ir, plan, self.device, assume_validated=True
                )
                if diag is not None:
                    rejection = (diag.code, diag.message)
                    # RL3xx refutations carry a counterexample (grid
                    # point + event pair); thread it into the exception
                    # context so batch telemetry can show *why* the
                    # plan is illegal, not just the code.
                    witness = diag.witness
            if rejection is not None:
                code, message = rejection
                self.stats.screened += 1
                self.stats.lint_rejections += 1
                screened = True
                raise PlanInfeasible(
                    f"[{code}] {message}",
                    rule=code,
                    witness=(
                        witness.describe() if witness is not None else None
                    ),
                )
            if produce_fn is not None:
                result = produce_fn(plan)
            else:
                result = simulate(ir, plan, self.device)
        except INFEASIBLE as exc:
            self.stats.infeasible += 1
            self._cache[key] = (ir, ("fail", exc.clone()))
            self._log_candidate(
                plan,
                "screened" if screened else "infeasible",
                reason=str(exc),
            )
            raise
        except Exception as exc:  # noqa: BLE001 — telemetry, then re-raise
            # Unexpected error: still one request, so still one
            # candidate event; a batch then fails fast on it.
            self._log_candidate(
                plan, "error", reason=f"{type(exc).__name__}: {exc}"
            )
            raise
        self._cache[key] = (ir, ("ok", result))
        self._log_candidate(plan, "simulated", result=result)
        return result

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
        level = next((lv for lv in levels if demand <= lv), None)
        if level is None:
            # Spills even at the top level: every rung would have
            # spilled; the seed ladder discarded the candidate too.
            self.stats.rungs_skipped += len(levels)
            if self.search_log is not None:
                self.search_log.prune(
                    plan,
                    reason=(
                        f"spills at every register level "
                        f"(demand {demand} > {levels[-1]})"
                    ),
                )
            return None
        position = levels.index(level)
        self.stats.rungs_skipped += position
        candidate = plan.replace(max_registers=level)
        result = self.try_evaluate(ir, candidate)
        if result is None:
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
        if len(plans) >= MIN_FAMILY:
            jobs = self._family_jobs(
                ir, plans, spill_free=False, catch=catch
            )
        else:
            jobs = self._scalar_jobs(ir, plans, spill_free=False, catch=catch)
        return self._run_batch(jobs)

    def evaluate_spill_free_batch(
        self,
        ir: ProgramIR,
        plans: Iterable[KernelPlan],
        levels: Sequence[int] = REGISTER_LEVELS,
    ) -> List[Optional[Tuple[KernelPlan, SimulationResult]]]:
        """Batch variant of :meth:`evaluate_spill_free`, input-ordered."""
        plans = list(plans)
        levels = tuple(levels)
        if len(plans) >= MIN_FAMILY:
            jobs = self._family_jobs(
                ir, plans, spill_free=True, levels=levels
            )
        else:
            jobs = self._scalar_jobs(ir, plans, spill_free=True, levels=levels)
        return self._run_batch(jobs)

    # -- vectorized family pricing ---------------------------------------------

    def _scalar_jobs(
        self,
        ir: ProgramIR,
        plans: List[KernelPlan],
        spill_free: bool,
        levels: Tuple[int, ...] = REGISTER_LEVELS,
        catch: tuple = INFEASIBLE,
    ) -> List[tuple]:
        """``(plan, thunk)`` jobs that each run one scalar request."""
        if spill_free:
            return [
                (p, lambda p=p: self.evaluate_spill_free(ir, p, levels=levels))
                for p in plans
            ]
        return [
            (p, lambda p=p: self.try_evaluate(ir, p, catch=catch))
            for p in plans
        ]

    def _family_jobs(
        self,
        ir: ProgramIR,
        plans: List[KernelPlan],
        spill_free: bool,
        levels: Tuple[int, ...] = REGISTER_LEVELS,
        catch: tuple = INFEASIBLE,
    ) -> List[tuple]:
        """Build input-ordered ``(plan, thunk)`` jobs with family pricing.

        Plans are grouped by structural key; groups of ``MIN_FAMILY`` or
        more are priced in one vectorized pass (eagerly, on the
        submitting thread, under the engine timer) and their thunks
        merely *finalize* the pre-priced lane through the normal
        accounting.  Small groups keep scalar thunks.  An exception
        while pricing a family fails fast, naming the family's first
        candidate.
        """
        with self._timed():
            groups: Dict[tuple, List[int]] = {}
            for index, plan in enumerate(plans):
                groups.setdefault(plan_structural_key(plan), []).append(index)
            jobs: List[Optional[tuple]] = [None] * len(plans)
            for indexes in groups.values():
                members = [plans[i] for i in indexes]
                if len(indexes) < MIN_FAMILY:
                    group_jobs = self._scalar_jobs(
                        ir, members, spill_free, levels, catch
                    )
                else:
                    try:
                        if spill_free:
                            thunks = self._price_spill_free_group(
                                ir, members, levels
                            )
                        else:
                            thunks = self._price_group(ir, members, catch)
                    except Exception as exc:  # noqa: BLE001 — fail fast
                        self._fail_fast(members[0], exc, indexes[0])
                    group_jobs = list(zip(members, thunks))
                for i, job in zip(indexes, group_jobs):
                    jobs[i] = job
            return jobs  # type: ignore[return-value]

    def _price_spill_free_group(
        self, ir: ProgramIR, group: List[KernelPlan], levels: Tuple[int, ...]
    ) -> List:
        """Finalize-thunks for one structural family, spill-free mode.

        Mirrors :meth:`_evaluate_spill_free` lane by lane: validation
        failures and all-level spills prune without a request;
        everything else resolves to the first non-spilling rung and
        finalizes the pre-priced lane through :meth:`_evaluate`.
        """
        from ..gpu import pricing

        proto = group[0]
        if self.validate:
            try:
                validate_plan(ir, proto)
            except INFEASIBLE as exc:
                reason = f"infeasible: {exc}"
                return [
                    (lambda p=p: self._prune_job(p, reason))
                    for p in group
                ]
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
        else:
            # Fusion-rejected families never reach the occupancy screen
            # or the model, so pricing their lanes would be pure waste;
            # rung resolution still needs the demand vector.
            demands = structure.demand(group)
            positions = lanes = None
        thunks: List = []
        for i, plan in enumerate(group):
            demand = int(demands[i])
            if positions is not None:
                position = int(positions[i])
            else:
                level = next((lv for lv in levels if demand <= lv), None)
                position = -1 if level is None else levels.index(level)
            if position < 0:
                reason = (
                    f"spills at every register level "
                    f"(demand {demand} > {levels[-1]})"
                )
                thunks.append(
                    lambda p=plan, r=reason: self._all_spill_job(
                        p, r, len(levels)
                    )
                )
                continue
            candidate = plan.replace(max_registers=levels[position])
            lane = lanes[i] if lanes is not None else None
            thunks.append(
                lambda c=candidate, l=lane, pos=position: (
                    self._spill_free_finalize(ir, c, l, pos, fusion)
                )
            )
        return thunks

    def _price_group(
        self, ir: ProgramIR, group: List[KernelPlan], catch: tuple
    ) -> List:
        """Finalize-thunks for one structural family, plain-batch mode.

        Mirrors ``try_evaluate``: a validation failure replays as an
        in-request infeasibility (request + miss + memoized exception),
        exactly as the scalar ``_evaluate`` raises it.
        """
        from ..gpu import pricing

        proto = group[0]
        invalid: Optional[BaseException] = None
        if self.validate:
            try:
                validate_plan(ir, proto)
            except INFEASIBLE as exc:
                invalid = exc.clone()
        if invalid is not None:
            def reject(plan, exc=invalid):
                raise exc.clone()

            return [
                (
                    lambda p=p: self._finalize(
                        ir, p, None, None, catch, rejection_fn=reject
                    )
                )
                for p in group
            ]
        structure = pricing.family_structure(ir, proto)
        fusion = fusion_rejection(ir, proto)
        need_pricing = fusion is None
        to_price: Dict[tuple, KernelPlan] = {}
        keys = []
        for plan in group:
            key = self._key(ir, plan)
            keys.append(key)
            if need_pricing and not self._memo_has(ir, key):
                to_price.setdefault(key, plan)
        lane_by_key = self._price_lanes(structure, to_price)
        return [
            (
                lambda p=p, l=lane_by_key.get(k): self._finalize(
                    ir, p, l, fusion, catch
                )
            )
            for p, k in zip(group, keys)
        ]

    def _price_lanes(self, structure, to_price: Dict[tuple, KernelPlan]):
        """One vectorized pricing pass over the not-yet-memoized lanes."""
        if not to_price:
            return {}
        keys = list(to_price)
        lanes = structure.price([to_price[k] for k in keys], self.device)
        return dict(zip(keys, lanes))

    def _memo_has(self, ir: ProgramIR, key: tuple) -> bool:
        hit = self._cache.get(key)
        return hit is not None and hit[0] is ir

    def _prune_job(self, plan: KernelPlan, reason: str) -> None:
        with self._timed():
            if self.search_log is not None:
                self.search_log.prune(plan, reason=reason)
            return None

    def _all_spill_job(
        self, plan: KernelPlan, reason: str, rungs: int
    ) -> None:
        with self._timed():
            self.stats.rungs_skipped += rungs
            if self.search_log is not None:
                self.search_log.prune(plan, reason=reason)
            return None

    def _spill_free_finalize(
        self, ir: ProgramIR, candidate: KernelPlan, lane, position: int, fusion
    ) -> Optional[Tuple[KernelPlan, SimulationResult]]:
        with self._timed():
            self.stats.rungs_skipped += position
            result = self._finalize(ir, candidate, lane, fusion, INFEASIBLE)
            if result is None:
                return None
            return candidate, result

    def _finalize(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        lane,
        fusion,
        catch: tuple,
        rejection_fn=None,
    ) -> Optional[SimulationResult]:
        """Resolve one pre-priced lane through the normal request path."""
        with self._timed():
            if rejection_fn is None:
                rejection_fn, produce_fn = self._lane_fns(ir, lane, fusion)
            else:
                produce_fn = None
            try:
                return self._evaluate(
                    ir,
                    plan,
                    rejection_fn=rejection_fn,
                    produce_fn=produce_fn,
                )
            except catch:
                return None

    def _lane_fns(self, ir: ProgramIR, lane, fusion):
        """The two ``_evaluate`` hooks for one pre-priced lane.

        ``lane`` may be None when the memo pre-check expected a cache
        hit (or the family was fusion-rejected before pricing); the
        produce hook then falls back to a scalar ``simulate`` so a cache
        cleared in between still yields a correct result.
        """

        def rejection_fn(plan):
            if fusion is not None:
                _count_rejection(fusion.code)
                return (fusion.code, fusion.message)
            if lane is not None and lane.occ_message is not None:
                self._count_occupancy_screen(lane.occ_code)
                return (lane.occ_code, lane.occ_message)
            return None

        def produce_fn(plan):
            if lane is None:
                return simulate(ir, plan, self.device)
            self.stats.vectorized += 1
            return lane.result

        return rejection_fn, produce_fn

    @staticmethod
    def _count_occupancy_screen(code: Optional[str]) -> None:
        """Mirror ``plan_occupancy``'s rejection counters for a lane."""
        from ..obs import counter, metrics_enabled

        if metrics_enabled():
            counter("simulate.prescreen_rejections").add()
            counter(f"lint.reject.{code}").add()

    def _run_batch(self, jobs) -> List:
        """Run ``(plan, thunk)`` jobs, input-ordered, one attempt each.

        An infeasible candidate yields None.  Any other exception fails
        fast (:meth:`_fail_fast`).
        """
        results: List = []
        with _span("eval.batch", candidates=len(jobs)):
            for index, (plan, thunk) in enumerate(jobs):
                try:
                    result = thunk()
                except INFEASIBLE:
                    result = None
                except Exception as exc:  # noqa: BLE001 — fail fast
                    self._fail_fast(plan, exc, index)
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
