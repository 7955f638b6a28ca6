"""Shared plan-evaluation engine: memoized, incremental, vectorized.

Every result in this repository flows through repeated invocations of
the analytical model — hierarchical autotuning (§V), deep tuning's
per-degree sweeps (§VI-A), fission search (§VI-B), random search and the
baseline generators all price candidate :class:`KernelPlan`s with the
lane model of :mod:`repro.gpu.pricing`.  A fast analytical model is only
a net win while evaluation cost stays negligible next to the
search-space size, so all search code routes measurements through one
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
* **family pricing** — batches are grouped by structural plan key and
  each group, whatever its size, is priced in one NumPy pass over its
  lane axis (:mod:`repro.gpu.pricing`); a lone plan is a one-lane
  family.  Each priced lane is then one request through one seam
  (:meth:`PlanEvaluator._evaluate`), carrying its verdict, which does
  the accounting, memoization and telemetry.  A stage-1
  :class:`~repro.tuning.space.KnobGrid` is priced from its knob
  columns and answered with a :class:`Resolution`, which builds plans
  and results only for the lanes that are read
  (``docs/performance_model.md``).  Each request is one ``candidate``
  row of the optional search log, tagged with the tuner stage that
  made it.
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
and the occupancy prescreen are always on, and every family takes the
same pricing path.  A :class:`PlanEvaluator` takes only a device,
whether to validate plans, and an optional search log.

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
from ..codegen.tiling import (
    family_key_with,
    plan_family_key,
    plan_structural_key,
)
from ..gpu.counters import SimulationResult
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import PlanInfeasible
from ..ir.stencil import ProgramIR
from ..lint.rules_plan import fusion_rejection
from ..obs import counter as _counter
from ..obs import span as _span
from ..obs.search import SearchLog
from ..resilience import EvaluationError
from .space import KnobGrid

#: Exceptions that mark a candidate as infeasible rather than a bug.
INFEASIBLE = (PlanInfeasible, InvalidPlan)


class Refusal:
    """A request the prescreen refused: its lint rule and message.

    The verdict a family lane carries when the occupancy screen or the
    fusion certifier rejects it, and the memo entry of every screened
    request.  It stands for the :class:`PlanInfeasible` a caller of
    :meth:`PlanEvaluator.evaluate` gets, which is built only when it is
    raised (:meth:`clone`).  RL3xx refusals keep their certifier
    ``witness``.
    """

    __slots__ = ("message", "rule", "witness")

    def __init__(self, rule: str, message: str, witness: Optional[str] = None):
        self.message = f"[{rule}] {message}"
        self.rule = rule
        self.witness = witness

    def __str__(self) -> str:
        return self.message

    def clone(self) -> PlanInfeasible:
        """A fresh :class:`PlanInfeasible` for this refusal."""
        return PlanInfeasible(
            self.message, rule=self.rule, witness=self.witness
        )


def _refusal(finding) -> Optional[Refusal]:
    """The :class:`Refusal` of a certifier finding (None for none)."""
    if finding is None:
        return None
    witness = finding.witness
    return Refusal(
        finding.code,
        finding.message,
        witness=None if witness is None else witness.describe(),
    )


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
    misses: int = 0  # went to the model (screened or fully priced)
    infeasible: int = 0  # requests that turned out infeasible
    rungs_skipped: int = 0  # escalation rungs resolved without simulating
    screened: int = 0  # refused by the prescreen, not priced
    lint_rejections: int = 0  # screened rejections carrying a lint rule code
    vectorized: int = 0  # misses priced to a result by a family pass
    wall_s: float = 0.0  # real time the engine was busy

    @property
    def simulations(self) -> int:
        """Candidates that reached the model unscreened:
        ``misses - screened``.

        ``vectorized`` of these were priced by a family pass; the rest
        failed validation.
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
        self.stats = EvalStats()
        #: key -> (ir, SimulationResult | Refusal | INFEASIBLE exception)
        self._cache: Dict[tuple, tuple] = {}
        #: (rule, occupancy?) -> refusals of the batch being resolved
        self._refused: Dict[Tuple[str, bool], int] = {}

    # -- timing ----------------------------------------------------------------

    @contextmanager
    def _timed(self):
        """Bill one engine frame's elapsed time to ``wall_s`` and its
        refusals to the prescreen counters (:meth:`_count_refusals`).

        Every public entry point opens exactly one frame and the engine
        never calls its own public methods, so frames do not nest.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self._count_refusals()
            self.stats.wall_s += time.perf_counter() - start

    # -- single evaluation -----------------------------------------------------

    def _key(self, ir: ProgramIR, plan: KernelPlan) -> tuple:
        # The device profile is part of the content address: the same
        # plan priced on two profiles must never share a cache entry
        # (profiles are frozen, hashable value objects — two specs that
        # merely share a name still produce distinct keys).
        return (id(ir), self.device, plan_family_key(plan), plan.max_registers)

    def evaluate(self, ir: ProgramIR, plan: KernelPlan) -> SimulationResult:
        """Validate, prescreen and price one plan, memoized.

        Raises :class:`InvalidPlan` as ``validate_plan`` would, or a
        :class:`PlanInfeasible` carrying the prescreen's RLxxx rule (and,
        for an RL3xx refutation, the certifier's witness).
        """
        with self._timed():
            res = self._resolve(ir, [plan], None)
        if res.ok[0]:
            return res.result(0)
        raise res.verdict(0).clone()

    def _evaluate(self, ir: ProgramIR, key: tuple, res: "Resolution",
                  i: int, src, at: Optional[int] = None) -> None:
        """One request: every candidate crosses this seam exactly once.

        ``key`` is the request's memo key (:meth:`_key` of its plan).
        ``src``/``at`` is what the model says about the plan: a family
        pass and the lane's index in it (a result or an occupancy
        refusal), or, with ``at`` None, a fusion :class:`Refusal` or the
        validation failure its family's prototype raised.  The seam does
        the request/hit/miss/screen/infeasible accounting, memo write
        and candidate event, and records the verdict as lane ``i`` of
        ``res``; a cache hit records the memoized verdict instead.
        """
        stats = self.stats
        stats.requests += 1
        hit = self._cache.get(key)
        if hit is not None and hit[0] is ir:
            stats.hits += 1
            _, src, at = hit
            ok = res.record(i, key, src, at)
            if not ok:
                stats.infeasible += 1
            self._log_lane(
                res, i, "cache-hit" if ok else "cache-hit-infeasible"
            )
            return
        stats.misses += 1
        self._cache[key] = (ir, src, at)
        if res.record(i, key, src, at):
            stats.vectorized += 1
            self._log_lane(res, i, "simulated")
            return
        stats.infeasible += 1
        disposition = "infeasible"
        if at is not None or isinstance(src, Refusal):
            # An occupancy refusal (a lane of a pass) or a fusion one.
            refusal = (src.rule if at is None else src.code(at), at is not None)
            self._refused[refusal] = self._refused.get(refusal, 0) + 1
            stats.screened += 1
            stats.lint_rejections += 1
            disposition = "screened"
        self._log_lane(res, i, disposition)

    def _log_lane(self, res: "Resolution", i: int, disposition: str) -> None:
        if self.search_log is not None:
            self.search_log.lane(
                res, i, disposition, res.gflops(i), device=self.device.name
            )

    def memoized(
        self, ir: ProgramIR, plan: KernelPlan
    ) -> Optional[SimulationResult]:
        """The result this engine already priced for ``plan``, read from
        the memo without a request (None when it holds no result).

        For a caller that re-reads plans the search settled on, such as
        :func:`repro.codegen.generator.schedule_tflops` pricing a
        winning schedule: no request, hit or event is recorded.
        """
        hit = self._cache.get(self._key(ir, plan))
        if hit is None or hit[0] is not ir:
            return None
        _, src, at = hit
        if at is None:
            return src if isinstance(src, SimulationResult) else None
        return src.result(at) if src.ok[at] else None

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
            return self._resolve(ir, [plan], tuple(levels)).found(0)

    # -- batch evaluation ------------------------------------------------------

    def evaluate_batch(
        self,
        ir: ProgramIR,
        plans: Iterable[KernelPlan],
        catch: tuple = INFEASIBLE,
    ) -> List[Optional[SimulationResult]]:
        """Evaluate many plans, results in input order (None = infeasible).

        Each structural group is priced whole-axis in one NumPy pass.
        """
        plans = list(plans)
        with self._timed(), _span("eval.batch", candidates=len(plans)):
            res = self._resolve(ir, plans, None, catch, fail_fast=True)
        return [res.result(i) if ok else None for i, ok in enumerate(res.ok)]

    def evaluate_spill_free_batch(
        self,
        ir: ProgramIR,
        plans,
        levels: Sequence[int] = REGISTER_LEVELS,
    ):
        """Batch variant of :meth:`evaluate_spill_free`, input-ordered.

        ``plans`` is a plan sequence, answered with one ``(plan, result)``
        or None per plan, or a stage-1 :class:`~repro.tuning.space.KnobGrid`,
        answered with its :class:`Resolution`: lane verdicts that build a
        plan or a result only when one is read.
        """
        grid = plans if isinstance(plans, KnobGrid) else None
        if grid is None:
            plans = list(plans)
        with self._timed(), _span("eval.batch", candidates=len(plans)):
            res = self._resolve(
                ir, plans, tuple(levels), INFEASIBLE, fail_fast=True
            )
        if grid is not None:
            return res
        return [res.found(i) for i in range(len(res))]

    # -- the resolver ----------------------------------------------------------

    def _resolve(
        self,
        ir: ProgramIR,
        lanes,
        levels: Optional[Tuple[int, ...]],
        catch: tuple = (),
        fail_fast: bool = False,
    ) -> "Resolution":
        """Resolve a batch: every entry point's one path to the model.

        ``lanes`` is a plan list or a :class:`KnobGrid`; ``levels`` is
        None for plain requests (each plan priced at its own register
        cap) or the register ladder of a spill-free batch.  Lanes are
        grouped into structural families, and each family, whatever its
        size, is priced in one pass from its knob columns
        (:meth:`_price_family`).  Requests then run in input order
        through :meth:`_evaluate`.  With ``fail_fast``, an exception
        ``catch`` does not cover ends the batch (:meth:`_fail_fast`);
        otherwise it propagates as raised.
        """
        res = Resolution(lanes, levels)
        for family in res.families:
            try:
                self._price_family(ir, family, levels)
            except Exception as exc:  # noqa: BLE001 — fail fast
                if not fail_fast:
                    raise
                first = family.members[0]
                self._fail_fast(res.submitted(first), exc, first)
        stats = self.stats
        log = self.search_log
        irid, device = id(ir), self.device
        lane_family, lane_index = res.lane_family, res.lane_index
        for i in range(len(res)):
            family = lane_family[i]
            j = lane_index[i]
            try:
                src, at = family.shared, None
                if family.lane_of is not None and family.lane_of[j] >= 0:
                    src, at = family.lanes, family.lane_of[j]
                elif family.refusals is not None:
                    src = family.refusals[j]
                if levels is None:
                    key = self._key(ir, family.plan(j))
                    self._evaluate(ir, key, res, i, src, at)
                    continue
                if family.pruned is not None:
                    res.note[i] = family.pruned
                    position = -1
                else:
                    position = family.positions[j]
                    if position < 0:
                        # Spills even at the top level: every rung
                        # would have spilled.
                        stats.rungs_skipped += len(levels)
                        res.note[i] = family.demands[j]
                    else:
                        stats.rungs_skipped += position
                if position >= 0:
                    res.rung[i] = regs = levels[position]
                    key = (irid, device, family.family_key(j), regs)
                    self._evaluate(ir, key, res, i, src, at)
                elif log is not None:
                    log.lane(res, i)
            except catch:
                res.ok[i] = False
            except Exception as exc:  # noqa: BLE001 — fail fast
                if not fail_fast:
                    raise
                self._fail_fast(res.submitted(i), exc, i)
        return res

    def _count_refusals(self) -> None:
        """Add the batch's refusals to the prescreen counters:
        ``lint.reject.<rule>``, plus ``simulate.prescreen_rejections``
        for the occupancy screen's."""
        for (rule, occupancy), n in self._refused.items():
            _counter(f"lint.reject.{rule}").add(n)
            if occupancy:
                _counter("simulate.prescreen_rejections").add(n)
        self._refused.clear()

    def _price_family(
        self, ir: ProgramIR, family: "_Family", levels
    ) -> None:
        """Price one structural family from its knob columns.

        A validation failure of the prototype is every lane's verdict
        (a plain batch), or prunes every lane without a request (a
        spill-free one); validation reads no lane knob.  A fusion
        refusal is the verdict of the lanes it covers
        (:meth:`_certify`), which are never priced.  The other lanes: a
        spill-free family resolves demand and rungs first, of refused
        lanes too, and prices only the lanes that have a rung, at that
        rung; a plain family prices the lanes the memo does not hold.
        """
        from ..gpu import pricing

        proto = family.proto
        if self.validate:
            try:
                validate_plan(ir, proto)
            except INFEASIBLE as exc:
                if levels is None:
                    family.shared = exc.clone()
                else:
                    family.pruned = f"infeasible: {exc}"
                return
        structure = pricing.family_structure(ir, proto)
        refusals = family.refusals = self._certify(ir, family)
        skip = None
        everyone = range(len(family.members))
        if refusals is not None:
            skip = [refusal is not None for refusal in refusals]
            if all(skip):
                if levels is not None:
                    # Rung resolution still needs the demand vector.
                    demands = structure.demand(family.knobs(everyone))
                    positions, _ = pricing.first_rungs(demands, levels)
                    family.demands = demands.tolist()
                    family.positions = positions.tolist()
                return
        if levels is not None:
            demands, positions, lanes = structure.price_spill_free(
                family.knobs(everyone), levels, self.device, skip
            )
            family.demands = demands.tolist()
            family.positions = positions.tolist()
            family.lanes, family.lane_of = lanes, lanes.lane_of
            return
        # Plain batch: every lane at its own cap; a refused lane or one
        # the memo holds needs no price, and duplicates share one.
        irid, device = id(ir), self.device
        cache = self._cache
        slot: Dict[tuple, int] = {}
        to_price: List[int] = []
        lane_of: List[int] = []
        for j in everyone:
            if skip is not None and skip[j]:
                lane_of.append(-1)
                continue
            plan = family.plans[j]
            key = (irid, device, plan_family_key(plan), plan.max_registers)
            hit = cache.get(key)
            if hit is not None and hit[0] is ir:
                lane_of.append(-1)
                continue
            at = slot.get(key)
            if at is None:
                at = slot[key] = len(to_price)
                to_price.append(j)
            lane_of.append(at)
        if to_price:
            family.lanes = structure.price(family.knobs(to_price), self.device)
        family.lane_of = lane_of

    @staticmethod
    def _certify(ir: ProgramIR, family: "_Family") -> Optional[list]:
        """Each member's fusion :class:`Refusal` (None: certified), or
        None when the certifier refuses no member.

        Within a family the certifier reads only the streaming mode and
        the chunk count (the concurrent-chunk race check), so it runs
        once per distinct value of the two; a grid's lanes all stream
        like its prototype.
        """
        if family.plans is None:
            refusal = _refusal(fusion_rejection(ir, family.proto))
            if refusal is None:
                return None
            return [refusal] * len(family.members)
        verdicts: Dict[tuple, Optional[Refusal]] = {}
        modes = []
        for plan in family.plans:
            mode = (plan.streaming, plan.stream_chunks)
            if mode not in verdicts:
                verdicts[mode] = _refusal(fusion_rejection(ir, plan))
            modes.append(mode)
        if all(refusal is None for refusal in verdicts.values()):
            return None
        return [verdicts[mode] for mode in modes]

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


class _Family:
    """One structural family of a batch, and what its pricing found.

    The submitted lanes are ``plans`` (a plan list) or lanes
    ``members`` of ``grid``; ``proto`` is the first of them.  A priced
    family holds either one ``shared`` verdict (its prototype's
    validation failure) or a ``pruned`` reason (that failure in a
    spill-free batch).  Otherwise each member has a fusion
    ``refusals[j]`` (``refusals`` None: no member was refused), or a
    priced lane ``lane_of[j]`` of the pass ``lanes`` (-1: not priced).
    A spill-free family also holds each member's register ``demands``
    and rung ``positions`` (-1: spills at every rung).
    """

    __slots__ = (
        "proto", "members", "plans", "grid", "shared", "pruned",
        "refusals", "demands", "positions", "lanes", "lane_of", "_key",
    )

    def __init__(self, proto: KernelPlan, members: List[int],
                 plans: Optional[List[KernelPlan]] = None,
                 grid: Optional[KnobGrid] = None):
        self.proto = proto
        self.members = members
        self.plans = plans
        self.grid = grid
        self.shared = None
        self.pruned: Optional[str] = None
        self.refusals: Optional[list] = None
        self.demands: Optional[List[int]] = None
        self.positions: Optional[List[int]] = None
        self.lanes = None
        self.lane_of: Optional[List[int]] = None
        self._key: Optional[tuple] = None

    def plan(self, j: int) -> KernelPlan:
        if self.plans is not None:
            return self.plans[j]
        return self.grid.plan(self.members[j])

    def family_key(self, j: int) -> tuple:
        """Member ``j``'s :func:`plan_family_key`, built without a plan
        for a grid lane."""
        if self.plans is not None:
            return plan_family_key(self.plans[j])
        if self._key is None:
            self._key = plan_family_key(self.proto)
        grid, lane = self.grid, self.members[j]
        return family_key_with(
            self._key,
            grid.blocks[grid.block_ix[lane]],
            grid.unrolls[grid.unroll_ix[lane]],
        )

    def knobs(self, js):
        """The pricing knob columns of members ``js``."""
        from ..gpu import pricing

        if self.plans is not None:
            return pricing.knobs_of([self.plans[j] for j in js])
        grid, members, proto = self.grid, self.members, self.proto
        return pricing.LaneKnobs(
            grid.blocks,
            grid.unrolls,
            [grid.block_ix[members[j]] for j in js],
            [grid.unroll_ix[members[j]] for j in js],
            proto.unroll_blocked,
            proto.max_registers,
            proto.prefetch,
            proto.perspective,
            proto.stream_chunks,
        )


class Resolution:
    """A resolved batch: one verdict per submitted lane, in input order.

    ``ok[i]`` says whether lane ``i`` found a feasible result.  A
    requested lane keeps its memo key and where its verdict lives
    (``src``/``at``: a family pass and a lane of it, or the verdict
    itself); a pruned lane keeps its reason (``note``: a string, or the
    register demand of a lane that spills at every rung).  Plans,
    results and reasons are built only when read, so a search that
    ranks lanes by :meth:`time_s` builds objects for the lanes it
    keeps alone.  Candidate rows of the search log read their fields
    from here too.
    """

    __slots__ = (
        "levels", "families", "lane_family", "lane_index", "rung", "keys",
        "src", "at", "ok", "note", "_plans",
    )

    def __init__(self, lanes, levels: Optional[Tuple[int, ...]]):
        self.levels = levels
        if isinstance(lanes, KnobGrid):
            self.families = [
                _Family(proto, members, grid=lanes)
                for proto, members in lanes.families()
            ]
        else:
            groups: Dict[tuple, _Family] = {}
            for i, plan in enumerate(lanes):
                key = plan_structural_key(plan)
                family = groups.get(key)
                if family is None:
                    family = groups[key] = _Family(plan, [], plans=[])
                family.members.append(i)
                family.plans.append(plan)
            self.families = list(groups.values())
        n = len(lanes)
        self.lane_family: List[_Family] = [None] * n  # type: ignore[list-item]
        self.lane_index = [0] * n
        for family in self.families:
            for j, i in enumerate(family.members):
                self.lane_family[i] = family
                self.lane_index[i] = j
        #: register cap each spill-free request was made at
        self.rung: List[Optional[int]] = [None] * n
        self.keys: List[Optional[tuple]] = [None] * n
        self.src: list = [None] * n
        self.at: List[Optional[int]] = [None] * n
        self.ok = [False] * n
        self.note: list = [None] * n
        self._plans: Dict[int, KernelPlan] = {}

    def __len__(self) -> int:
        return len(self.ok)

    def record(self, i: int, key: tuple, src, at: Optional[int]) -> bool:
        """Lane ``i`` was requested under ``key``; ``src``/``at`` holds
        its verdict.  Returns whether that verdict is a result."""
        self.keys[i] = key
        self.src[i] = src
        self.at[i] = at
        ok = src.ok[at] if at is not None else isinstance(
            src, SimulationResult
        )
        self.ok[i] = ok
        return ok

    def submitted(self, i: int) -> KernelPlan:
        """Lane ``i`` as it was submitted."""
        return self.lane_family[i].plan(self.lane_index[i])

    def plan(self, i: int) -> KernelPlan:
        """Lane ``i``'s requested plan: the submitted plan at its rung."""
        rung = self.rung[i]
        if rung is None:
            return self.submitted(i)
        plan = self._plans.get(i)
        if plan is None:
            plan = self._plans[i] = self.submitted(i).replace(
                max_registers=rung
            )
        return plan

    def result(self, i: int) -> SimulationResult:
        """Feasible lane ``i``'s result (one object per priced lane)."""
        at = self.at[i]
        return self.src[i] if at is None else self.src[i].result(at)

    def time_s(self, i: int) -> float:
        at = self.at[i]
        return self.src[i].time_s if at is None else self.src[i].time_s[at]

    def tflops(self, i: int) -> float:
        at = self.at[i]
        return self.src[i].tflops if at is None else self.src[i].tflops[at]

    def gflops(self, i: int) -> Optional[float]:
        return self.tflops(i) * 1e3 if self.ok[i] else None

    def found(self, i: int) -> Optional[Tuple[KernelPlan, SimulationResult]]:
        """``(plan, result)`` of a feasible lane, else None."""
        return (self.plan(i), self.result(i)) if self.ok[i] else None

    def measurement(self, i: int) -> Measurement:
        """Feasible lane ``i`` as a :class:`Measurement`."""
        return Measurement(
            plan=self.plan(i), time_s=self.time_s(i), tflops=self.tflops(i)
        )

    def verdict(self, i: int):
        """Requested lane ``i``'s verdict: its result, a
        :class:`Refusal` or the infeasibility it memoized."""
        src, at = self.src[i], self.at[i]
        if at is None:
            return src
        if self.ok[i]:
            return src.result(at)
        return Refusal(src.code(at), src.rejection(at)[0])

    def reason(self, i: int) -> Optional[str]:
        """Why lane ``i`` has no result (None when it has one)."""
        if self.keys[i] is None:
            note = self.note[i]
            if isinstance(note, str):
                return note
            return _all_spill(note, self.levels)
        return None if self.ok[i] else str(self.verdict(i)) or None

    def identity(self, i: int) -> tuple:
        """Requested lane ``i``'s plan identity: (family key, registers)."""
        key = self.keys[i]
        return key[2], key[3]
