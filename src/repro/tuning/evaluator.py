"""Shared plan-evaluation engine: memoized, incremental, vectorized.

Every result in this repository flows through repeated invocations of
the analytical model — hierarchical autotuning (§V), deep tuning's
per-degree sweeps (§VI-A), fission search (§VI-B), random search and the
baseline generators all price candidate :class:`KernelPlan`s with the
lane model of :mod:`repro.gpu.pricing`.  A fast analytical model is only
a net win while evaluation cost stays negligible next to the
search-space size, so all search code routes measurements through one
:class:`PlanEvaluator`, which provides:

* **content-addressed memoization** — verdicts are cached by IR
  identity, device and a canonical plan key, so duplicate variants
  (stage 2 generates overlapping variants per survivor, deep tuning
  re-visits degree-1 plans, benchmarks re-tune the same kernels) are
  never priced twice.  The memo is two-level: one table per structural
  family (IR, device and :func:`plan_structural_key`, hashed once per
  family), keyed inside by one int per lane that encodes its knob
  number (:func:`~repro.codegen.tiling.knob_number`) and register cap.
  Memoized and fresh paths return the very same
  :class:`SimulationResult` objects.
* **incremental simulation** — the register-independent prefix
  (geometry, stages, buffers, access analysis, register demand) is
  cached per plan *family*, so the paper's register-escalation ladder
  (32 → 64 → 128 → 255) collapses: demand is known up front and the
  evaluator jumps straight to the first non-spilling rung instead of
  simulating every spilling one.
* **family pricing and settling** — batches are grouped by structural
  plan key and each group, whatever its size, is priced in one NumPy
  pass over its lane axis (:mod:`repro.gpu.pricing`); a lone plan is a
  one-lane family.  Each family is then *settled* in one step
  (:meth:`PlanEvaluator._settle`, the request seam): its lanes, in
  input order, are looked up in the family's memo table and their
  verdicts and dispositions written into the columns of a
  :class:`Resolution`.  The request counters are tallied from the
  disposition column once per batch, and the optional search log
  records the batch as one block of rows.  A tuner stage's
  :class:`~repro.tuning.space.KnobGrid` is priced from its knob
  columns; the :class:`Resolution` builds plans and results only for
  the lanes that are read (``docs/performance_model.md``).
* **batch evaluation** — :meth:`PlanEvaluator.evaluate_batch` runs a
  batch serially on the calling thread with input-ordered results.  A
  search prices its candidates in about a second, so no worker pool
  has a workload to hide, and the engine starts no thread.
* **fail-fast** — every batch job is one attempt.  The model is
  deterministic, so a candidate that raised once would raise again: an
  unexpected (non-infeasibility) exception, whether raised while
  settling a candidate or while pricing its whole family, ends the
  batch as an :class:`~repro.resilience.EvaluationError` naming the
  candidate (``docs/robustness.md``).  The lanes settled before it are
  counted and logged.
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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import compress
from typing import Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple

from ..codegen.plan import (
    MAX_REGISTERS,
    REGISTER_LEVELS,
    STREAM_CONCURRENT,
    KernelPlan,
)
from ..codegen.resources import InvalidPlan, validate_plan
from ..codegen.tiling import (
    plan_family_key,
    plan_knob_number,
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

#: The disposition of a lane no step has settled yet (``Resolution``).
PENDING = "pending"

#: A lane's memo key is ``knob number * _REGISTER_SPAN + register cap``:
#: one int, distinct for every cap a plan may ask for.
_REGISTER_SPAN = MAX_REGISTERS + 1


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
        return replace(self)

    def since(self, before: "EvalStats") -> "EvalStats":
        """Difference of two snapshots: activity between them."""
        return EvalStats(**{
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        })

    def as_dict(self) -> Dict[str, float]:
        """Every counter, then the two derived counts, then ``wall_s``."""
        counts = {f.name: getattr(self, f.name) for f in fields(self)}
        wall_s = counts.pop("wall_s")
        counts["simulations"] = self.simulations
        counts["simulations_avoided"] = self.simulations_avoided
        counts["wall_s"] = wall_s
        return counts

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
        #: set, every resolved batch is one block of the log, with one
        #: ``candidate`` row per request — cache hits, screens and
        #: infeasibilities included — so the log mirrors
        #: ``stats.requests``.
        self.search_log = search_log
        self.stats = EvalStats()
        #: family part -> (ir, :class:`_MemoTable` by lane part); see
        #: :meth:`_key`.
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
        """``plan``'s memo key: ``(family part, lane part)``.

        The family part, ``(id(ir), device, structural key)``, names one
        memo table and is shared by every lane of a structural family;
        the lane part, one int encoding the plan's knob number and
        register cap, keys the lane inside it.  Together they hold what
        :func:`plan_family_key` and the register cap hold.  The device
        profile is part of the content address: the same plan priced on
        two profiles never shares a cache entry (profiles are frozen,
        hashable value objects — two specs that merely share a name
        still produce distinct keys).
        """
        return (
            (id(ir), self.device, plan_structural_key(plan)),
            plan_knob_number(plan) * _REGISTER_SPAN + plan.max_registers,
        )

    def _table(self, ir: ProgramIR, key: tuple) -> "_MemoTable":
        """The memo table of the family part ``key`` (made when new)."""
        entry = self._cache.get(key)
        if entry is None or entry[0] is not ir:
            entry = self._cache[key] = (ir, _MemoTable())
        return entry[1]

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

    def memoized(
        self, ir: ProgramIR, plan: KernelPlan
    ) -> Optional[SimulationResult]:
        """The result this engine already priced for ``plan``, read from
        the memo without a request (None when it holds no result).

        For a caller that re-reads plans the search settled on, such as
        :func:`repro.codegen.generator.schedule_tflops` pricing a
        winning schedule: no request, hit or event is recorded.
        """
        family, lane = self._key(ir, plan)
        entry = self._cache.get(family)
        if entry is None or entry[0] is not ir:
            return None
        table = entry[1]
        src = table.src.get(lane)
        if src is None:
            return None
        at = table.at[lane]
        return None if at is None or not src.ok[at] else src.result(at)

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
        or None per plan, or a :class:`~repro.tuning.space.KnobGrid`,
        answered with its :class:`Resolution`: lane verdicts that build a
        plan or a result only when one is read.  Only this entry point
        takes a grid.
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
        grouped into structural families, each family probes the memo
        once for its table, and each is priced in one pass from its
        knob columns (:meth:`_price_lanes`).  The families are then
        settled one by one (:meth:`_settle`), and the batch's tallies
        and log block are recorded (:meth:`_account`).  With
        ``fail_fast``, an exception ``catch`` does not cover ends the
        batch (:meth:`_fail_fast`) after the lanes settled before it are
        recorded; otherwise it propagates as raised.  An exception
        ``catch`` covers leaves the family's unsettled lanes infeasible.
        """
        if levels is not None and not all(
            1 <= regs <= MAX_REGISTERS for regs in levels
        ):
            raise ValueError(
                f"register levels must be in [1, {MAX_REGISTERS}]: {levels}"
            )
        res = Resolution(lanes, levels)
        irid, device = id(ir), self.device
        for family in res.families:
            family.memo_key = key = (irid, device, family.structural)
            family.table = self._table(ir, key)
            try:
                self._price_lanes(ir, family, levels)
            except Exception as exc:  # noqa: BLE001 — fail fast
                if not fail_fast:
                    raise
                first = family.members[0]
                self._fail_fast(res.submitted(first), exc, first)
        failure = None
        try:
            for family in res.families:
                try:
                    self._settle(res, family, levels)
                except catch:
                    pass
                except Exception as exc:  # noqa: BLE001 — fail fast
                    if not fail_fast:
                        raise
                    failure = family, exc
                    break
        finally:
            self._account(res)
        if failure is not None:
            family, exc = failure
            disposition = res.disposition
            i = next(
                (i for i in family.members if disposition[i] == PENDING),
                family.members[0],
            )
            self._fail_fast(res.submitted(i), exc, i)
        return res

    def _settle(self, res: "Resolution", family: "_Family", levels) -> None:
        """Settle a priced family: the request seam.

        Every requested lane crosses this step exactly once, in input
        order within its family, so a duplicate lane is a miss the
        first time and a hit after that.  A lane's memo key is its lane
        part in the family's memo ``table``; a hit takes the memoized
        verdict, a miss the family's (a priced lane, a fusion
        :class:`Refusal` or the prototype's validation failure) and
        memoizes it.  Each lane's key (which holds its register rung),
        verdict and disposition (``simulated``, ``cache-hit``,
        ``cache-hit-infeasible``, ``screened`` or ``infeasible``; None
        for a spill-free lane pruned without a request) go into the
        columns of ``res``, the disposition before the memo write; the
        request counters are tallied from those columns
        (:meth:`_account`), and the family's refusals by rule here.
        """
        members, table = family.members, family.table
        family.table = None  # the log keeps the family, not the memo
        disposition, note = res.disposition, res.note
        if levels is not None and family.pruned is not None:
            for i in members:
                note[i] = family.pruned
                disposition[i] = None
            return
        keys = res.keys
        src_col, at_col, ok_col = res.src, res.at, res.ok
        sources, ats = table.src, table.at
        lanes, lane_of = family.lanes, family.lane_of
        if lane_of is None:
            lane_of = (-1,) * len(members)
        lane_ok = None if lanes is None else lanes.ok
        refusals, shared = family.refusals, family.shared
        if levels is None:
            lane_keys = family.lane_keys
        else:
            knobs = family.knob_numbers()
            positions, demands = family.positions, family.demands
            top = len(levels)
        skipped = 0
        # The settled lanes' refusals: occupancy (a lane of the pass)
        # and fusion (a Refusal), tallied by rule when the step ends.
        occupancy: List[int] = []
        fusion: List[str] = []
        try:
            for j, i in enumerate(members):
                if levels is None:
                    key = lane_keys[j]
                else:
                    position = positions[j]
                    if position < 0:
                        # Spills even at the top level: every rung
                        # would have spilled.
                        skipped += top
                        note[i] = demands[j]
                        disposition[i] = None
                        continue
                    skipped += position
                    key = knobs[j] * _REGISTER_SPAN + levels[position]
                keys[i] = key
                src = sources.get(key)
                if src is not None:
                    at = ats[key]
                    ok = at is not None and src.ok[at]
                    disposition[i] = (
                        "cache-hit" if ok else "cache-hit-infeasible"
                    )
                else:
                    at = lane_of[j]
                    if at >= 0:
                        src = lanes
                        ok = lane_ok[at]
                        if ok:
                            disposition[i] = "simulated"
                        else:
                            disposition[i] = "screened"
                            occupancy.append(at)
                    else:
                        at = None
                        ok = False
                        src = shared if refusals is None else refusals[j]
                        if isinstance(src, Refusal):
                            disposition[i] = "screened"
                            fusion.append(src.rule)
                        else:
                            disposition[i] = "infeasible"
                    sources[key] = src
                    ats[key] = at
                src_col[i] = src
                at_col[i] = at
                ok_col[i] = ok
        finally:
            self.stats.rungs_skipped += skipped
            refused = self._refused
            for rule in map(lanes.code, occupancy) if occupancy else ():
                refused[rule, True] = refused.get((rule, True), 0) + 1
            for rule in fusion:
                refused[rule, False] = refused.get((rule, False), 0) + 1

    def _account(self, res: "Resolution") -> None:
        """Tally a resolved batch's settled lanes into the request
        counters, and record them as one block of the search log.

        Every counter is a count of one disposition or a sum of a few,
        read off the disposition column at once; a batch that ended
        early counts and logs only the lanes it settled.
        """
        tally = Counter(res.disposition)
        pending = tally.pop(PENDING, 0)
        simulated = tally["simulated"]
        hits = tally["cache-hit"]
        hits_infeasible = tally["cache-hit-infeasible"]
        screened = tally["screened"]
        infeasible = tally["infeasible"]
        stats = self.stats
        stats.hits += hits + hits_infeasible
        stats.misses += simulated + screened + infeasible
        stats.requests += (
            hits + hits_infeasible + simulated + screened + infeasible
        )
        stats.vectorized += simulated
        stats.infeasible += hits_infeasible + screened + infeasible
        stats.screened += screened
        stats.lint_rejections += screened
        if self.search_log is not None:
            settled = None
            if pending:
                settled = [
                    i for i, d in enumerate(res.disposition) if d != PENDING
                ]
            self.search_log.block(
                res, tally, settled, device=self.device.name
            )

    def _count_refusals(self) -> None:
        """Add the batch's refusals to the prescreen counters:
        ``lint.reject.<rule>``, plus ``simulate.prescreen_rejections``
        for the occupancy screen's."""
        for (rule, occupancy), n in self._refused.items():
            _counter(f"lint.reject.{rule}").add(n)
            if occupancy:
                _counter("simulate.prescreen_rejections").add(n)
        self._refused.clear()

    def _price_lanes(
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
        rung; a plain family prices the lanes its memo table does not
        hold.
        """
        from ..gpu import pricing

        proto = family.proto
        if levels is None:
            family.lane_keys = [
                plan_knob_number(p) * _REGISTER_SPAN + p.max_registers
                for p in family.plans
            ]
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
        slot: Dict[tuple, int] = {}
        to_price: List[int] = []
        lane_of: List[int] = []
        held = family.table.src
        for j, key in enumerate(family.lane_keys):
            if (skip is not None and skip[j]) or key in held:
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
        once per distinct value of the two, on the first member that
        has it.
        """
        plans, grid, members = family.plans, family.grid, family.members
        if plans is not None:
            modes = [(p.streaming, p.stream_chunks) for p in plans]
        else:
            stream = [(m[0], _stream_chunks(m)) for m in grid.modes]
            modes = list(map(stream.__getitem__,
                             map(grid.mode_ix.__getitem__, members)))
        verdicts = {}
        for mode in dict.fromkeys(modes):
            j = modes.index(mode)
            if j == 0:
                plan = family.proto
            elif plans is not None:
                plan = plans[j]
            else:
                plan = grid.plan(members[j])
            verdicts[mode] = _refusal(fusion_rejection(ir, plan))
        if all(refusal is None for refusal in verdicts.values()):
            return None
        return list(map(verdicts.__getitem__, modes))

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
        """Memoized verdicts: the lane entries of every family table."""
        return sum(len(table.src) for _, table in self._cache.values())

    def clear(self) -> None:
        self._cache.clear()


class _MemoTable:
    """The memo of one structural family on one IR and device: per lane
    key, where the verdict lives (``src``: a pricing pass, a
    :class:`Refusal` or an INFEASIBLE exception; ``at``: the lane of a
    pass, None for the others).  Two dicts, so a memoized lane costs no
    object of its own."""

    __slots__ = ("src", "at")

    def __init__(self):
        self.src: Dict[int, object] = {}
        self.at: Dict[int, Optional[int]] = {}


class _Family:
    """One structural family of a batch, and what its pricing found.

    The submitted lanes are ``plans`` (a plan list) or lanes
    ``members`` of ``grid``; ``proto`` is the first of them and
    ``structural`` its :func:`plan_structural_key`.  ``memo_key`` is
    the family part of its lanes' memo keys, ``table`` the engine's memo
    table under it while the batch resolves, and ``lane_keys`` the lane
    parts of a plain batch's members (:meth:`PlanEvaluator._key`).  A
    priced family holds either one ``shared`` verdict (its prototype's
    validation failure) or a ``pruned`` reason (that failure in a
    spill-free batch).  Otherwise each member has a fusion
    ``refusals[j]`` (``refusals`` None: no member was refused), or a
    priced lane ``lane_of[j]`` of the pass ``lanes`` (-1: not priced).
    A spill-free family also holds each member's register ``demands``
    and rung ``positions`` (-1: spills at every rung).
    """

    __slots__ = (
        "proto", "members", "plans", "grid", "structural", "memo_key",
        "table", "lane_keys", "shared", "pruned", "refusals", "demands",
        "positions", "lanes", "lane_of",
    )

    def __init__(self, proto: KernelPlan, members: List[int],
                 structural: tuple,
                 plans: Optional[List[KernelPlan]] = None,
                 grid: Optional[KnobGrid] = None):
        self.proto = proto
        self.members = members
        self.plans = plans
        self.grid = grid
        self.structural = structural
        self.memo_key: Optional[tuple] = None
        self.table: Optional[_MemoTable] = None
        self.lane_keys: Optional[List[tuple]] = None
        self.shared = None
        self.pruned: Optional[str] = None
        self.refusals: Optional[list] = None
        self.demands: Optional[List[int]] = None
        self.positions: Optional[List[int]] = None
        self.lanes = None
        self.lane_of: Optional[List[int]] = None

    def knob_numbers(self) -> List[int]:
        """The members' knob numbers (their memo lane parts but the
        register cap): a grid's knob column."""
        if self.plans is not None:
            return [plan_knob_number(plan) for plan in self.plans]
        knob = self.grid.knob
        if len(self.members) == len(knob):
            return knob
        return list(map(knob.__getitem__, self.members))

    def knobs(self, js):
        """The pricing knob columns of members ``js``."""
        from ..gpu import pricing

        if self.plans is not None:
            return pricing.knobs_of(list(map(self.plans.__getitem__, js)))
        grid, proto = self.grid, self.proto
        lanes = list(map(self.members.__getitem__, js))
        if len(grid.modes) == 1:
            ublocked, prefetch = proto.unroll_blocked, proto.prefetch
            perspective, chunks = proto.perspective, proto.stream_chunks
        else:
            columns = [
                (m[2], m[3], m[4], _stream_chunks(m)) for m in grid.modes
            ]
            ublocked, prefetch, perspective, chunks = zip(
                *map(columns.__getitem__, map(grid.mode_ix.__getitem__, lanes))
            )
        return pricing.LaneKnobs(
            grid.blocks,
            grid.unrolls,
            list(map(grid.block_ix.__getitem__, lanes)),
            list(map(grid.unroll_ix.__getitem__, lanes)),
            ublocked,
            proto.max_registers,
            prefetch,
            perspective,
            chunks,
        )


def _stream_chunks(mode: tuple) -> int:
    """:attr:`KernelPlan.stream_chunks` of a lane mode (``plan_mode``)."""
    return mode[1] if mode[0] == STREAM_CONCURRENT else 1


class Resolution:
    """A resolved batch: one verdict per submitted lane, in input order.

    ``ok[i]`` says whether lane ``i`` found a feasible result, and
    ``disposition[i]`` how the engine settled it (a ``candidate``
    disposition, None for a lane pruned without a request, or
    ``PENDING`` for one the batch never settled).  A requested lane
    keeps the lane part of its memo key (``keys``) and where its
    verdict lives (``src``/``at``: a family's pricing pass and a lane of
    it, or, with ``at`` None, the failure itself: every result is a lane
    of a pass); a pruned lane keeps its reason (``note``: a
    string, or the register demand of a lane that spills at every
    rung).  Plans, results and reasons are built only when read, so a
    search that ranks lanes by :meth:`time_column` builds objects for
    the lanes it keeps alone.  The search log's rows of the batch read
    their fields from here too.
    """

    __slots__ = (
        "levels", "lanes", "families", "lane_family", "keys",
        "src", "at", "ok", "note", "disposition", "_plans",
    )

    def __init__(self, lanes, levels: Optional[Tuple[int, ...]]):
        self.levels = levels
        #: the submitted plan list or grid
        self.lanes = lanes
        if isinstance(lanes, KnobGrid):
            self.families = [
                _Family(proto, members, plan_structural_key(proto), grid=lanes)
                for proto, members in lanes.families()
            ]
        else:
            groups: Dict[tuple, _Family] = {}
            for i, plan in enumerate(lanes):
                key = plan_structural_key(plan)
                family = groups.get(key)
                if family is None:
                    family = groups[key] = _Family(plan, [], key, plans=[])
                family.members.append(i)
                family.plans.append(plan)
            self.families = list(groups.values())
        n = len(lanes)
        if len(self.families) == 1:
            self.lane_family = self.families * n
        else:
            self.lane_family: List[_Family] = [None] * n  # type: ignore
            for family in self.families:
                for i in family.members:
                    self.lane_family[i] = family
        self.keys: List[Optional[int]] = [None] * n
        self.src: list = [None] * n
        self.at: List[Optional[int]] = [None] * n
        self.ok = [False] * n
        self.note: list = [None] * n
        self.disposition: List[Optional[str]] = [PENDING] * n
        self._plans: Dict[int, KernelPlan] = {}

    def __len__(self) -> int:
        return len(self.ok)

    def submitted(self, i: int) -> KernelPlan:
        """Lane ``i`` as it was submitted."""
        lanes = self.lanes
        return lanes.plan(i) if isinstance(lanes, KnobGrid) else lanes[i]

    def plan(self, i: int) -> KernelPlan:
        """Lane ``i``'s requested plan: the submitted plan at the
        register rung its key holds (a spill-free request)."""
        key = self.keys[i]
        if self.levels is None or key is None:
            return self.submitted(i)
        plan = self._plans.get(i)
        if plan is None:
            lanes, regs = self.lanes, key % _REGISTER_SPAN
            plan = self._plans[i] = (
                lanes.plan(i, regs) if isinstance(lanes, KnobGrid)
                else lanes[i].replace(max_registers=regs)
            )
        return plan

    def result(self, i: int) -> SimulationResult:
        """Feasible lane ``i``'s result (one object per priced lane)."""
        return self.src[i].result(self.at[i])

    def time_s(self, i: int) -> float:
        return self.src[i].time_s[self.at[i]]

    def tflops(self, i: int) -> float:
        return self.src[i].tflops[self.at[i]]

    def gflops(self, i: int) -> Optional[float]:
        return self.tflops(i) * 1e3 if self.ok[i] else None

    def time_column(self) -> List[Optional[float]]:
        """Every lane's :meth:`time_s` (None for a lane without a
        result), read straight from the pricing passes."""
        return [
            src.time_s[at] if ok else None
            for src, at, ok in zip(self.src, self.at, self.ok)
        ]

    def measured(self) -> Tuple[List[int], List[float]]:
        """The lanes with a result, in order, and their :meth:`gflops`,
        read straight from the pricing passes."""
        ok = self.ok
        return list(compress(range(len(ok)), ok)), [
            src.tflops[at] * 1e3
            for src, at in zip(compress(self.src, ok), compress(self.at, ok))
        ]

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
        """Requested lane ``i``'s plan identity, ``(structural key, lane
        key)``: what its fingerprint digests (the family key and the
        register cap), without hashing."""
        return self.lane_family[i].structural, self.keys[i]
