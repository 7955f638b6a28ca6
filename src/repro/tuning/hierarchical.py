"""Hierarchical autotuning (paper Section V).

Tuning runs in steps instead of searching the full cross-product:

* **Stage 1** tunes the high-impact knobs — thread block size and unroll
  factors — with serial streaming enabled by default when shared memory
  is used.  Unrolled versions are explored in increasing order of the
  post-unroll statement count, and the per-thread register budget is
  escalated (32 → 64 → 128 → 255) so only spill-free configurations are
  measured.
* **Stage 2** takes the top-K stage-1 candidates and layers the
  second-tier optimizations on them: prefetching, concurrent streaming,
  and thread-block load/compute adjustment (perspectives), plus retiming
  and folding when the profiling advice enables register-level
  optimizations.  Variants whose plan family was already measured (in
  stage 1 or for an earlier survivor) are deduplicated by fingerprint.

All measurement flows through a shared :class:`PlanEvaluator`
(``repro.tuning.evaluator``), which memoizes simulation results,
collapses the register-escalation ladder via the register-independent
simulation prefix, and prices large candidate batches family-wise in one
vectorized pass.

**Evaluation accounting** is uniform: ``evaluations`` counts one per
candidate plan submitted for measurement — feasible, spilling and
infeasible candidates alike, independent of how many register-escalation
rungs were needed.  (The seed implementation counted each escalation
rung but not infeasible candidates; the uniform rule makes tuner budgets
comparable across search strategies.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..codegen.plan import (
    KernelPlan,
    PERSPECTIVE_MIXED,
    STREAM_CONCURRENT,
)
from ..codegen.tiling import plan_family_key
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import PlanInfeasible
from ..ir.folding import find_fold_groups
from ..ir.homogenize import kernel_retimable
from ..ir.stencil import ProgramIR
from ..obs import counter as _counter
from ..obs import span as _span
from ..obs.search import log_context as _log_context
from ..resilience import UsageError
from ..resilience.checkpoint import (
    TuningJournal,
    ir_fingerprint,
    plan_from_dict,
    plan_to_dict,
)
from .evaluator import EvalStats, Measurement, PlanEvaluator, plan_fingerprint
from .space import KnobGrid, SearchSpace, stage1_grid

__all__ = [
    "HierarchicalTuner",
    "Measurement",
    "TuningResult",
    "tune_kernel",
    "with_fold_groups",
    "TOP_K",
]

#: Stage-1 survivors carried into stage 2.
TOP_K = 4


def with_fold_groups(plan: KernelPlan, folds) -> KernelPlan:
    """Attach fold groups, inheriting each member's storage placement."""
    placements = list(plan.placements)
    placed = {a for a, _ in placements}
    for group in folds:
        if group.folded_name not in placed:
            placements.append(
                (group.folded_name, plan.placement_of(group.members[0]))
            )
    return plan.replace(fold_groups=folds, placements=tuple(placements))


def measurement_record(measurement: Measurement) -> dict:
    """JSON form of a measurement, as unit records hold it."""
    return {
        "plan": plan_to_dict(measurement.plan),
        "time_s": measurement.time_s,
        "tflops": measurement.tflops,
    }


def measurement_from_record(record: dict) -> Measurement:
    """Inverse of :func:`measurement_record`."""
    return Measurement(
        plan=plan_from_dict(record["plan"]),
        time_s=record["time_s"],
        tflops=record["tflops"],
    )


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a hierarchical tuning run."""

    best: Measurement
    evaluations: int
    stage1_evaluations: int
    eval_stats: Optional[EvalStats] = None

    @property
    def best_plan(self) -> KernelPlan:
        return self.best.plan


class HierarchicalTuner:
    """Two-stage pruned autotuner."""

    def __init__(
        self,
        ir: ProgramIR,
        device: DeviceSpec = P100,
        use_unrolling: bool = True,
        use_register_opts: bool = False,
        bandwidth_bound: bool = True,
        top_k: int = TOP_K,
        evaluator: Optional[PlanEvaluator] = None,
        journal: Optional[TuningJournal] = None,
    ):
        if top_k < 1:
            raise UsageError(
                f"top_k must keep at least one stage-1 survivor, not {top_k}"
            )
        self.ir = ir
        self.evaluator = evaluator or PlanEvaluator(device=device)
        self.device = self.evaluator.device
        self.use_unrolling = use_unrolling
        self.use_register_opts = use_register_opts
        self.bandwidth_bound = bandwidth_bound
        self.top_k = top_k
        #: checkpoint journal: each finished :meth:`tune` call is one
        #: record, and a journaled call replays instead of searching
        #: (see ``repro.resilience.checkpoint``).
        self.journal = journal
        self._irfp = ir_fingerprint(ir) if journal is not None else None
        self.evaluations = 0
        self._measured_families: Set[tuple] = set()
        #: the stage-1 grid of the current unit (its lanes were measured)
        self._stage1_grid: Optional[KnobGrid] = None
        #: fold groups of each fused kernel-name tuple (stage 2)
        self._folds: Dict[Tuple[str, ...], tuple] = {}

    # -- checkpoint journal ------------------------------------------------------

    def unit_config(self) -> tuple:
        """Every tuner setting that shapes the search of a :meth:`tune`
        call; part of the call's journal key."""
        return (
            type(self).__qualname__,
            self.use_unrolling,
            self.use_register_opts,
            self.bandwidth_bound,
            self.top_k,
        )

    def config_digest(self) -> str:
        """Short fingerprint of :meth:`unit_config`."""
        return sha256(repr(self.unit_config()).encode()).hexdigest()[:16]

    def _unit_key(self, base: KernelPlan) -> str:
        """Journal key of ``tune(base)``: IR, base plan and tuner config."""
        return (
            f"{self._irfp}:tune:{plan_fingerprint(base)}:"
            f"{self.config_digest()}"
        )

    @property
    def _slog(self):
        """The evaluator's attached search log (None when telemetry is off)."""
        return self.evaluator.search_log

    def _replay(self, record: dict) -> TuningResult:
        """The :class:`TuningResult` a journaled ``tune`` record holds.

        Nothing is evaluated.  Evaluation counts continue from this
        tuner's own.
        """
        best = measurement_from_record(record)
        if self._slog is not None:
            # The unit never reaches the evaluation engine, so it gets
            # its own record kind instead of ``candidate`` records.
            self._slog.replay(best.plan)
        before = self.evaluations
        self.evaluations += record["evaluations"]
        return TuningResult(
            best=best,
            evaluations=self.evaluations,
            stage1_evaluations=before + record["stage1_evaluations"],
        )

    # -- measurement -----------------------------------------------------------

    def measure(self, plan: KernelPlan) -> Optional[Measurement]:
        """Evaluate a candidate; escalate registers past spills.

        Implements the paper's dynamic register increment: if the
        configuration spills at the current ``maxrregcount``, retry at
        the next level; configurations that spill even at 255 registers
        are discarded (only non-spill configurations are explored).  The
        evaluator resolves the ladder from the register-independent
        demand, so the spilling rungs cost nothing.

        Counts exactly one evaluation per call, feasible or not.
        """
        return self._measure_batch([plan])[0]

    def _measure_batch(
        self, plans: Sequence[KernelPlan]
    ) -> List[Optional[Measurement]]:
        """Measure candidates as one evaluator batch, input-ordered.

        Accounting is identical to calling :meth:`measure` serially on
        each plan.  Every measurement goes through an evaluator batch,
        so an unexpected error fails fast as an
        :class:`~repro.resilience.EvaluationError` naming the plan.
        """
        self.evaluations += len(plans)
        for plan in plans:
            self._measured_families.add(plan_family_key(plan))
        found = self.evaluator.evaluate_spill_free_batch(self.ir, plans)
        return [self._record(item) for item in found]

    def _record(self, found) -> Optional[Measurement]:
        if found is None:
            return None
        plan, result = found
        return Measurement(
            plan=plan, time_s=result.time_s, tflops=result.tflops
        )

    def measure_with_spills(self, plan: KernelPlan) -> Optional[Measurement]:
        """Measure at the maximum register level even if it spills.

        Counts one evaluation, feasible or not (uniform accounting).
        """
        self.evaluations += 1
        candidate = plan.replace(max_registers=255)
        self._measured_families.add(plan_family_key(candidate))
        (result,) = self.evaluator.evaluate_batch(self.ir, [candidate])
        if result is None:
            return None
        return Measurement(
            plan=candidate, time_s=result.time_s, tflops=result.tflops
        )

    # -- stages -----------------------------------------------------------------

    def tune(self, base: KernelPlan) -> TuningResult:
        """Search from ``base``; one tuning unit of the journal.

        With a journal, a call it already holds replays without
        evaluating anything, and a finished call is journaled as one
        record.  Each call searches on its own: stage-2 deduplication
        sees only this call's measurements.
        """
        stats_before = self.evaluator.stats.snapshot()
        kernels = "+".join(base.kernel_names)
        with _span("tuning", kernels=kernels), _log_context(
            self._slog, kernels=kernels
        ):
            key = self._unit_key(base) if self.journal is not None else None
            record = self.journal.lookup(key) if key is not None else None
            if record is not None:
                result = self._replay(record)
            else:
                evaluations_before = self.evaluations
                self._measured_families = set()
                self._stage1_grid = None
                result = self._tune_two_stage(base)
                if key is not None:
                    self.journal.record_candidate(
                        key, _unit_payload(result, evaluations_before)
                    )
        return replace(
            result, eval_stats=self.evaluator.stats.since(stats_before)
        )

    def _tune_two_stage(self, base: KernelPlan) -> TuningResult:
        stage1 = self._stage1(base)
        stage1_evals = self.evaluations
        if not stage1:
            # Nothing spill-free: fall back to the best spilling config.
            with _log_context(self._slog, stage="spill-fallback"):
                fallback = self.measure_with_spills(base)
            if fallback is None:
                raise PlanInfeasible(
                    f"no feasible configuration for {base.kernel_names}"
                )
            return TuningResult(
                best=fallback,
                evaluations=self.evaluations,
                stage1_evaluations=stage1_evals,
            )
        best = self._stage2(stage1)
        return TuningResult(
            best=best,
            evaluations=self.evaluations,
            stage1_evaluations=stage1_evals,
        )

    def _stage1(self, base: KernelPlan) -> List[Measurement]:
        with _span("tuning.stage1") as stage_span, _log_context(
            self._slog, stage="stage1"
        ):
            space = SearchSpace(
                ndim=self.ir.ndim,
                streaming=base.uses_streaming,
                bandwidth_bound=self.bandwidth_bound,
                allow_unroll=self.use_unrolling,
                device=self.device,
            )
            # Register-level optimizations change which block sizes win,
            # so with them each unrolled-once variant is followed by its
            # retimed twin.
            grid = stage1_grid(
                base, space, retime_twins=self._retimable(base)
            )
            self.evaluations += len(grid)
            self._stage1_grid = grid
            res = self.evaluator.evaluate_spill_free_batch(self.ir, grid)
            times = res.time_column()
            feasible = [i for i, t in enumerate(times) if t is not None]
            # A stable sort: equal times keep lane order.
            ranked = sorted(feasible, key=times.__getitem__)
            survivors = [res.measurement(i) for i in ranked[: self.top_k]]
            _counter("tuner.stage1.candidates").add(len(grid))
            _counter("tuner.stage1.feasible").add(len(feasible))
            if stage_span is not None:
                stage_span.attributes.update(
                    candidates=len(grid), feasible=len(feasible)
                )
            return survivors

    def _retimable(self, plan: KernelPlan) -> bool:
        if not (self.use_register_opts and plan.uses_streaming):
            return False
        iterator = self.ir.iterators[plan.stream_axis]
        return all(
            kernel_retimable(self.ir, self.ir.kernel(name), iterator)
            for name in plan.kernel_names
        )

    def _stage2(self, survivors: List[Measurement]) -> Measurement:
        # Different survivors (and stage 1 itself) can generate the same
        # second-tier variant — e.g. retiming a survivor that stage 1
        # already explored retimed.  Deduplicate by plan-family
        # fingerprint so each distinct configuration is measured once.
        with _span("tuning.stage2", survivors=len(survivors)) as stage_span, \
                _log_context(self._slog, stage="stage2"):
            candidates: List[KernelPlan] = []
            seen = set(self._measured_families)
            grid = self._stage1_grid
            for survivor in survivors:
                for variant in self._stage2_variants(survivor.plan):
                    family = plan_family_key(variant)
                    if family in seen or (
                        grid is not None and grid.contains(variant)
                    ):
                        continue
                    seen.add(family)
                    candidates.append(variant)
            best = survivors[0]
            for measurement in self._measure_batch(candidates):
                if measurement is not None and measurement.time_s < best.time_s:
                    best = measurement
            _counter("tuner.stage2.candidates").add(len(candidates))
            if stage_span is not None:
                stage_span.attributes["candidates"] = len(candidates)
            return best

    def _stage2_variants(self, plan: KernelPlan) -> Iterable[KernelPlan]:
        yield plan.replace(prefetch=True)
        yield plan.replace(perspective=PERSPECTIVE_MIXED)
        yield plan.replace(prefetch=True, perspective=PERSPECTIVE_MIXED)
        if plan.streaming == "serial":
            for chunks in (2, 4):
                yield plan.replace(
                    streaming=STREAM_CONCURRENT, concurrent_chunks=chunks
                )
        if self.use_register_opts and plan.uses_streaming:
            if self._retimable(plan):
                yield plan.replace(retime=True)
                yield plan.replace(retime=True, prefetch=True)
            folds = self._fold_groups(plan.kernel_names)
            if folds:
                yield with_fold_groups(plan, folds)

    def _fold_groups(self, kernel_names: Tuple[str, ...]) -> tuple:
        """The fold groups of the fused kernels, found once per tuner."""
        folds = self._folds.get(kernel_names)
        if folds is None:
            folds = ()
            for name in kernel_names:
                folds = folds + find_fold_groups(self.ir.kernel(name))
            self._folds[kernel_names] = folds
        return folds


def _unit_payload(result: TuningResult, evaluations_before: int) -> dict:
    """The ``tune`` record of a finished call (counts as deltas)."""
    payload = measurement_record(result.best)
    payload.update(
        evaluations=result.evaluations - evaluations_before,
        stage1_evaluations=result.stage1_evaluations - evaluations_before,
    )
    return payload


def tune_kernel(
    ir: ProgramIR,
    base: KernelPlan,
    device: DeviceSpec = P100,
    **tuner_kwargs,
) -> TuningResult:
    """Convenience wrapper: hierarchical tuning of one kernel plan."""
    tuner = HierarchicalTuner(ir, device=device, **tuner_kwargs)
    return tuner.tune(base)
