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
  optimizations.  A variant whose plan family (as the ints structural
  key and knob number) stage 1 or an earlier survivor already has is
  dropped.

Each stage is one :class:`~repro.tuning.space.KnobGrid`, resolved in one
evaluator batch and ranked by its time column; a plan is built only for
a lane that is read (a survivor, the winner, a search-log row).

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
from typing import Iterator, List, Optional, Tuple

from ..codegen.plan import (
    KernelPlan,
    PERSPECTIVE_MIXED,
    STREAM_CONCURRENT,
    STREAM_SERIAL,
)
from ..codegen.tiling import knob_number, plan_mode, plan_structural_key
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
        #: the stage-1 grid of the current unit (its lanes were measured)
        self._stage1_grid: Optional[KnobGrid] = None

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
        """Evaluate one candidate at its first spill-free register rung
        (the paper's dynamic register increment; None when it spills
        even at 255 or is infeasible).  Counts one evaluation."""
        self.evaluations += 1
        (found,) = self.evaluator.evaluate_spill_free_batch(self.ir, [plan])
        if found is None:
            return None
        return Measurement(found[0], found[1].time_s, found[1].tflops)

    def measure_with_spills(self, plan: KernelPlan) -> Optional[Measurement]:
        """Measure at the maximum register level even if it spills.

        Counts one evaluation, feasible or not (uniform accounting).
        """
        self.evaluations += 1
        candidate = plan.replace(max_registers=255)
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
        with _span("tuning.stage2", survivors=len(survivors)) as stage_span, \
                _log_context(self._slog, stage="stage2"):
            grid = self._stage2_grid(survivors)
            self.evaluations += len(grid)
            res = self.evaluator.evaluate_spill_free_batch(self.ir, grid)
            # The first lane strictly faster than the best so far wins.
            best, best_time = None, survivors[0].time_s
            for i, time_s in enumerate(res.time_column()):
                if time_s is not None and time_s < best_time:
                    best, best_time = i, time_s
            _counter("tuner.stage2.candidates").add(len(grid))
            if stage_span is not None:
                stage_span.attributes["candidates"] = len(grid)
            return survivors[0] if best is None else res.measurement(best)

    def _stage2_grid(self, survivors: List[Measurement]) -> KnobGrid:
        """Each survivor's variants, in order, as one :class:`KnobGrid`.

        Survivors (and stage 1) can share a variant, e.g. a retimed
        survivor that stage 1 swept retimed: a variant is kept only when
        its family key, as the ints (structural key, knob number), is
        neither a stage-1 lane's nor an earlier variant's.
        """
        # Retiming and folding read only what every survivor shares.
        first = survivors[0].plan
        retimable = folds = None
        if self.use_register_opts and first.uses_streaming:
            retimable = self._retimable(first)
            kernels = map(self.ir.kernel, first.kernel_names)
            folds = sum(map(find_fold_groups, kernels), ())
        taken = self._stage1_grid.family_knobs()
        shapes: List[KernelPlan] = []
        blocks, unrolls, modes = {}, {}, {}  # value -> column index
        lanes = []  # (shape, block, unroll, mode, knob) of each variant kept
        for survivor in survivors:
            plan = survivor.plan
            b = blocks.setdefault(plan.block, len(blocks))
            u = unrolls.setdefault(plan.unroll, len(unrolls))
            shape = None
            for variant, mode in self._stage2_variants(plan, retimable, folds):
                if variant is not shape:
                    shape, s = variant, None
                    knobs = taken.setdefault(plan_structural_key(shape), set())
                number = knob_number(plan.block, plan.unroll, mode)
                if number not in knobs:
                    knobs.add(number)
                    if s is None:
                        s = len(shapes)
                        shapes.append(shape)
                    m = modes.setdefault(mode, len(modes))
                    lanes.append((s, b, u, m, number))
        columns = map(list, zip(*lanes)) if lanes else ([],) * 5
        return KnobGrid(shapes, blocks, unrolls, modes, *columns)

    @staticmethod
    def _stage2_variants(
        plan: KernelPlan, retimable: Optional[bool], folds: Optional[tuple]
    ) -> Iterator[Tuple[KernelPlan, tuple]]:
        """A survivor's variants as ``(shape, mode)``: the survivor as it
        is, retimed or folded (in a row per shape), in a
        :func:`~repro.codegen.tiling.plan_mode`."""
        mode = plan_mode(plan)
        streaming, chunks, blocked, prefetch, perspective = mode
        yield plan, (streaming, chunks, blocked, True, perspective)
        yield plan, (streaming, chunks, blocked, prefetch, PERSPECTIVE_MIXED)
        yield plan, (streaming, chunks, blocked, True, PERSPECTIVE_MIXED)
        if streaming == STREAM_SERIAL:
            for count in (2, 4):
                yield plan, (
                    STREAM_CONCURRENT, count, blocked, prefetch, perspective
                )
        if retimable:
            retimed = plan.replace(retime=True)
            yield retimed, mode
            yield retimed, (streaming, chunks, blocked, True, perspective)
        if folds:
            yield with_fold_groups(plan, folds), mode


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
