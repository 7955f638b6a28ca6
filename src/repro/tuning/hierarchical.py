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

Users can supply their own hierarchy (a list of variant generators), as
the paper allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

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
from ..obs import counter as _counter, metrics_enabled as _metrics_enabled
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
from .space import SearchSpace, prune_overtiled, seed_variants

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

#: Sentinel distinguishing "journal has no record" from a journaled
#: infeasible outcome (which replays as None).
_MISS = object()

VariantGenerator = Callable[[ProgramIR, KernelPlan], Iterable[KernelPlan]]


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


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a hierarchical tuning run."""

    best: Measurement
    evaluations: int
    stage1_evaluations: int
    trace: Tuple[Measurement, ...] = ()
    eval_stats: Optional[EvalStats] = None

    @property
    def best_plan(self) -> KernelPlan:
        return self.best.plan


class HierarchicalTuner:
    """Two-stage (or user-defined) pruned autotuner."""

    def __init__(
        self,
        ir: ProgramIR,
        device: DeviceSpec = P100,
        use_unrolling: bool = True,
        use_register_opts: bool = False,
        bandwidth_bound: bool = True,
        top_k: int = TOP_K,
        hierarchy: Optional[Sequence[VariantGenerator]] = None,
        keep_trace: bool = False,
        evaluator: Optional[PlanEvaluator] = None,
        journal: Optional[TuningJournal] = None,
        lint_prune: bool = False,
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
        self.hierarchy = hierarchy
        self.keep_trace = keep_trace
        #: opt-in lint-guided pruning (rule RL205): drop overtiled
        #: stage-1 candidates before measuring.  Off by default — the
        #: analytical model prices overtiled plans as first-class
        #: citizens (unroll beyond the domain extent still changes the
        #: instruction mix), so pruning can change the winner; enable
        #: it only when saved simulations matter more than exhaustive
        #: fidelity to the model.
        self.lint_prune = lint_prune
        #: checkpoint journal: measured candidates are appended as they
        #: complete, and journaled outcomes replay instead of
        #: re-evaluating (see ``repro.resilience.checkpoint``).
        self.journal = journal
        self._irfp = ir_fingerprint(ir) if journal is not None else None
        self.evaluations = 0
        self._trace: List[Measurement] = []
        self._measured_families: Set[tuple] = set()

    # -- checkpoint journal ------------------------------------------------------

    def _journal_key(self, tag: str, plan: KernelPlan) -> str:
        """Content-addressed record key: IR + operation + plan family.

        Register-independent, because the evaluator escalates the cap —
        the journal stores the *resolved* plan, keyed by the request.
        """
        return (
            f"{self._irfp}:{tag}:"
            f"{plan_fingerprint(plan, include_registers=False)}"
        )

    @property
    def _slog(self):
        """The evaluator's attached search log (None when telemetry is off)."""
        return self.evaluator.search_log

    def _journal_replay(self, tag: str, plan: KernelPlan):
        """Journaled outcome: a Measurement, None (infeasible) or _MISS."""
        if self.journal is None:
            return _MISS
        record = self.journal.lookup(self._journal_key(tag, plan))
        if record is None:
            return _MISS
        if self._slog is not None:
            # Replayed candidates never reach the evaluation engine, so
            # they get their own record kind instead of a ``candidate``.
            self._slog.replay(plan)
        if record.get("plan") is None:
            return None
        measurement = Measurement(
            plan=plan_from_dict(record["plan"]),
            time_s=record["time_s"],
            tflops=record["tflops"],
        )
        if self.keep_trace:
            self._trace.append(measurement)
        return measurement

    def _journal_record(
        self, tag: str, plan: KernelPlan, measurement: Optional[Measurement]
    ) -> None:
        if self.journal is None:
            return
        key = self._journal_key(tag, plan)
        if measurement is None:
            self.journal.record_candidate(key, None)
        else:
            self.journal.record_candidate(
                key,
                plan_to_dict(measurement.plan),
                time_s=measurement.time_s,
                tflops=measurement.tflops,
            )

    def _journal_on_result(self, tag: str):
        """Per-completion callback journaling batch jobs as they finish.

        Runs inside the evaluator's batch loop as each job finishes, so
        a crash mid-batch preserves every candidate that already
        completed.
        """
        if self.journal is None:
            return None

        def on_result(index, plan, outcome):
            key = self._journal_key(tag, plan)
            if outcome is None:
                self.journal.record_candidate(key, None)
            else:
                resolved, sim = outcome
                self.journal.record_candidate(
                    key,
                    plan_to_dict(resolved),
                    time_s=sim.time_s,
                    tflops=sim.tflops,
                )

        return on_result

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

        Accounting and trace entries are identical to calling
        :meth:`measure` serially on each plan.  Every measurement goes
        through an evaluator batch, so an unexpected error fails fast
        as an :class:`~repro.resilience.EvaluationError` naming the plan.
        """
        self.evaluations += len(plans)
        for plan in plans:
            self._measured_families.add(plan_family_key(plan))
        results: List[Optional[Measurement]] = [None] * len(plans)
        fresh: List[Tuple[int, KernelPlan]] = []
        for position, plan in enumerate(plans):
            replayed = self._journal_replay("sf", plan)
            if replayed is not _MISS:
                results[position] = replayed
            else:
                fresh.append((position, plan))
        if not fresh:
            return results
        found = self.evaluator.evaluate_spill_free_batch(
            self.ir,
            [plan for _, plan in fresh],
            on_result=self._journal_on_result("sf"),
        )
        for (position, _), item in zip(fresh, found):
            results[position] = self._record(item)
        return results

    def _record(self, found) -> Optional[Measurement]:
        if found is None:
            return None
        plan, result = found
        measurement = Measurement(
            plan=plan, time_s=result.time_s, tflops=result.tflops
        )
        if self.keep_trace:
            self._trace.append(measurement)
        return measurement

    def measure_with_spills(self, plan: KernelPlan) -> Optional[Measurement]:
        """Measure at the maximum register level even if it spills.

        Counts one evaluation, feasible or not (uniform accounting).
        """
        self.evaluations += 1
        candidate = plan.replace(max_registers=255)
        self._measured_families.add(plan_family_key(candidate))
        replayed = self._journal_replay("ms", candidate)
        if replayed is not _MISS:
            return replayed
        (result,) = self.evaluator.evaluate_batch(self.ir, [candidate])
        if result is None:
            self._journal_record("ms", candidate, None)
            return None
        measurement = Measurement(
            plan=candidate, time_s=result.time_s, tflops=result.tflops
        )
        if self.keep_trace:
            self._trace.append(measurement)
        self._journal_record("ms", candidate, measurement)
        return measurement

    # -- stages -----------------------------------------------------------------

    def tune(self, base: KernelPlan) -> TuningResult:
        stats_before = self.evaluator.stats.snapshot()
        with _span("tuning", kernels="+".join(base.kernel_names)):
            with _log_context(
                self._slog, kernels="+".join(base.kernel_names)
            ):
                if self.hierarchy is not None:
                    result = self._tune_custom(base)
                else:
                    result = self._tune_two_stage(base)
        return dataclass_replace_stats(
            result, self.evaluator.stats.since(stats_before)
        )

    def _tune_two_stage(self, base: KernelPlan) -> TuningResult:
        stage1 = self._stage1(base)
        stage1_evals = self.evaluations
        if not stage1:
            # Nothing spill-free: fall back to the best spilling config.
            with _log_context(self._slog, stage="spill-fallback"), \
                    self.evaluator.phase("spill-fallback"):
                fallback = self.measure_with_spills(base)
            if fallback is None:
                raise PlanInfeasible(
                    f"no feasible configuration for {base.kernel_names}"
                )
            return TuningResult(
                best=fallback,
                evaluations=self.evaluations,
                stage1_evaluations=stage1_evals,
                trace=tuple(self._trace),
            )
        best = self._stage2(stage1)
        return TuningResult(
            best=best,
            evaluations=self.evaluations,
            stage1_evaluations=stage1_evals,
            trace=tuple(self._trace),
        )

    def _stage1(self, base: KernelPlan) -> List[Measurement]:
        with _span("tuning.stage1") as stage_span, _log_context(
            self._slog, stage="stage1"
        ), self.evaluator.phase("stage1"):
            space = SearchSpace(
                ndim=self.ir.ndim,
                streaming=base.uses_streaming,
                bandwidth_bound=self.bandwidth_bound,
                allow_unroll=self.use_unrolling,
                device=self.device,
            )
            candidates = self._stage1_candidates(base, space)
            if self.lint_prune:
                candidates = prune_overtiled(
                    self.ir, candidates, search_log=self._slog
                )
            results = [
                m for m in self._measure_batch(candidates) if m is not None
            ]
            results.sort(key=lambda m: m.time_s)
            if _metrics_enabled():
                _counter("tuner.stage1.candidates").add(len(candidates))
                _counter("tuner.stage1.feasible").add(len(results))
            if stage_span is not None:
                stage_span.attributes.update(
                    candidates=len(candidates), feasible=len(results)
                )
            return results[: self.top_k]

    def _stage1_candidates(
        self, base: KernelPlan, space: SearchSpace
    ) -> List[KernelPlan]:
        """Stage-1 candidate list: the block x unroll sweep over ``base``.

        The extension point for warm-started searches —
        :class:`repro.tuning.transfer.WarmStartTuner` overrides this to
        narrow the sweep to the neighborhood of another device's
        journaled winners.  Retimed twins ride along with their parent
        variant, so overrides that filter the returned list keep the
        pairing intact.
        """
        retimable = self._retimable(base)
        candidates: List[KernelPlan] = []
        for variant in seed_variants(base, space):
            candidates.append(variant)
            if retimable and variant.total_unroll() == 1:
                # Register-level optimizations change which block
                # sizes win; explore the retimed shape of each block
                # up front.
                candidates.append(variant.replace(retime=True))
        return candidates

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
                _log_context(self._slog, stage="stage2"), \
                self.evaluator.phase("stage2"):
            candidates: List[KernelPlan] = []
            seen = set(self._measured_families)
            for survivor in survivors:
                for variant in self._stage2_variants(survivor.plan):
                    family = plan_family_key(variant)
                    if family in seen:
                        continue
                    seen.add(family)
                    candidates.append(variant)
            best = survivors[0]
            for measurement in self._measure_batch(candidates):
                if measurement is not None and measurement.time_s < best.time_s:
                    best = measurement
            if _metrics_enabled():
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
            iterator = self.ir.iterators[plan.stream_axis]
            retimable = all(
                kernel_retimable(self.ir, self.ir.kernel(name), iterator)
                for name in plan.kernel_names
            )
            if retimable:
                yield plan.replace(retime=True)
                yield plan.replace(retime=True, prefetch=True)
            folds = ()
            for name in plan.kernel_names:
                folds = folds + find_fold_groups(self.ir.kernel(name))
            if folds:
                yield with_fold_groups(plan, folds)

    def _tune_custom(self, base: KernelPlan) -> TuningResult:
        """User-defined hierarchy: each level maps survivors to variants."""
        survivors = [base]
        best: Optional[Measurement] = None
        stage1_evals = 0
        for depth, generator in enumerate(self.hierarchy or ()):
            level_plans: List[KernelPlan] = []
            for plan in survivors:
                level_plans.extend(generator(self.ir, plan))
            with _span(
                f"tuning.level{depth + 1}", candidates=len(level_plans)
            ), _log_context(self._slog, stage=f"level{depth + 1}"), \
                    self.evaluator.phase(f"level{depth + 1}"):
                measured = [
                    m for m in self._measure_batch(level_plans) if m is not None
                ]
            measured.sort(key=lambda m: m.time_s)
            if measured:
                survivors = [m.plan for m in measured[: self.top_k]]
                if best is None or measured[0].time_s < best.time_s:
                    best = measured[0]
            if depth == 0:
                stage1_evals = self.evaluations
        if best is None:
            best = self.measure_with_spills(base)
            if best is None:
                raise PlanInfeasible("custom hierarchy produced no candidates")
        return TuningResult(
            best=best,
            evaluations=self.evaluations,
            stage1_evaluations=stage1_evals,
            trace=tuple(self._trace),
        )


def dataclass_replace_stats(
    result: TuningResult, stats: EvalStats
) -> TuningResult:
    from dataclasses import replace

    return replace(result, eval_stats=stats)


def tune_kernel(
    ir: ProgramIR,
    base: KernelPlan,
    device: DeviceSpec = P100,
    **tuner_kwargs,
) -> TuningResult:
    """Convenience wrapper: hierarchical tuning of one kernel plan."""
    tuner = HierarchicalTuner(ir, device=device, **tuner_kwargs)
    return tuner.tune(base)
