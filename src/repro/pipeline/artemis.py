"""The end-to-end ARTEMIS flow (paper Section VII).

Steps, mirroring the paper's summary:

1. generate a baseline version from the DSL pragmas (seed plan + user
   ``#assign`` constraints + automatic resource assignment);
2. profile the baseline to determine (un)profitable optimizations and
   prune the autotuning space (Section IV);
3. hierarchically autotune the kernel (Section V), then re-profile the
   winner for bottlenecks and emit textual hints;
4. when profiling flags register pressure, generate and evaluate the
   fission candidates (Section VI-B); when it flags residual DRAM
   bandwidth-boundedness with shared memory, also evaluate the global-
   memory version;
5. for iterative stencils, deep-tune the fusion degree and solve the
   ``opt(T)`` schedule for the requested iteration count (Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from ..codegen.generator import lower, schedule_tflops
from ..codegen.plan import GMEM, KernelPlan, ProgramPlan
from ..codegen.resources import auto_assign, seed_plan_from_pragma
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import PlanInfeasible
from ..ir.stencil import ProgramIR
from ..obs import span as _span
from ..obs.search import log_context as _log_context
from ..profiling.advisor import Advice, advise
from ..resilience.checkpoint import TuningJournal
from ..tuning.deeptuning import (
    DeepTuningResult,
    deep_tune,
    fusion_schedule,
    schedule_to_program_plan,
)
from ..tuning.evaluator import EvalStats, PlanEvaluator
from ..tuning.fission import (
    FissionCandidate,
    dedupe_candidates,
    generate_fission_candidates,
)
from ..tuning.fusion import maxfuse
from ..tuning.hierarchical import HierarchicalTuner


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of the full ARTEMIS flow on one program."""

    ir: ProgramIR
    schedule: ProgramPlan
    tflops: float
    variant: str  # 'tuned' | 'maxfuse' | 'trivial-fission' | ...
    hints: Tuple[str, ...] = ()
    advice: Tuple[Advice, ...] = ()
    deep_tuning: Optional[DeepTuningResult] = None
    fission_candidates: Tuple[FissionCandidate, ...] = ()
    evaluations: int = 0
    eval_stats: Optional[EvalStats] = None


def optimize(
    source_or_ir: Union[str, ProgramIR],
    device: DeviceSpec = P100,
    iterations: Optional[int] = None,
    top_k: int = 4,
    evaluator: Optional[PlanEvaluator] = None,
    journal: Optional[TuningJournal] = None,
) -> OptimizationOutcome:
    """Run the end-to-end ARTEMIS optimization flow.

    One :class:`PlanEvaluator` is shared by every tuning phase of the
    run (per-kernel tuning, fused/fission/global alternatives, deep
    tuning), so any plan the flow revisits is a memo-cache hit.
    ``journal`` checkpoints the run one tuning unit at a time: every
    finished per-kernel search and every finished deep-tuning degree is
    one record.  Records are content-addressed by IR fingerprint, base
    plan and tuner settings, so one journal file safely serves every
    phase (including fission variants, which are distinct IRs).  An
    interrupted run restarted with the same journal replays its finished
    units without evaluating them; a crash loses at most the unit in
    flight.
    """
    with _span("optimize"):
        with _span("lower"):
            ir = lower(source_or_ir)
        engine = evaluator or PlanEvaluator(device=device)
        stats_before = engine.stats.snapshot()
        outcome = _optimize(ir, iterations, top_k, engine, journal)
    outcome = replace(outcome, eval_stats=engine.stats.since(stats_before))
    if engine.search_log is not None:
        engine.search_log.winner(outcome)
    return outcome


def _optimize(
    ir: ProgramIR,
    iterations: Optional[int],
    top_k: int,
    engine: PlanEvaluator,
    journal: Optional[TuningJournal],
) -> OptimizationOutcome:
    if ir.is_iterative and len(ir.kernels) == 1:
        return _optimize_iterative(ir, iterations, top_k, engine, journal)
    if ir.is_iterative:
        # Multi-statement iterative DAGs (e.g. denoise): fuse the DAG
        # into one kernel, deep-tune the time dimension, and keep the
        # per-step (unfused-time) schedule as the fallback.
        fused = maxfuse(ir)
        spatial = _optimize_spatial(ir, top_k, engine, journal)
        if len(fused.kernels) == 1:
            try:
                fused_outcome = _optimize_iterative(
                    fused, iterations, top_k, engine, journal
                )
            except (PlanInfeasible, ValueError):
                return spatial
            if fused_outcome.tflops > spatial.tflops:
                return fused_outcome
        return spatial
    return _optimize_spatial(ir, top_k, engine, journal)


# ---------------------------------------------------------------------------
# iterative programs: deep tuning + opt(T)
# ---------------------------------------------------------------------------


def _optimize_iterative(
    ir: ProgramIR,
    iterations: Optional[int],
    top_k: int,
    evaluator: PlanEvaluator,
    journal: Optional[TuningJournal],
) -> OptimizationOutcome:
    device = evaluator.device
    steps = iterations if iterations is not None else ir.time_iterations
    deep = deep_tune(
        ir, device=device, top_k=top_k, evaluator=evaluator, journal=journal
    )
    schedule = fusion_schedule(deep, steps)
    program_plan = schedule_to_program_plan(deep, schedule)
    tflops = schedule_tflops(ir, program_plan, device, evaluator)
    hints = (
        f"deep tuning explored fusion degrees 1..{deep.k}; tipping point "
        f"at {deep.tipping_point}",
        f"schedule for T={steps}: {schedule.describe()}",
    )
    return OptimizationOutcome(
        ir=ir,
        schedule=program_plan,
        tflops=tflops,
        variant="deep-tuned",
        hints=hints,
        deep_tuning=deep,
        evaluations=deep.evaluations,
    )


# ---------------------------------------------------------------------------
# spatial programs: profile -> tune -> fission/global alternatives
# ---------------------------------------------------------------------------


def _optimize_spatial(
    ir: ProgramIR,
    top_k: int,
    evaluator: PlanEvaluator,
    journal: Optional[TuningJournal],
) -> OptimizationOutcome:
    """Tune the program, then each alternative version; keep the fastest.

    The alternatives run in a fixed order (the fused kernel DAG, each
    fission candidate, the global-memory version): the memo, the search
    log and the journal all see the calls in that order.
    """
    log = evaluator.search_log

    def version(version_ir, variant, force_gmem=False):
        with _log_context(log, variant=variant):
            schedule, advice, evaluations = _tune_kernels(
                version_ir, top_k, evaluator, journal, force_gmem
            )
        tflops = schedule_tflops(
            version_ir, schedule, evaluator.device, evaluator
        )
        return OptimizationOutcome(
            ir=version_ir, schedule=schedule, tflops=tflops, variant=variant,
            hints=tuple(h for a in advice for h in a.hints), advice=advice,
            evaluations=evaluations,
        )

    def faster(best, version_ir, variant, hint, force_gmem=False):
        """``best``, or the version merged into it when strictly faster.

        A fused or split program that cannot be tuned is skipped.  The
        global version is the input program itself: its
        ``PlanInfeasible`` ends the flow like the tuned version's, and
        when it wins it keeps the advice of the version it beat.
        """
        try:
            other = version(version_ir, variant, force_gmem)
        except PlanInfeasible:
            if force_gmem:
                raise
            return best
        if not other.tflops > best.tflops:
            return best
        return replace(
            other,
            hints=best.hints + (hint,),
            advice=best.advice if force_gmem else other.advice,
            evaluations=best.evaluations + other.evaluations,
        )

    best = version(ir, "tuned")
    wants_fission = any(a.explore_fission for a in best.advice)
    wants_global = any(a.generate_global_version for a in best.advice)
    candidates: Tuple[FissionCandidate, ...] = ()
    # Multi-kernel spatial DAGs: fusing stages eliminates intermediate
    # arrays' global traffic (Section VI) — evaluate the fused form.
    fused_ir = maxfuse(ir) if len(ir.kernels) > 1 else ir
    if len(fused_ir.kernels) < len(ir.kernels):
        best = faster(
            best, fused_ir, "dag-fused",
            "fusing the kernel DAG eliminates intermediate array traffic",
        )
    if wants_fission:
        candidates = generate_fission_candidates(ir, search_log=log)
        for candidate in dedupe_candidates(candidates):
            if candidate.label == "maxfuse" and len(candidate.ir.kernels) == len(
                ir.kernels
            ):
                continue  # identical to the input
            best = faster(
                best, candidate.ir, candidate.label,
                f"{candidate.label} outperforms the fused kernel",
            )
    if wants_global:
        best = faster(
            best, ir, "global",
            "global-memory version outperforms shared memory", force_gmem=True,
        )
    # Every winner but the fused DAG carries the fission candidates.
    return best if best.variant == "dag-fused" else replace(
        best, fission_candidates=candidates
    )


def _tune_kernels(
    ir: ProgramIR,
    top_k: int,
    evaluator: PlanEvaluator,
    journal: Optional[TuningJournal],
    force_gmem: bool = False,
) -> Tuple[ProgramPlan, Tuple[Advice, ...], int]:
    """Profile-advise-tune every kernel of a program."""
    device = evaluator.device
    plans: List[KernelPlan] = []
    advice_list: List[Advice] = []
    evaluations = 0
    log = evaluator.search_log
    for instance in ir.kernels:
        with _span("planning", kernel=instance.name):
            seed = seed_plan_from_pragma(ir, instance, device)
            if force_gmem:
                # The global version tiles all three dimensions (§VIII-F:
                # plain tiling beats streaming when nothing is buffered).
                seed = seed.replace(
                    streaming="none",
                    block=(4, 4, 16),
                    placements=tuple(
                        (array, GMEM) for array, _ in seed.placements
                    ),
                )
            else:
                seed = auto_assign(ir, seed, device).plan
        with _span("analysis", kernel=instance.name):
            kernel_advice = advise(ir, seed, device)
        if log is not None:
            log.advice(instance.name, kernel_advice)
        advice_list.append(kernel_advice)
        tuner = HierarchicalTuner(
            ir,
            device=device,
            use_unrolling=kernel_advice.use_unrolling,
            use_register_opts=kernel_advice.use_register_opts,
            bandwidth_bound=not kernel_advice.bottleneck.compute_bound(),
            top_k=top_k,
            evaluator=evaluator,
            journal=journal,
        )
        if not kernel_advice.use_shared_memory:
            seed = seed.replace(
                placements=tuple((a, GMEM) for a, _ in seed.placements)
            )
        result = tuner.tune(seed)
        evaluations += tuner.evaluations
        plans.append(result.best_plan)
    return ProgramPlan(plans=tuple(plans)), tuple(advice_list), evaluations
