"""Deep tuning of iterative stencils for arbitrary time iterations (§VI-A).

ARTEMIS generates version ``(x × 1)`` — one fused launch covering ``x``
time steps — starting at ``x = 1``.  Each version is autotuned and then
profiled; version ``(x+1) × 1`` is tuned *only if* version ``(x × 1)`` is
still bandwidth-bound at DRAM, texture cache, or shared memory (fusion
only helps bandwidth-bound kernels).  With the per-launch times ``f(x)``
recorded, a near-optimal fusion schedule for any iteration count ``T``
follows from the dynamic program::

    opt(0) = 0
    opt(T) = min over 1 <= x <= min(k, T) of  f(x) + opt(T - x)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..codegen.plan import KernelPlan, ProgramPlan
from ..codegen.resources import auto_assign, seed_plan_from_pragma
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import PlanInfeasible
from ..ir.stencil import ProgramIR
from ..obs import span as _span
from ..obs.search import log_context as _log_context
from ..profiling.roofline import classify_result
from ..resilience.checkpoint import (
    TuningJournal,
    ir_fingerprint,
    plan_from_dict,
    plan_to_dict,
)
from ..resilience.errors import UsageError
from .evaluator import EvalStats, Measurement, PlanEvaluator
from .hierarchical import HierarchicalTuner, TuningResult

#: Hard cap on explored fusion degrees ("usually k <= 4 for most order-1
#: stencils, and much smaller for high-order stencils").
MAX_FUSION_DEGREE = 8


@dataclass(frozen=True)
class DeepTuningEntry:
    """One tuned fusion degree."""

    time_tile: int
    measurement: Measurement
    bandwidth_bound: bool
    bound_level: str

    @property
    def time_s(self) -> float:
        return self.measurement.time_s

    @property
    def tflops(self) -> float:
        return self.measurement.tflops


@dataclass(frozen=True)
class DeepTuningResult:
    """All tuned fusion degrees for one iterative stencil."""

    entries: Tuple[DeepTuningEntry, ...]
    evaluations: int
    eval_stats: Optional[EvalStats] = None

    @property
    def k(self) -> int:
        """Largest tuned fusion degree."""
        return max(e.time_tile for e in self.entries)

    @property
    def tipping_point(self) -> int:
        """The fusion degree past which performance stops improving —
        the pink-circled cusp of the paper's Figure 4."""
        best = max(self.entries, key=lambda e: e.tflops)
        return best.time_tile

    def f(self, x: int) -> float:
        """Per-launch execution time of version (x × 1)."""
        for entry in self.entries:
            if entry.time_tile == x:
                return entry.time_s
        raise KeyError(x)

    def plan_for(self, x: int) -> KernelPlan:
        for entry in self.entries:
            if entry.time_tile == x:
                return entry.measurement.plan
        raise KeyError(x)


def deep_tune(
    ir: ProgramIR,
    device: DeviceSpec = P100,
    max_degree: int = MAX_FUSION_DEGREE,
    use_register_opts: bool = True,
    top_k: int = 4,
    evaluator: Optional[PlanEvaluator] = None,
    journal: Optional[TuningJournal] = None,
    make_tuner: Optional[Callable[..., HierarchicalTuner]] = None,
) -> DeepTuningResult:
    """Tune fusion degrees 1, 2, ... while profiling says fusion helps.

    A single evaluation engine is shared across the degree sweep, so
    plans revisited between degrees (and the post-tune profiling
    simulation of each winner) are served from the memo cache.

    With a ``journal``, checkpoint/resume operates at two levels:
    completed fusion degrees replay wholesale from their ``degree``
    records, and within an interrupted degree the inner hierarchical
    tuner replays its journaled candidates — so a crash mid-sweep loses
    at most the candidate being evaluated.  The stopping conditions are
    deterministic functions of the entries, so a resumed sweep halts at
    the same degree as an uninterrupted one.

    ``make_tuner`` swaps the inner per-degree tuner class: it is called
    with the same keyword arguments ``HierarchicalTuner`` would receive
    (``use_register_opts``, ``top_k``, ``evaluator``, ``journal``).
    Transfer tuning uses this to warm-start every degree from another
    device's journal (``repro.tuning.transfer``).
    """
    if not ir.is_iterative:
        raise UsageError("deep tuning applies to iterative stencils")
    if len(ir.kernels) != 1:
        raise UsageError("deep tuning expects a single smoother kernel")
    engine = evaluator or PlanEvaluator(device=device)
    stats_before = engine.stats.snapshot()
    irfp = ir_fingerprint(ir) if journal is not None else None
    instance = ir.kernels[0]
    entries: List[DeepTuningEntry] = []
    evaluations = 0
    slog = engine.search_log
    with _span("deep_tune", max_degree=max_degree), _log_context(
        slog, phase="deep-tune"
    ):
        for degree in range(1, max_degree + 1):
            degree_key = f"{irfp}:degree:{degree}"
            record = journal.lookup(degree_key) if journal is not None else None
            if record is not None:
                entry = DeepTuningEntry(
                    time_tile=degree,
                    measurement=Measurement(
                        plan=plan_from_dict(record["plan"]),
                        time_s=record["time_s"],
                        tflops=record["tflops"],
                    ),
                    bandwidth_bound=record["bandwidth_bound"],
                    bound_level=record["bound_level"],
                )
                if slog is not None:
                    with slog.context(degree=degree):
                        slog.replay(entry.measurement.plan)
                evaluations += int(record.get("evaluations", 0))
                entries.append(entry)
            else:
                with _span("deep_tune.degree", degree=degree), _log_context(
                    slog, degree=degree
                ):
                    with _span("planning", kernel=instance.name, degree=degree):
                        base = seed_plan_from_pragma(ir, instance).replace(
                            time_tile=degree
                        )
                        base = auto_assign(ir, base, engine.device).plan
                    tuner = (make_tuner or HierarchicalTuner)(
                        ir,
                        use_register_opts=use_register_opts,
                        top_k=top_k,
                        evaluator=engine,
                        journal=journal,
                    )
                    try:
                        result = tuner.tune(base)
                    except PlanInfeasible:
                        break
                    evaluations += tuner.evaluations
                    # The winner was just tuned, so this classification
                    # simulation is a cache hit — the identical
                    # SimulationResult object.  Phase-labelled so the
                    # bench profile can attribute it (on a cold run
                    # these are the *only* cache hits: the stages
                    # themselves are all-miss by design).
                    with engine.phase("classify"):
                        sim = engine.evaluate(ir, result.best_plan)
                    report = classify_result(sim, engine.device)
                bandwidth = report.bound_level in ("dram", "tex", "shm")
                entries.append(
                    DeepTuningEntry(
                        time_tile=degree,
                        measurement=result.best,
                        bandwidth_bound=bandwidth,
                        bound_level=report.bound_level,
                    )
                )
                if journal is not None:
                    journal.record_degree(
                        degree_key,
                        {
                            "degree": degree,
                            "plan": plan_to_dict(result.best.plan),
                            "time_s": result.best.time_s,
                            "tflops": result.best.tflops,
                            "bandwidth_bound": bandwidth,
                            "bound_level": report.bound_level,
                            "evaluations": tuner.evaluations,
                        },
                    )
            # Fusion helps only bandwidth-bound versions: stop otherwise.
            if not entries[-1].bandwidth_bound:
                break
            # Stop when the fused version got slower per step (the cusp).
            if degree >= 2:
                prev = entries[-2]
                if entries[-1].time_s / degree > prev.time_s / prev.time_tile:
                    break
    if not entries:
        raise PlanInfeasible("no fusion degree could be tuned")
    return DeepTuningResult(
        entries=tuple(entries),
        evaluations=evaluations,
        eval_stats=engine.stats.since(stats_before),
    )


# ---------------------------------------------------------------------------
# fusion-schedule dynamic program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionSchedule:
    """Optimal launch decomposition of T iterations."""

    total_time_s: float
    tiles: Tuple[int, ...]  # launch time-tile sizes, in execution order

    def counts(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for tile in self.tiles:
            out[tile] = out.get(tile, 0) + 1
        return out

    def describe(self) -> str:
        """Paper notation: ``(4x3 ⊕ 1x1)`` for tiles (4,4,4,1)."""
        parts = [
            f"{tile}x{count}" for tile, count in sorted(self.counts().items(),
                                                        reverse=True)
        ]
        return " (+) ".join(parts)


#: Below this many inner-loop operations (``iterations x degrees``) the
#: scalar DP wins — per-step numpy dispatch overhead exceeds the work.
VECTOR_DP_MIN_OPS = 4096


def fusion_schedule(result: DeepTuningResult, iterations: int) -> FusionSchedule:
    """Solve opt(T) exactly via dynamic programming.

    For long horizons the per-step minimization runs as one numpy
    reduction over the degree axis; the two paths are bitwise-identical
    (float64 addition either way, and ``argmin``'s first-occurrence
    tie-break picks the same tile as the scalar loop's strict-less
    update, which also keeps the first minimum in ascending ``x``).
    """
    if iterations < 0:
        raise UsageError("iteration count must be non-negative")
    if iterations == 0:
        return FusionSchedule(total_time_s=0.0, tiles=())
    # Both paths touch exactly degrees 1..min(k, T), so a gap in the
    # tuned entries raises the same KeyError the scalar loop would.
    k = min(result.k, iterations)
    f_vals = [result.f(x) for x in range(1, k + 1)]
    np = None
    if iterations * k >= VECTOR_DP_MIN_OPS:
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a runtime dep
            np = None
    choice: List[int] = [0] * (iterations + 1)
    if np is not None:
        f_arr = np.asarray(f_vals, dtype=np.float64)
        best_arr = np.empty(iterations + 1, dtype=np.float64)
        best_arr[0] = 0.0
        for t in range(1, iterations + 1):
            m = min(k, t)
            # best[t-1], best[t-2], ..., best[t-m] — aligned with x=1..m.
            costs = f_arr[:m] + best_arr[t - m:t][::-1]
            idx = int(np.argmin(costs))
            best_arr[t] = costs[idx]
            choice[t] = idx + 1
        total = float(best_arr[iterations])
    else:
        best: List[float] = [0.0] + [float("inf")] * iterations
        for t in range(1, iterations + 1):
            for x in range(1, min(k, t) + 1):
                cost = f_vals[x - 1] + best[t - x]
                if cost < best[t]:
                    best[t] = cost
                    choice[t] = x
        total = best[iterations]
    tiles: List[int] = []
    t = iterations
    while t > 0:
        tiles.append(choice[t])
        t -= choice[t]
    tiles.reverse()
    return FusionSchedule(total_time_s=total, tiles=tuple(tiles))


def schedule_to_program_plan(
    result: DeepTuningResult, schedule: FusionSchedule
) -> ProgramPlan:
    """Materialize a fusion schedule as a launchable ProgramPlan."""
    plans: List[KernelPlan] = []
    counts: List[int] = []
    for tile in schedule.tiles:
        plan = result.plan_for(tile)
        if plans and plans[-1] == plan:
            counts[-1] += 1
        else:
            plans.append(plan)
            counts.append(1)
    return ProgramPlan(plans=tuple(plans), launch_counts=tuple(counts))
