"""Human-readable optimization reports.

ARTEMIS emits "some optimization hints for the user in the form of
textual output" (Section VII); this module renders the outcome of the
end-to-end flow, including the chosen plans, predicted performance, the
profiling verdicts and any generated fission candidates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import simulate
from ..obs import Span, aggregate_phases, get_tracer, tracing_enabled
from ..profiling.roofline import classify_result
from .artemis import OptimizationOutcome


def format_phase_timings(spans: Sequence[Span]) -> List[str]:
    """Per-phase timing table: one row per span name.

    ``total`` sums every span of that name; ``self`` excludes time
    already billed to child phases (so "tuning" does not re-count its
    "tuning.stage1"/"tuning.stage2" sub-phases or the simulations they
    ran).
    """
    totals = aggregate_phases(spans)
    if not totals:
        return []
    lines = ["phase timings:"]
    name_width = max(24, max(len(p.name) for p in totals) + 2)
    lines.append(
        f"  {'phase':{name_width}s} {'calls':>7s} {'total ms':>10s} "
        f"{'self ms':>10s}"
    )
    for phase in totals:
        lines.append(
            f"  {phase.name:{name_width}s} {phase.count:7d} "
            f"{phase.total_s * 1e3:10.2f} {phase.self_s * 1e3:10.2f}"
        )
    return lines


def format_report(
    outcome: OptimizationOutcome,
    device: DeviceSpec = P100,
    phase_spans: Optional[Sequence[Span]] = None,
) -> str:
    """Render an optimization outcome as a textual report.

    When tracing is active (or ``phase_spans`` is passed explicitly), a
    per-phase timing table is appended after the eval-stats block.
    """
    lines: List[str] = []
    lines.append("=" * 72)
    lines.append("ARTEMIS optimization report")
    lines.append("=" * 72)
    lines.append(f"variant chosen : {outcome.variant}")
    lines.append(f"performance    : {outcome.tflops:.3f} TFLOPS (simulated)")
    lines.append(f"evaluations    : {outcome.evaluations}")
    if outcome.eval_stats is not None:
        stats = outcome.eval_stats
        lines.append(
            f"eval engine    : {stats.requests} requests, "
            f"{stats.hits} cache hits, {stats.simulations} simulated, "
            f"{stats.rungs_skipped} escalation rungs skipped"
        )
        lines.append(
            f"                 {stats.simulations_avoided} simulations "
            f"avoided, {stats.wall_s * 1e3:.1f} ms wall in evaluation"
        )
    spans = phase_spans
    if spans is None and tracing_enabled():
        spans = get_tracer().finished()
    if spans:
        lines.append("")
        lines.extend(format_phase_timings(spans))
    lines.append("")
    lines.append("launches:")
    for plan, count in zip(outcome.schedule.plans, outcome.schedule.counts):
        sim = simulate(outcome.ir, plan, device)
        report = classify_result(sim, device)
        suffix = f" x{count}" if count > 1 else ""
        lines.append(f"  - {plan.describe()}{suffix}")
        lines.append(
            f"      {sim.time_ms:.3f} ms/launch, occupancy "
            f"{sim.occupancy.occupancy:.0%}, bound at {report.bound_level}, "
            f"OI(dram/tex/shm) = "
            f"{sim.counters.oi('dram'):.2f}/"
            f"{sim.counters.oi('tex'):.2f}/"
            f"{sim.counters.oi('shm'):.2f}"
        )
    if outcome.hints:
        lines.append("")
        lines.append("hints:")
        for hint in outcome.hints:
            lines.append(f"  * {hint}")
    if outcome.fission_candidates:
        lines.append("")
        lines.append("fission candidates written (DSL):")
        for candidate in outcome.fission_candidates:
            kernels = len(candidate.ir.kernels)
            lines.append(f"  * {candidate.label}: {kernels} kernel(s)")
    if outcome.deep_tuning is not None:
        lines.append("")
        lines.append("deep tuning (per fusion degree):")
        for entry in outcome.deep_tuning.entries:
            marker = (
                "  <-- tipping point"
                if entry.time_tile == outcome.deep_tuning.tipping_point
                else ""
            )
            lines.append(
                f"  ({entry.time_tile} x 1): {entry.tflops:.3f} TFLOPS, "
                f"bound at {entry.bound_level}{marker}"
            )
    return "\n".join(lines)
