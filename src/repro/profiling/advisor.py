"""Profiling-driven optimization decisions (paper Section IV-A).

The advisor turns a bottleneck report into concrete guidance: which
optimization families the autotuner should explore or suppress, which
alternate versions to generate for the user, and textual hints.  Each
rule below is one bullet of Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..codegen.plan import KernelPlan
from ..gpu.device import DeviceSpec, P100
from ..ir.stencil import ProgramIR
from .differencing import differencing_test
from .nvprof import ProfileReport, profile
from .roofline import BottleneckReport, classify_result

#: Spill bytes (relative to DRAM traffic) treated as high register
#: pressure even before hard spills appear.
SPILL_PRESSURE_RATIO = 0.02


@dataclass(frozen=True)
class Advice:
    """Optimization guidance for one kernel."""

    bottleneck: BottleneckReport
    use_shared_memory: bool
    use_unrolling: bool
    use_register_opts: bool  # retiming / register caching / folding
    explore_higher_fusion: bool
    explore_fission: bool
    generate_global_version: bool
    hints: Tuple[str, ...]

    def suppressed(self) -> Tuple[str, ...]:
        out: List[str] = []
        if not self.use_shared_memory:
            out.append("shared-memory buffering")
        if not self.use_unrolling:
            out.append("loop unrolling")
        if not self.use_register_opts:
            out.append("register-level optimizations")
        return tuple(out)


def advise(
    ir: ProgramIR,
    plan: KernelPlan,
    device: DeviceSpec = P100,
    report: Optional[ProfileReport] = None,
) -> Advice:
    """Apply the Section IV-A guidelines to one profiled kernel."""
    if report is None:
        report = profile(ir, plan, device)
    bottleneck = classify_result(report.result, device)
    counters = report.result.counters

    # Resolve ambiguous levels by code differencing (Section IV).
    resolved_bandwidth = {
        level: bottleneck.bandwidth_bound_at(level)
        for level in ("dram", "tex", "shm")
    }
    for level in bottleneck.ambiguous_levels():
        verdict = differencing_test(
            ir, plan, level, device, base=report.result
        )
        resolved_bandwidth[level] = verdict.bound

    compute_bound = bottleneck.compute_bound() and not any(
        resolved_bandwidth.values()
    )
    spills = counters.has_spills or (
        counters.dram_bytes > 0
        and counters.spill_bytes / counters.dram_bytes > SPILL_PRESSURE_RATIO
    )
    iterative = ir.is_iterative

    hints: List[str] = []
    use_shared = True
    use_unroll = True
    use_regopts = False
    explore_fusion = False
    explore_fission = False
    generate_global = False

    if compute_bound:
        # "shared memory optimizations, or optimizations like unrolling
        # that improve ILP, are not useful, and turned off ... FLOP-
        # reducing optimizations are applied."
        use_shared = False
        use_unroll = False
        use_regopts = True  # folding / CSE reduce FLOPs
        hints.append(
            "kernel is compute-bound: shared-memory and ILP optimizations "
            "disabled; applying FLOP-reducing rewrites (folding)"
        )
    if spills:
        # "If the stencil exhibits high register pressure or register
        # spills, then loop unrolling is turned off ... versions with
        # varying degree of fission" are generated.
        use_unroll = False
        explore_fission = True
        hints.append(
            f"register pressure ({counters.regs_demand} demanded vs "
            f"{counters.regs_per_thread} available): unrolling disabled, "
            "generating fission candidates"
        )
    if iterative and (resolved_bandwidth["tex"] or resolved_bandwidth["dram"]):
        explore_fusion = True
        hints.append(
            "iterative stencil bandwidth-bound at texture/DRAM: exploring "
            "a higher fusion degree"
        )
    if not iterative and resolved_bandwidth["tex"]:
        use_shared = True
        hints.append(
            "spatial stencil texture-bandwidth-bound: shared memory "
            "buffering enabled by default"
        )
    if (
        not iterative
        and resolved_bandwidth["dram"]
        and plan.placement_map
        and any(s == "shmem" for _, s in plan.placements)
    ):
        # DRAM-bound *despite* shared memory: the extra shared traffic
        # may not pay off — hand the user a global-memory version.
        verdict = differencing_test(
            ir, plan, "dram", device, base=report.result
        )
        if verdict.bound:
            generate_global = True
            hints.append(
                "kernel remains DRAM bandwidth-bound with shared memory: "
                "generating the global-memory version; consider algorithmic "
                "changes that reduce DRAM traffic or stencil order"
            )
    if resolved_bandwidth["shm"]:
        use_regopts = True
        hints.append(
            "kernel is shared-memory bandwidth-bound: enabling register-"
            "level optimizations (retiming, register caching, folding)"
        )

    return Advice(
        bottleneck=bottleneck,
        use_shared_memory=use_shared,
        use_unrolling=use_unroll,
        use_register_opts=use_regopts,
        explore_higher_fusion=explore_fusion,
        explore_fission=explore_fission,
        generate_global_version=generate_global,
        hints=tuple(hints),
    )
