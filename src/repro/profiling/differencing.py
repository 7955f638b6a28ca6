"""Code differencing (paper Section IV, Listings 2 vs 3).

When a kernel's OI sits near a ridge point, ARTEMIS resolves the
classification empirically: it generates a modified version V' whose
accesses to the suspect memory level are drastically reduced — Listing 3
confines every global access to one block-sized tile — runs both, and
declares the kernel bound at that level iff V' runs faster.

In this reproduction, V' is realized by re-simulating the plan with the
suspect level's traffic collapsed the same way Listing 3 collapses it:
every block's global reads land in one tile's worth of data (so DRAM
transactions vanish into cache), or the shared/texture traffic is
similarly short-circuited.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..codegen.plan import KernelPlan
from ..gpu.counters import KernelCounters, SimulationResult, TimingBreakdown
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import simulate
from ..ir.stencil import ProgramIR
from ..resilience.errors import UsageError

#: Speedup V' must show before V is declared bound at the level.
SPEEDUP_THRESHOLD = 1.10


@dataclass(frozen=True)
class DifferencingVerdict:
    """Outcome of one code-differencing experiment."""

    level: str
    base_time_s: float
    reduced_time_s: float
    bound: bool

    @property
    def speedup(self) -> float:
        if self.reduced_time_s <= 0:
            return float("inf")
        return self.base_time_s / self.reduced_time_s


def _reduced_result(
    base: SimulationResult, level: str
) -> SimulationResult:
    """Synthesize V': the level's traffic collapsed to one tile per block.

    Listing 3 keeps the instruction stream (so tex transactions remain)
    but confines DRAM to a per-block tile; for the tex and shm levels the
    corresponding traffic itself is short-circuited.
    """
    counters = base.counters
    if level == "dram":
        tile_bytes = float(
            counters.blocks * counters.threads_per_block * 8
        )
        new_counters = replace(
            counters,
            dram_read_bytes=min(counters.dram_read_bytes, tile_bytes),
            dram_write_bytes=min(counters.dram_write_bytes, tile_bytes),
            spill_bytes=0.0,
        )
    elif level == "tex":
        new_counters = replace(
            counters,
            tex_bytes=counters.tex_bytes * 0.05,
        )
    elif level == "shm":
        new_counters = replace(counters, shm_bytes=counters.shm_bytes * 0.05)
    else:
        raise UsageError(f"unknown memory level {level!r}")
    timing = _retime(base.timing, counters, new_counters)
    return SimulationResult(
        counters=new_counters, occupancy=base.occupancy, timing=timing
    )


def _retime(
    timing: TimingBreakdown,
    old: KernelCounters,
    new: KernelCounters,
) -> TimingBreakdown:
    """Scale each resource's time by its traffic ratio."""

    def scaled(time_s: float, old_bytes: float, new_bytes: float) -> float:
        if old_bytes <= 0:
            return time_s
        return time_s * (new_bytes / old_bytes)

    return TimingBreakdown(
        compute_s=timing.compute_s,
        dram_s=scaled(timing.dram_s, old.dram_bytes, new.dram_bytes),
        tex_s=scaled(timing.tex_s, old.tex_bytes, new.tex_bytes),
        shm_s=scaled(timing.shm_s, old.shm_bytes, new.shm_bytes),
        sync_s=timing.sync_s,
        latency_s=timing.latency_s,
        launch_s=timing.launch_s,
    )


def differencing_test(
    ir: ProgramIR,
    plan: KernelPlan,
    level: str,
    device: DeviceSpec = P100,
    base: Optional[SimulationResult] = None,
) -> DifferencingVerdict:
    """Run V and the reduced V' and compare execution times.

    ``base`` is V's result when the caller has just priced ``plan`` on
    ``device`` (the advisor passes its profile's); without it, V is
    simulated here.
    """
    if base is None:
        base = simulate(ir, plan, device)
    reduced = _reduced_result(base, level)
    speedup = base.time_s / reduced.time_s if reduced.time_s > 0 else float("inf")
    return DifferencingVerdict(
        level=level,
        base_time_s=base.time_s,
        reduced_time_s=reduced.time_s,
        bound=speedup >= SPEEDUP_THRESHOLD,
    )
