"""Resource assignment and rationing (paper Sections II-B1 and II-B2).

Resource *assignment* decides which arrays are cached in shared memory,
held in register windows, or read straight from global memory.  Unlike
code generators that buffer everything (and then must shrink the thread
block until it fits), ARTEMIS:

* honours the user's ``#assign`` constraints verbatim;
* auto-assigns remaining arrays by benefit density (reads served per
  byte of shared memory), admitting buffers while the block still fits
  the device's shared-memory and occupancy budget;
* under an ``occupancy t`` pragma clause (resource *rationing*),
  repeatedly demotes the shared buffer with the fewest accesses to
  global memory until the target occupancy is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..gpu.device import DeviceSpec, P100
from ..gpu.occupancy import occupancy
from ..gpu.registers import compiled_registers
from ..ir.analysis import access_summary
from ..ir.homogenize import kernel_retimable
from ..ir.stencil import ProgramIR, StencilInstance
from ..resilience.errors import InfeasiblePlanError
from .plan import GMEM, KernelPlan, REGISTER, SHMEM
from .tiling import (
    build_stages,
    is_star_along,
    launch_geometry,
    shmem_bytes_per_block,
)


class InvalidPlan(InfeasiblePlanError):
    """Raised when a plan combines transformations illegally.

    Part of the :mod:`repro.resilience` taxonomy (and still a
    ``ValueError``, as in the seed implementation).
    """


def validate_plan(ir: ProgramIR, plan: KernelPlan) -> None:
    """Check a plan's transformation legality (not device feasibility).

    * ``register`` placement demands a star access pattern along the
      stream axis (a register cannot hold a neighbour thread's value);
    * retiming demands every fused kernel be homogenizable along the
      stream axis and requires streaming;
    * the stream axis must exist;
    * every fused kernel instance must exist in the program.
    """
    for name in plan.kernel_names:
        try:
            ir.kernel(name)
        except KeyError:
            raise InvalidPlan(f"unknown kernel instance {name!r}") from None
    if plan.stream_axis >= ir.ndim:
        raise InvalidPlan(
            f"stream axis {plan.stream_axis} out of range for "
            f"{ir.ndim}-D program"
        )
    try:
        stages = build_stages(ir, plan)
    except ValueError as exc:
        # e.g. a multi-kernel time tile: stage construction refuses the
        # shape; classify it as the structural invalidity it is instead
        # of leaking a bare ValueError past the INFEASIBLE taxonomy.
        raise InvalidPlan(str(exc)) from None
    if plan.retime:
        if not plan.uses_streaming:
            raise InvalidPlan("retiming requires streaming")
        iterator = ir.iterators[plan.stream_axis]
        for stage in stages:
            if not kernel_retimable(ir, stage.instance, iterator):
                raise InvalidPlan(
                    f"kernel {stage.instance.name!r} is not homogenizable "
                    f"along {iterator!r}; retiming is illegal"
                )
    for array, storage in plan.placements:
        if storage == REGISTER and plan.uses_streaming:
            for stage in stages:
                if array in stage.instance.arrays_read() and not is_star_along(
                    ir, stage.instance, array, plan.stream_axis
                ):
                    raise InvalidPlan(
                        f"array {array!r} has cross-thread reads off the "
                        "stream plane; register placement is illegal"
                    )


# ---------------------------------------------------------------------------
# automatic assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of resource assignment for one plan."""

    plan: KernelPlan
    demoted: Tuple[str, ...] = ()  # arrays pushed to gmem by rationing
    notes: Tuple[str, ...] = ()


def candidate_arrays(ir: ProgramIR, plan: KernelPlan) -> List[str]:
    """Arrays that could profit from on-chip buffering, most reads first."""
    scores: Dict[str, int] = {}
    for name in plan.kernel_names:
        instance = ir.kernel(name)
        for array, info in access_summary(ir, instance).items():
            if info.reads_total == 0:
                continue
            scores[array] = scores.get(array, 0) + info.reads_total
    return sorted(scores, key=lambda a: (-scores[a], a))


def auto_assign(
    ir: ProgramIR,
    plan: KernelPlan,
    device: DeviceSpec = P100,
    shmem_budget_fraction: float = 0.9,
) -> AssignmentResult:
    """Assign storage classes automatically, honouring user constraints.

    Arrays already placed by the plan (user ``#assign``) are untouched.
    Remaining read arrays are admitted to shared memory by benefit
    density until the shared-memory budget is exhausted; full-rank arrays
    with a star pattern cost only one plane, so they are admitted first.
    Lower-rank arrays (e.g. 1-D coefficient vectors) stay in global
    memory — their reuse is already captured by L2/constant caches.
    """
    fixed = plan.placement_map
    budget = int(device.shared_mem_per_block * shmem_budget_fraction)
    placements: List[Tuple[str, str]] = list(plan.placements)
    notes: List[str] = []

    ranked = []
    reuse = {}
    for name in plan.kernel_names:
        for array, info in access_summary(ir, ir.kernel(name)).items():
            reuse[array] = max(reuse.get(array, 0), info.reads_distinct)
    for array in candidate_arrays(ir, plan):
        if array in fixed:
            continue
        info = ir.array_map.get(array)
        if info is None or info.ndim < ir.ndim:
            notes.append(f"{array}: lower-rank, kept in global memory")
            continue
        if reuse.get(array, 0) <= 1:
            # Read at a single offset: a shared buffer adds fill and
            # load traffic without removing any global access.
            notes.append(f"{array}: no reuse, kept in global memory")
            continue
        ranked.append(array)

    # Admission is tested at a conservative reference block: the
    # autotuner will shrink the block when a buffer set does not fit a
    # large one, so assignment must not depend on the seed's block size.
    if plan.uses_streaming:
        reference = plan.replace(block=(16, 16), unroll=())
    else:
        reference = plan.replace(block=(4, 8, 8), unroll=())

    current = plan
    ref_current = reference
    for array in ranked:
        trial = ref_current.replace(
            placements=tuple(placements + [(array, SHMEM)])
        )
        if shmem_bytes_per_block(ir, trial) <= budget:
            placements.append((array, SHMEM))
            ref_current = trial
            current = current.replace(placements=tuple(placements))
        else:
            notes.append(f"{array}: shared-memory budget exhausted")
    return AssignmentResult(plan=current, notes=tuple(notes))


# ---------------------------------------------------------------------------
# rationing: occupancy targets (Section II-B2)
# ---------------------------------------------------------------------------


def apply_occupancy_target(
    ir: ProgramIR,
    plan: KernelPlan,
    target: float,
    device: DeviceSpec = P100,
) -> AssignmentResult:
    """Demote least-accessed shared buffers until ``target`` is reachable.

    Mirrors the paper: "the resource mapping algorithm must choose a
    shared memory buffer with minimum number of accesses, and demote its
    storage to global memory.  This process is repeated till the shared
    memory usage is no longer a bottleneck in achieving the targeted
    occupancy."
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("occupancy target must be in (0, 1]")
    current = plan
    demoted: List[str] = []
    notes: List[str] = []
    while True:
        if _occupancy_reachable(ir, current, target, device):
            break
        victim = _least_accessed_shared(ir, current)
        if victim is None:
            notes.append(
                "no shared buffers left to demote; target occupancy "
                "unreachable via rationing"
            )
            break
        placements = tuple(
            (a, GMEM if a == victim else s) for a, s in current.placements
        )
        current = current.replace(placements=placements)
        demoted.append(victim)
        notes.append(f"{victim}: demoted to global memory")
    return AssignmentResult(
        plan=current, demoted=tuple(demoted), notes=tuple(notes)
    )


def _occupancy_reachable(
    ir: ProgramIR, plan: KernelPlan, target: float, device: DeviceSpec
) -> bool:
    geometry = launch_geometry(ir, plan)
    shmem = shmem_bytes_per_block(ir, plan)
    regs = compiled_registers(ir, plan)["compiled"]
    try:
        result = occupancy(device, geometry.threads_per_block, regs, shmem)
    except ValueError:
        return False
    return result.occupancy >= target


def _least_accessed_shared(ir: ProgramIR, plan: KernelPlan) -> Optional[str]:
    shared = [a for a, s in plan.placements if s == SHMEM]
    if not shared:
        return None
    counts: Dict[str, int] = {a: 0 for a in shared}
    for name in plan.kernel_names:
        instance = ir.kernel(name)
        for array, info in access_summary(ir, instance).items():
            if array in counts:
                counts[array] += info.reads_total
    return min(counts, key=lambda a: (counts[a], a))


def seed_plan_from_pragma(
    ir: ProgramIR, instance: StencilInstance, device: DeviceSpec = P100
) -> KernelPlan:
    """Baseline plan from the stencil's ``#pragma`` (Section VII, step 1).

    Uses the pragma's streaming dimension, block size and unroll factors;
    fills in conservative defaults when absent.  An ``occupancy`` clause
    rations the shared buffers for ``device``.
    """
    pragma = instance.pragma
    ndim = ir.ndim
    if pragma is not None and pragma.stream_dim:
        stream_axis = ir.axis_of(pragma.stream_dim)
        streaming = "serial"
    else:
        stream_axis = 0
        streaming = "serial" if ndim >= 3 else "none"
    if pragma is not None and pragma.block:
        block = tuple(pragma.block)
    else:
        block = (16, 16) if streaming == "serial" else (16, 4, 4)
    unroll = [1] * ndim
    if pragma is not None:
        for it_name, factor in pragma.unroll:
            unroll[ir.axis_of(it_name)] = factor
    plan = KernelPlan(
        kernel_names=(instance.name,),
        block=block,
        streaming=streaming,
        stream_axis=stream_axis,
        unroll=tuple(unroll),
        placements=instance.placements,
    )
    if pragma is not None and pragma.occupancy is not None:
        plan = apply_occupancy_target(
            ir, plan, pragma.occupancy, device
        ).plan
    return plan
