"""Scalar reference of the counter and timing model: the parity oracle.

The analytical model lives in :mod:`repro.gpu.pricing`, which prices a
structural plan family over a lane axis; :func:`repro.gpu.simulator.simulate`
is one lane of it.  This module keeps the model's original scalar form
(``_count``, ``_time`` and their helpers) so tests can check every lane
the lane model prices against an independent, plan-at-a-time
implementation, as ``tests/dsl/reference_lexer.py`` does for the lexer.
Nothing in ``src`` imports it.

:func:`simulate` here returns exactly what the lane model returns, field
for field, or raises the same :class:`PlanInfeasible` (both run the
occupancy screen of :func:`repro.gpu.simulator.plan_occupancy`), and
:func:`verdict` is what the evaluation engine must answer for one
request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.codegen.plan import KernelPlan, PERSPECTIVE_OUTPUT
from repro.codegen.resources import InvalidPlan, validate_plan
from repro.codegen.tiling import (
    LaunchGeometry,
    Stage,
    _plan_memoized,
    build_stages,
    buffer_requirements,
    distinct_read_offsets,
    gmem_loads_per_point,
    intermediate_specs,
    launch_geometry,
    points_computed,
    read_footprint,
    shmem_bytes_per_block,
)
from repro.gpu.counters import KernelCounters, SimulationResult, TimingBreakdown
from repro.gpu.device import DeviceSpec, P100
from repro.gpu.occupancy import OccupancyResult
from repro.gpu.pricing import (
    _center_plane_reads,
    _consumed_name,
    _inplane_distinct_reads,
    _unique_bytes,
    externally_visible,
    intermediate_arrays,
)
from repro.gpu.registers import register_demand
from repro.gpu.simulator import PlanInfeasible, plan_occupancy
from repro.ir.analysis import access_summary
from repro.ir.stencil import ProgramIR
from repro.ir.types import sizeof
from repro.lint.rules_plan import plan_rejection


@dataclass(frozen=True)
class PlanPrefix:
    """The register-independent prefix of a scalar simulation.

    Everything here is a pure function of (IR, plan family): launch
    geometry, the fused stage list, buffer layouts, shared-memory bytes
    and uncapped register demand.
    """

    geometry: LaunchGeometry
    stages: Tuple[Stage, ...]
    buffers: Dict[str, "object"]
    shmem: int
    reg_demand: int
    live_bytes_per_block: float
    intermediates: frozenset
    inter_by_consumer: Dict[Tuple[int, str], "object"]
    externally_visible: frozenset


def plan_prefix(ir: ProgramIR, plan: KernelPlan) -> PlanPrefix:
    """Register-independent analysis of a plan (memoized per family)."""
    return _plan_memoized(
        "reference_prefix", ir, plan, lambda: _plan_prefix(ir, plan)
    )


def _plan_prefix(ir: ProgramIR, plan: KernelPlan) -> PlanPrefix:
    geometry = launch_geometry(ir, plan)
    stages = tuple(build_stages(ir, plan))
    buffers = buffer_requirements(ir, plan)
    return PlanPrefix(
        geometry=geometry,
        stages=stages,
        buffers=buffers,
        shmem=shmem_bytes_per_block(ir, plan),
        reg_demand=register_demand(ir, plan),
        live_bytes_per_block=_live_bytes_per_block(
            ir, plan, geometry, stages, buffers
        ),
        intermediates=intermediate_arrays(ir, plan),
        inter_by_consumer={
            (spec.stage_index + 1, spec.array): spec
            for spec in intermediate_specs(ir, plan)
        },
        externally_visible=externally_visible(ir, plan),
    )


def simulate(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> SimulationResult:
    """Simulate one launch of ``plan`` with the scalar model."""
    pre = plan_prefix(ir, plan)
    regs = {
        "demand": pre.reg_demand,
        "compiled": min(pre.reg_demand, plan.max_registers),
    }
    occ = plan_occupancy(ir, plan, device)
    counters = _count(ir, plan, device, pre, regs, occ)
    timing = _time(ir, plan, device, pre.geometry, counters, occ)
    return SimulationResult(counters=counters, occupancy=occ, timing=timing)


def verdict(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> Union[SimulationResult, str]:
    """What one evaluation-engine request for ``plan`` must answer,
    computed plan by plan: validate, prescreen (``plan_rejection``),
    then :func:`simulate`.  Returns the result, or the refusal message
    (``"[RLxxx] ..."``) or validation failure the request reports."""
    try:
        validate_plan(ir, plan)
        diagnostic = plan_rejection(ir, plan, device, assume_validated=True)
        if diagnostic is not None:
            return f"[{diagnostic.code}] {diagnostic.message}"
        return simulate(ir, plan, device)
    except (InvalidPlan, PlanInfeasible) as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def _domain_points(geometry: LaunchGeometry) -> int:
    total = 1
    for extent in geometry.domain:
        total *= extent
    return total


def _count(
    ir: ProgramIR,
    plan: KernelPlan,
    device: DeviceSpec,
    pre: PlanPrefix,
    regs: Dict[str, int],
    occ: OccupancyResult,
) -> KernelCounters:
    geometry = pre.geometry
    stages = pre.stages
    buffers = pre.buffers
    shmem = pre.shmem
    blocks = geometry.blocks
    domain_points = _domain_points(geometry)
    esize = 8  # evaluation suite is double precision; per-array dtype below

    flops = 0.0
    useful_flops = 0.0
    tex_bytes = 0.0
    dram_read = 0.0
    dram_write = 0.0
    shm_bytes = 0.0

    active_blocks = max(1, occ.blocks_per_sm * device.sms)
    working_set = active_blocks * max(pre.live_bytes_per_block, 1)
    p_intra = min(1.0, device.l2_cache_bytes / working_set)
    p_inter = device.inter_block_l2_factor * p_intra

    intermediates = pre.intermediates
    # Inter-stage buffer specs, keyed by (consumer stage index, array).
    inter_by_consumer = pre.inter_by_consumer

    externally_visible = pre.externally_visible

    for stage in stages:
        instance = stage.instance
        pts = points_computed(ir, plan, stage, geometry)
        flops += stage.flops_per_point * pts * blocks
        useful_flops += stage.flops_per_point * domain_points
        summary = access_summary(ir, instance)
        written_here = set(instance.arrays_written())

        for array, info in summary.items():
            if info.reads_total == 0:
                continue
            arr_esize = (
                sizeof(ir.array_map[array].dtype)
                if array in ir.array_map
                else esize
            )
            if array in written_here:
                # Produced by an earlier statement of this very kernel
                # (a fused DAG): staged on chip, read back through
                # shared memory, never through the texture path.
                shm_bytes += info.reads_distinct * pts * blocks * arr_esize
                continue
            if stage.index > 0 and array in intermediates:
                # Served from on-chip inter-stage buffers: shared-plane
                # reads cost shared bandwidth, register-plane reads are
                # free.  Retimed consumers read each finished plane's
                # in-plane offsets once.
                inter = inter_by_consumer.get((stage.index, array))
                if inter is not None:
                    served = (
                        inter.center_reads
                        if (inter.reg_planes > 0 or plan.retime)
                        else inter.total_reads
                    )
                    shm_bytes += served * pts * blocks * arr_esize
                continue
            spec = buffers.get(array)
            footprint = read_footprint(ir, plan, stage, geometry, array)
            if spec is not None and (spec.shm_planes > 0 or spec.reg_planes > 0):
                # Buffered: footprint loaded from global exactly once.
                loads = footprint * blocks
                tex_bytes += loads * arr_esize * _fill_coalescing(
                    ir, plan, geometry, stage, array,
                    device.dram_transaction_bytes,
                )
                dram_read += _dram_read(
                    loads * arr_esize,
                    footprint * blocks * arr_esize,
                    _unique_bytes(ir, array, arr_esize, plan),
                    p_intra,
                    p_inter,
                )
                shm_bytes += _buffered_shm_traffic(
                    ir, plan, stage, spec, info, pts, blocks, footprint, arr_esize
                )
            else:
                # Direct global (gmem) reads: one load per distinct access
                # per point, reduced by blocked-unroll register reuse.
                per_point = _gmem_loads_per_point(ir, plan, instance, array)
                loads = per_point * pts * blocks
                tex_bytes += loads * arr_esize * _gmem_coalescing(
                    ir, plan, instance, array
                )
                # Streaming without shared memory sweeps a long pencil and
                # keeps evicting the re-touched planes (paper §VIII-F).
                p_touch = p_intra
                if plan.uses_streaming:
                    p_touch *= device.stream_gmem_l2_capture
                dram_read += _dram_read(
                    loads * arr_esize,
                    footprint * blocks * arr_esize,
                    _unique_bytes(ir, array, arr_esize, plan),
                    p_touch,
                    p_inter,
                )

        # Stores: intermediates go to on-chip buffers; final / externally
        # visible arrays go to DRAM.
        for array in instance.arrays_written():
            arr_esize = (
                sizeof(ir.array_map[array].dtype)
                if array in ir.array_map
                else esize
            )
            writes = summary[array].writes if array in summary else 1
            if not stage.is_last and array in intermediates:
                inter = inter_by_consumer.get(
                    (stage.index + 1, _consumed_name(ir, plan, stage, array))
                )
                if inter is None or inter.shm_planes > 0:
                    shm_bytes += writes * pts * blocks * arr_esize
                continue
            if array not in externally_visible:
                # A value consumed only inside this launch (fused-DAG
                # temporary): staged in shared memory, never written out.
                shm_bytes += writes * pts * blocks * arr_esize
                continue
            dram_write += writes * domain_points * arr_esize

    # Register spills: stored to and reloaded from local memory (DRAM-
    # backed, read through the tex/L1 path).
    spilled = max(0, regs["demand"] - regs["compiled"])
    total_points = sum(
        points_computed(ir, plan, s, geometry) * blocks for s in stages
    )
    spill_bytes = spilled * device.spill_access_rate * 2 * esize * total_points
    tex_bytes += spill_bytes  # local-memory traffic transits L1/tex

    syncs = _sync_count(plan, geometry, stages, shmem)

    return KernelCounters(
        flops=flops,
        useful_flops=useful_flops,
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        tex_bytes=tex_bytes,
        shm_bytes=shm_bytes,
        spill_bytes=spill_bytes,
        blocks=blocks,
        threads_per_block=geometry.threads_per_block,
        regs_per_thread=regs["compiled"],
        regs_demand=regs["demand"],
        shmem_per_block=shmem,
        syncs=syncs,
    )


def _dram_read(
    loaded_bytes: float,
    fill_bytes: float,
    unique_bytes: float,
    p_intra: float,
    p_inter: float,
) -> float:
    """DRAM read bytes given total loads, one-touch fill and unique data.

    First touches of unique data always come from DRAM.  The inter-block
    halo redundancy (fill - unique) hits L2 with probability ``p_inter``;
    same-block re-touches (loaded - fill) with probability ``p_intra``.
    """
    unique = min(unique_bytes, fill_bytes)
    inter_excess = max(0.0, fill_bytes - unique)
    intra_excess = max(0.0, loaded_bytes - fill_bytes)
    return (
        unique
        + inter_excess * (1.0 - p_inter)
        + intra_excess * (1.0 - p_intra)
    )


def _live_bytes_per_block(ir, plan, geometry, stages, buffers) -> float:
    """Bytes a block must keep cached for its gmem re-touches to hit L2.

    Under streaming, consecutive sweep steps re-touch the previous
    step's planes — the reuse distance is about one plane per directly-
    read (gmem) array.  On-chip-buffered arrays never re-touch, so they
    do not contribute.
    """
    total = 0.0
    for stage in stages:
        for array in stage.instance.arrays_read():
            info = ir.array_map.get(array)
            arr_esize = sizeof(info.dtype) if info is not None else 8
            spec = buffers.get(array)
            if spec is None or not spec.plane_elements:
                continue
            if spec.shm_planes > 0 or spec.reg_planes > 0:
                continue  # buffered: loaded once, no cache reliance
            total += spec.plane_elements * arr_esize
        break  # the first stage dominates the steady-state window
    return total


def _buffered_shm_traffic(
    ir, plan, stage, spec, info, pts, blocks, footprint, esize
) -> float:
    """Shared-memory bytes for a buffered array at one stage."""
    if spec.shm_planes == 0:
        return 0.0  # pure register buffering
    window = spec.shm_planes + spec.reg_planes
    fill_fraction = spec.shm_planes / window if window else 1.0
    stores = footprint * fill_fraction * blocks
    # Reads whose stream offset falls on a shared plane are served by
    # shared memory; register-plane reads are free.
    if plan.retime and plan.uses_streaming:
        # Retimed accumulation reads each arriving plane's in-plane
        # offsets once; the stream-axis spread collapses into register
        # accumulators (associative reordering).
        shm_reads_per_point = _inplane_distinct_reads(
            ir, stage, spec.array, plan.stream_axis
        )
        rotation = 0
    elif plan.uses_streaming and spec.reg_planes > 0:
        shm_reads_per_point = _center_plane_reads(ir, plan, stage, spec.array)
        # Rotation through the shared center plane: one load + one store
        # per point (Listing 2's shift phase).
        rotation = 2 * pts
    else:
        shm_reads_per_point = info.reads_distinct
        rotation = 0
    loads = shm_reads_per_point * pts
    return (stores + (loads + rotation) * blocks) * esize


_gmem_loads_per_point = gmem_loads_per_point
_distinct_read_offsets = distinct_read_offsets


def _fill_coalescing(ir, plan, geometry, stage, array, sector: int = 32) -> float:
    """Transaction inflation for a buffered tile fill.

    A warp filling a tile row of ``w`` bytes touches ``ceil(w/sector)``
    sectors (``sector`` = the device's DRAM transaction size), plus one
    extra when the row starts at a halo offset — the penalty the *mixed*
    perspective removes (Section III-B3).
    """
    x_axis = ir.ndim - 1
    row_elems = geometry.tile[x_axis]
    halo = stage.halo[x_axis]
    row_bytes = (row_elems + halo[0] + halo[1]) * 8
    sectors = math.ceil(row_bytes / sector)
    extra = 0
    if plan.perspective == PERSPECTIVE_OUTPUT and (halo[0] or halo[1]):
        extra = 2  # edge threads issue separate, uncoalesced halo loads
    return (sectors + extra) / max(1, math.ceil(row_elems * 8 / sector))


def _gmem_coalescing(ir, plan, instance, array) -> float:
    """Sector inflation for direct global reads (misaligned x offsets)."""
    offsets = _distinct_read_offsets(ir, instance, array)
    if not offsets:
        return 1.0
    x_axis = ir.ndim - 1
    misaligned = sum(
        1 for o in offsets if o[x_axis] not in (None, 0) and (o[x_axis] % 4) != 0
    )
    return 1.0 + 0.125 * (misaligned / len(offsets))


def _sync_count(plan, geometry, stages, shmem) -> float:
    if shmem <= 0:
        return 0.0
    per_step = 2.0 * len(stages)
    steps = geometry.sweep_length if plan.uses_streaming else 1
    return per_step * steps * geometry.blocks


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def _time(
    ir: ProgramIR,
    plan: KernelPlan,
    device: DeviceSpec,
    geometry: LaunchGeometry,
    counters: KernelCounters,
    occ: OccupancyResult,
) -> TimingBreakdown:
    occ_frac = occ.occupancy
    # Tail / starvation: too few blocks to fill the device.
    capacity = max(1, occ.blocks_per_sm * device.sms)
    concurrency = min(1.0, counters.blocks / capacity)

    sustained = device.sustained_fraction
    eff_dram = sustained * min(1.0, occ_frac / device.dram_saturation_occupancy)
    eff_tex = device.tex_sustained_fraction * min(
        1.0, occ_frac / device.tex_saturation_occupancy
    )
    # Shared memory bandwidth scales with active SM slices; it saturates
    # at lower occupancy than DRAM.
    eff_shm = sustained * min(
        1.0, occ_frac / (device.dram_saturation_occupancy / 2)
    )
    for value in (eff_dram, eff_tex, eff_shm):
        assert value >= 0

    eff_dram *= concurrency
    eff_tex *= concurrency
    eff_shm *= concurrency

    dram_s = counters.dram_bytes / (device.dram_bw_gbs * 1e9 * max(eff_dram, 1e-9))
    tex_s = counters.tex_bytes / (device.tex_bw_gbs * 1e9 * max(eff_tex, 1e-9))
    shm_s = counters.shm_bytes / (device.shm_bw_gbs * 1e9 * max(eff_shm, 1e-9))

    compute_s = counters.flops / (
        device.peak_gflops * 1e9 * sustained * max(concurrency, 1e-9)
    )

    latency_s = _latency_time(device, plan, counters, occ, concurrency)

    sync_s = (
        counters.syncs / max(1, capacity) * device.sync_cost_ns * 1e-9
        if counters.syncs
        else 0.0
    )
    launch_s = device.launch_overhead_us * 1e-6

    # Without prefetching, the streaming loop's synchronized phases
    # expose the next-plane load latency every iteration (Section
    # III-A4): the shift/load phase cannot overlap compute.
    bubble_s = 0.0
    if (
        plan.uses_streaming
        and counters.shmem_per_block > 0
        and not plan.prefetch
    ):
        bubble_s = 0.12 * max(tex_s, dram_s)

    return TimingBreakdown(
        compute_s=compute_s,
        dram_s=dram_s,
        tex_s=tex_s,
        shm_s=shm_s,
        sync_s=sync_s,
        latency_s=latency_s,
        launch_s=launch_s,
        bubble_s=bubble_s,
    )


def _latency_time(
    device: DeviceSpec,
    plan: KernelPlan,
    counters: KernelCounters,
    occ: OccupancyResult,
    concurrency: float,
) -> float:
    """Issue/dependency latency bound for low-occupancy kernels.

    Each warp's dependent instruction chain stalls for the arithmetic
    latency unless enough other warps (occupancy) or independent
    instructions (unrolling ILP, prefetching) cover it.
    """
    thread_ops = counters.flops + 0.5 * (
        counters.shm_bytes / 8.0 + counters.tex_bytes / 8.0
    )
    warp_insts = thread_ops / device.warp_size
    ilp = 1.0 + 0.4 * math.log2(max(1, plan.total_unroll()))
    if plan.prefetch:
        ilp += 0.3
    covering = max(1.0, occ.active_warps * ilp / device.latency_cover_warps)
    stall = device.arith_latency_cycles / covering
    cycles = warp_insts * max(1.0, stall)
    rate = device.sms * device.warp_schedulers * device.clock_ghz * 1e9
    return cycles / (rate * max(concurrency, 1e-9))
