"""Tile geometry: overlapped tiling, streaming windows, buffer shapes.

This module answers the geometric questions every other component asks
about a :class:`~repro.codegen.plan.KernelPlan`:

* how the fused launch decomposes into *stages* (time-tile replication
  for iterative stencils, kernel order for fused DAG stages) and how the
  computed region grows per stage under overlapped tiling (Figure 1b);
* how many blocks the launch creates and how many points each stage
  computes per block (including redundant halo recomputation);
* which shared-memory planes and per-thread register planes each array
  needs under streaming (Figure 1c / Listing 2), and the resulting
  shared-memory bytes per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.analysis import (
    access_summary,
    internal_reach,
    kernel_flops_per_point,
    memoized_kv,
    read_halos,
)
from ..ir.folding import apply_folding
from ..ir.memo import OwnerMemo
from ..ir.stencil import ProgramIR, StencilInstance
from ..ir.types import sizeof
from .plan import (
    GMEM,
    KernelPlan,
    REGISTER,
    SHMEM,
)

Halo = Tuple[Tuple[int, int], ...]  # per-axis (lo, hi)


# ---------------------------------------------------------------------------
# plan-family memoization
#
# Every geometric quantity below is a pure function of (IR, plan) — and
# none of them depend on ``plan.max_registers``, so all the register-
# escalation rungs of one candidate share the same *plan family* and the
# same cached geometry.  Results are cached per IR (see ``repro.ir.memo``)
# under the canonical register-independent plan key: a cache entry lives
# as long as its IR, and a cached value must not reference the IR.
# ---------------------------------------------------------------------------

_PLAN_MEMO = OwnerMemo(
    miss_prefix="tiling.plan_cache_miss.", span_prefix="planning."
)


def plan_family_key(plan: KernelPlan) -> tuple:
    """Canonical identity of a plan with ``max_registers`` factored out.

    Two plans with equal family keys describe the same generated code
    shape — geometry, stages, buffers, shared memory and register
    *demand* are all identical; only the compile-time register cap (and
    therefore spilling and occupancy) may differ.

    The key is pinned on the (frozen) plan object after the first call:
    the memo layers below hash it on every lookup, thousands of times
    per tuning run.
    """
    key = plan.__dict__.get("_family_key")
    if key is None:
        key = (
            plan.kernel_names,
            plan.block,
            plan.time_tile,
            plan.streaming,
            plan.stream_axis,
            plan.concurrent_chunks,
            plan.unroll,
            plan.unroll_blocked,
            plan.prefetch,
            plan.perspective,
            plan.placements,
            plan.retime,
            plan.fold_groups,
        )
        object.__setattr__(plan, "_family_key", key)
    return key


#: (block, unroll, mode) -> knob number, numbered as first seen in the
#: process: the few distinct lane-knob combinations a search sweeps.
_KNOB_NUMBERS: Dict[tuple, int] = {}


def knob_number(block: tuple, unroll: tuple, mode: tuple) -> int:
    """The number of one combination of the lane knobs
    :func:`plan_family_key` holds beyond :func:`plan_structural_key`:
    block, unroll and the ``mode`` tuple (:func:`plan_mode`).

    A plan's family key is its structural key plus its knob number, so
    the evaluator's memo keys a lane by one int, its knob number and
    register cap, under its family's structural key.
    """
    key = (block, unroll, mode)
    number = _KNOB_NUMBERS.get(key)
    if number is None:
        number = _KNOB_NUMBERS[key] = len(_KNOB_NUMBERS)
    return number


#: The plan fields of a :func:`plan_mode` tuple, in its order.
MODE_FIELDS = (
    "streaming", "concurrent_chunks", "unroll_blocked", "prefetch",
    "perspective",
)


def plan_mode(plan: KernelPlan) -> tuple:
    """The lane knobs of :func:`plan_family_key` other than block and
    unroll: streaming mode, chunk count, ``unroll_blocked``, prefetch
    and perspective (:data:`MODE_FIELDS`)."""
    return (
        plan.streaming,
        plan.concurrent_chunks,
        plan.unroll_blocked,
        plan.prefetch,
        plan.perspective,
    )


def plan_knob_number(plan: KernelPlan) -> int:
    """:func:`knob_number` of a plan, pinned on it like the family key."""
    number = plan.__dict__.get("_knob_number")
    if number is None:
        number = knob_number(plan.block, plan.unroll, plan_mode(plan))
        object.__setattr__(plan, "_knob_number", number)
    return number


def plan_structural_key(plan: KernelPlan) -> tuple:
    """Identity of a plan's *structure*: the family key with the lane
    knobs factored out too.

    Plans sharing a structural key differ only in tile sizes, unroll
    factors, the register budget, prefetching, the load perspective and
    the concurrent chunk count — exactly the axes the vectorized family
    pricer (:meth:`repro.gpu.pricing.FamilyStructure.price`) sweeps as NumPy
    arrays.  The key keeps whether the plan streams, not how: serial and
    concurrent streaming differ only in the chunk count.  Which arrays
    are buffered where, the stage list, the per-array halos and every
    branch of the counter model are constant across the structural
    group; only the arithmetic over the knob columns varies.
    """
    key = plan.__dict__.get("_structural_key")
    if key is None:
        key = (
            plan.kernel_names,
            plan.time_tile,
            plan.uses_streaming,
            plan.stream_axis,
            plan.placements,
            plan.retime,
            plan.fold_groups,
        )
        object.__setattr__(plan, "_structural_key", key)
    return key


def _plan_memoized(tag: str, ir: ProgramIR, plan: KernelPlan, compute,
                   extra: tuple = ()):
    # Only cache misses are observed: they are where geometry is actually
    # computed, and they are rare enough (one per plan family) that
    # instrumentation cannot perturb the hit fast-path.
    return _PLAN_MEMO.get(
        ir, (tag, plan_family_key(plan)) + extra, tag, compute
    )


def _ir_memoized(tag: str, ir: ProgramIR, key: tuple, compute):
    """Like :func:`_plan_memoized` but with an explicit sub-plan key.

    Several geometric analyses depend on only a few plan fields (the
    stage list reads nothing but ``kernel_names``/``time_tile``/
    ``fold_groups``), so keying them by the full family key would
    recompute them once per tile size.  Shares the plan cache.
    """
    return _PLAN_MEMO.get(ir, (tag,) + key, tag, compute)


def clear_plan_cache() -> None:
    _PLAN_MEMO.clear()


def plan_cache_size() -> int:
    return len(_PLAN_MEMO)


@dataclass(frozen=True)
class Stage:
    """One fused stage: a stencil application inside a single launch."""

    instance: StencilInstance
    index: int
    halo: Halo  # combined read halo of this stage
    expand: Halo  # extra region computed beyond the output tile
    is_last: bool

    @property
    def flops_per_point(self) -> int:
        return kernel_flops_per_point(self.instance)


def planned_instances(ir: ProgramIR, plan: KernelPlan) -> List[StencilInstance]:
    """The kernel instances covered by a plan, folding applied."""
    instances = [ir.kernel(name) for name in plan.kernel_names]
    if plan.fold_groups:
        instances = [apply_folding(k, plan.fold_groups)[0] for k in instances]
    return instances


def build_stages(ir: ProgramIR, plan: KernelPlan) -> List[Stage]:
    """Stage list of a launch, first-executed first.

    Iterative time tiling replicates the (single) instance ``time_tile``
    times; DAG fusion uses the instances in order.  Halos accumulate
    backwards: an earlier stage must compute a region expanded by the
    total halo of everything after it (overlapped tiling).

    Memoized per (IR, kernel set, time tile, folding) — the only plan
    fields the stage list reads — so every tile-size and unroll variant
    of one structural family shares the same Stage objects.
    """
    return list(
        _ir_memoized(
            "stages",
            ir,
            (plan.kernel_names, plan.time_tile, plan.fold_groups),
            lambda: _build_stages(ir, plan),
        )
    )


def _build_stages(ir: ProgramIR, plan: KernelPlan) -> List[Stage]:
    instances = planned_instances(ir, plan)
    if plan.time_tile > 1:
        if len(instances) != 1:
            raise ValueError("time tiling applies to a single kernel instance")
        instances = instances * plan.time_tile

    ndim = ir.ndim
    # A stage's effective halo is its *internal reach*: the combined read
    # halo plus any intra-kernel recompute expansion (a fused DAG whose
    # later statements consume earlier outputs at offsets reaches further
    # per application than its raw read halo).
    halos = [internal_reach(ir, inst) for inst in instances]
    stages: List[Stage] = []
    count = len(instances)
    for index, (inst, halo) in enumerate(zip(instances, halos)):
        expand = [[0, 0] for _ in range(ndim)]
        for later in range(index + 1, count):
            for axis in range(ndim):
                expand[axis][0] += halos[later][axis][0]
                expand[axis][1] += halos[later][axis][1]
        stages.append(
            Stage(
                instance=inst,
                index=index,
                halo=halo,
                expand=tuple((lo, hi) for lo, hi in expand),
                is_last=index == count - 1,
            )
        )
    return stages


# ---------------------------------------------------------------------------
# launch geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaunchGeometry:
    """Block decomposition of the output domain for one plan."""

    domain: Tuple[int, ...]
    tile: Tuple[int, ...]  # output points per block per axis
    blocks_per_axis: Tuple[int, ...]
    blocks: int
    threads_per_block: int
    sweep_axis: Optional[int]  # streaming axis, None if not streaming
    sweep_length: int  # planes visited per block along the sweep axis


def launch_geometry(ir: ProgramIR, plan: KernelPlan) -> LaunchGeometry:
    """Block decomposition of a plan (memoized per IR + plan family)."""
    return _plan_memoized(
        "geometry", ir, plan, lambda: _launch_geometry(ir, plan)
    )


def _launch_geometry(ir: ProgramIR, plan: KernelPlan) -> LaunchGeometry:
    domain = ir.domain_shape()
    ndim = len(domain)
    tile: List[int] = []
    blocks_axis: List[int] = []
    sweep_axis: Optional[int] = None
    sweep_length = 1
    for axis in range(ndim):
        if plan.uses_streaming and axis == plan.stream_axis:
            sweep_axis = axis
            chunks = plan.stream_chunks
            sweep_length = -(-domain[axis] // chunks)
            tile.append(sweep_length)
            blocks_axis.append(chunks)
        else:
            extent = plan.tile_extent(axis, ndim)
            tile.append(extent)
            blocks_axis.append(-(-domain[axis] // extent))
    blocks = 1
    for count in blocks_axis:
        blocks *= count

    threads = _threads_per_block(ir, plan)
    return LaunchGeometry(
        domain=domain,
        tile=tuple(tile),
        blocks_per_axis=tuple(blocks_axis),
        blocks=blocks,
        threads_per_block=threads,
        sweep_axis=sweep_axis,
        sweep_length=sweep_length,
    )


def _threads_per_block(ir: ProgramIR, plan: KernelPlan) -> int:
    """Thread count, adjusted for the load/compute perspective (§III-B3)."""
    ndim = ir.ndim
    threads = plan.block_threads()
    if plan.perspective == "output":
        return threads
    # Input and mixed perspectives enlarge the thread block by the halo
    # of the *first* stage (the loads it must cover).
    stages = build_stages(ir, plan)
    halo = stages[0].halo
    tiled = plan.tiled_axes(ndim)
    innermost = tiled[-1] if tiled else ndim - 1
    total = 1
    for axis in tiled:
        base = plan.block_on_axis(axis, ndim)
        lo, hi = halo[axis]
        if plan.perspective == "input":
            total *= base + lo + hi
        else:  # mixed: extend only the innermost (coalescing) axis
            total *= base + ((lo + hi) if axis == innermost else 0)
    return total


def points_computed(
    ir: ProgramIR, plan: KernelPlan, stage: Stage, geometry: LaunchGeometry
) -> int:
    """Grid points one block computes at ``stage`` (incl. redundancy)."""
    total = 1
    for axis, extent in enumerate(geometry.tile):
        if geometry.sweep_axis == axis:
            # The sweep covers the chunk plus the stage's expansion.
            lo, hi = stage.expand[axis]
            total *= extent + lo + hi
        else:
            lo, hi = stage.expand[axis]
            total *= extent + lo + hi
    return total


def read_footprint(
    ir: ProgramIR,
    plan: KernelPlan,
    stage: Stage,
    geometry: LaunchGeometry,
    array: str,
) -> int:
    """Elements of ``array`` one block reads at ``stage`` (unique).

    ``stage`` and ``geometry`` are derived from (ir, plan), so the result
    is memoized per (IR, plan family, stage index, array).
    """
    return _plan_memoized(
        "footprint",
        ir,
        plan,
        lambda: _read_footprint(ir, plan, stage, geometry, array),
        extra=(stage.index, array),
    )


def _read_footprint(
    ir: ProgramIR,
    plan: KernelPlan,
    stage: Stage,
    geometry: LaunchGeometry,
    array: str,
) -> int:
    halos = read_halos(ir, stage.instance)
    if array not in halos:
        return 0
    halo = halos[array]
    info = ir.array_map.get(array)
    total = 1
    for axis, extent in enumerate(geometry.tile):
        exp_lo, exp_hi = stage.expand[axis]
        h_lo, h_hi = halo[axis]
        span = extent + exp_lo + exp_hi + h_lo + h_hi
        if info is not None and info.ndim < ir.ndim:
            # Lower-rank arrays only span the axes they index; detect by
            # whether any access carries an offset on this axis.
            if not _array_indexes_axis(ir, stage.instance, array, axis):
                continue
        total *= min(span, geometry.domain[axis] + h_lo + h_hi)
    return total


def _array_indexes_axis(
    ir: ProgramIR, instance: StencilInstance, array: str, axis: int
) -> bool:
    """Whether any read or write of ``array`` in the kernel indexes
    ``axis`` with a plain iterator."""
    summary = access_summary(ir, instance).get(array)
    return summary is not None and axis in summary.indexed_axes


# ---------------------------------------------------------------------------
# buffer requirements under streaming (Listing 2 / Figure 1c)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BufferSpec:
    """Storage layout of one array inside a kernel.

    Under streaming, an order-k window of 2k+1 planes is live per array.
    Planes whose values are only read in the thread's own column (a
    "star" access pattern along the stream axis) can live in per-thread
    registers; planes read at cross offsets must be shared.
    """

    array: str
    storage: str  # effective storage class: shmem | register | gmem
    shm_planes: int  # planes buffered in shared memory
    reg_planes: int  # planes buffered in per-thread registers
    plane_elements: int  # elements of one shared plane (incl. halo)
    dtype: str = "double"

    @property
    def shm_bytes(self) -> int:
        return self.shm_planes * self.plane_elements * sizeof(self.dtype)


def stream_window(ir: ProgramIR, instance: StencilInstance, array: str,
                  stream_axis: int) -> Tuple[int, int]:
    """(lo, hi) extent of the array's read window along the stream axis."""
    halos = read_halos(ir, instance)
    if array not in halos:
        return (0, 0)
    return halos[array][stream_axis]


def is_star_along(
    ir: ProgramIR, instance: StencilInstance, array: str, stream_axis: int
) -> bool:
    """True when off-center planes are read only at the thread's column.

    An access with non-zero stream-axis offset *and* a non-zero offset on
    any other axis forces the off-center plane into shared memory (a
    register cannot hold a neighbour thread's value).
    """
    for axis_offsets in _read_offsets(ir, instance, array):
        stream_offset = axis_offsets[stream_axis]
        if stream_offset in (None, 0):
            continue
        for axis, offset in enumerate(axis_offsets):
            if axis != stream_axis and offset not in (None, 0):
                return False
    return True


def buffer_requirements(
    ir: ProgramIR, plan: KernelPlan
) -> Dict[str, BufferSpec]:
    """Effective buffering of every read array under this plan.

    Honours the plan's placements (which include any user ``#assign``
    constraints folded in by resource assignment).  Streaming plans get
    the shm/register plane split of Listing 2; non-streaming shmem plans
    buffer the full input tile.  Memoized per (IR, plan family).
    """
    return dict(
        _plan_memoized(
            "buffers", ir, plan, lambda: _buffer_requirements(ir, plan)
        )
    )


def _buffer_requirements(
    ir: ProgramIR, plan: KernelPlan
) -> Dict[str, BufferSpec]:
    geometry = launch_geometry(ir, plan)
    stages = build_stages(ir, plan)
    ndim = ir.ndim
    specs: Dict[str, BufferSpec] = {}
    # The widest stage footprint governs the buffer shape.
    for stage in stages:
        halos = read_halos(ir, stage.instance)
        written_here = set(stage.instance.arrays_written())
        for array, halo in halos.items():
            if array in written_here:
                # Produced by this very kernel: staged on chip, accounted
                # by :func:`intra_staging_bytes`, never loaded from global.
                continue
            storage = plan.placement_of(array)
            dtype = (
                ir.array_map[array].dtype if array in ir.array_map else "double"
            )
            plane_elems = _plane_elements(ir, plan, stage, geometry, array)
            if storage == GMEM or storage == "constant":
                spec = BufferSpec(array, storage, 0, 0, plane_elems, dtype)
            elif plan.uses_streaming:
                lo, hi = halo[plan.stream_axis]
                window = lo + hi + 1
                star = is_star_along(ir, stage.instance, array, plan.stream_axis)
                if plan.retime:
                    # Retiming accumulates partial results as each input
                    # plane arrives: only the current plane is ever live
                    # in shared memory, regardless of the stream window
                    # (this is why retiming rescues box stencils like the
                    # 27pt smoother, Section VIII-G).
                    spec = BufferSpec(array, SHMEM, 1, 0, plane_elems, dtype)
                elif storage == REGISTER:
                    # Full window in registers (legal only for star arrays;
                    # resource assignment enforces this).
                    spec = BufferSpec(array, storage, 0, window, plane_elems, dtype)
                elif star:
                    spec = BufferSpec(
                        array, SHMEM, 1, window - 1, plane_elems, dtype
                    )
                else:
                    spec = BufferSpec(array, SHMEM, window, 0, plane_elems, dtype)
            else:
                if storage == REGISTER:
                    spec = BufferSpec(array, storage, 0, 1, plane_elems, dtype)
                else:
                    # Non-streaming shared memory: the full 3D input tile.
                    tile_planes = _tile_planes(ir, plan, stage, geometry, array)
                    spec = BufferSpec(
                        array, SHMEM, tile_planes, 0, plane_elems, dtype
                    )
            previous = specs.get(array)
            if previous is None or _spec_bytes(spec) > _spec_bytes(previous):
                specs[array] = spec
    return specs


def _spec_bytes(spec: BufferSpec) -> int:
    return spec.shm_bytes + spec.reg_planes


def _plane_elements(ir, plan, stage, geometry, array) -> int:
    """Elements of one buffered plane (tile + halo, depth axis excluded).

    The depth axis is the stream axis under streaming, else the
    outermost axis (whose extent :func:`_tile_planes` reports).
    """
    halos = read_halos(ir, stage.instance)
    halo = halos[array]
    depth_axis = plan.stream_axis if plan.uses_streaming else 0
    total = 1
    for axis in range(ir.ndim):
        if axis == depth_axis:
            continue
        exp_lo, exp_hi = stage.expand[axis]
        h_lo, h_hi = halo[axis]
        total *= geometry.tile[axis] + exp_lo + exp_hi + h_lo + h_hi
    return total


def _tile_planes(ir, plan, stage, geometry, array) -> int:
    """Stream-axis (or outermost) depth of a full-tile shared buffer."""
    halos = read_halos(ir, stage.instance)
    halo = halos[array]
    axis = plan.stream_axis if plan.uses_streaming else 0
    exp_lo, exp_hi = stage.expand[axis]
    h_lo, h_hi = halo[axis]
    return geometry.tile[axis] + exp_lo + exp_hi + h_lo + h_hi


@dataclass(frozen=True)
class IntermediateSpec:
    """Buffering of one inter-stage value inside a fused launch."""

    array: str
    stage_index: int  # producer stage
    shm_planes: int
    reg_planes: int
    plane_elements: int
    center_reads: int  # consumer reads served by the shared plane(s)
    total_reads: int  # consumer's distinct reads of this value
    dtype: str = "double"

    @property
    def shm_bytes(self) -> int:
        return self.shm_planes * self.plane_elements * sizeof(self.dtype)


def intermediate_specs(
    ir: ProgramIR, plan: KernelPlan
) -> Tuple[IntermediateSpec, ...]:
    """Buffering of values passed between fused stages.

    Under streaming, the consumer's stream-axis window of the value is
    live.  When the consumer's cross-plane reads are column-local (star
    pattern), only the centre plane needs shared memory and the rest sit
    in per-thread registers — the same Listing-2 split as for inputs.
    Retimed kernels accumulate in registers instead (no shared planes).
    Memoized per (IR, plan family).
    """
    return _plan_memoized(
        "inter_specs", ir, plan, lambda: _intermediate_specs(ir, plan)
    )


def _intermediate_specs(
    ir: ProgramIR, plan: KernelPlan
) -> Tuple[IntermediateSpec, ...]:
    stages = build_stages(ir, plan)
    if len(stages) <= 1:
        return ()
    geometry = launch_geometry(ir, plan)
    specs: List[IntermediateSpec] = []
    for stage, consumer in zip(stages[:-1], stages[1:]):
        # What the consumer reads from the producer's output.  For
        # iterative time tiling the producer's output array *becomes*
        # the consumer's input (ping-pong), so the consumer's halo is
        # looked up under the read array's name.
        produced = set(stage.instance.arrays_written())
        halos = read_halos(ir, consumer.instance)
        if plan.time_tile > 1:
            written, read = pingpong_pair(ir, stage.instance)
            produced = {read} if read in halos else set()
        for array in produced:
            if array not in halos:
                continue
            halo = halos[array]
            dtype = ir.array_map[array].dtype if array in ir.array_map else "double"
            plane = 1
            for axis in range(ir.ndim):
                if plan.uses_streaming and axis == plan.stream_axis:
                    continue
                exp_lo, exp_hi = consumer.expand[axis]
                h_lo, h_hi = halo[axis]
                plane *= geometry.tile[axis] + exp_lo + exp_hi + h_lo + h_hi
            distinct, center = _consumer_read_counts(
                ir, consumer.instance, array, plan
            )
            if plan.uses_streaming:
                lo, hi = halo[plan.stream_axis]
                window = lo + hi + 1
                if plan.retime:
                    # Finished planes still cross threads via one shared
                    # plane; the in-flight window lives in accumulators.
                    shm_planes, reg_planes = 1, 0
                elif is_star_along(ir, consumer.instance, array, plan.stream_axis):
                    shm_planes, reg_planes = 1, window - 1
                else:
                    shm_planes, reg_planes = window, 0
            else:
                exp_lo, exp_hi = consumer.expand[0]
                h_lo, h_hi = halo[0]
                depth = geometry.tile[0] + exp_lo + exp_hi + h_lo + h_hi
                shm_planes, reg_planes = (0, 0) if plan.retime else (depth, 0)
            specs.append(
                IntermediateSpec(
                    array=array,
                    stage_index=stage.index,
                    shm_planes=shm_planes,
                    reg_planes=reg_planes,
                    plane_elements=plane,
                    center_reads=center,
                    total_reads=distinct,
                    dtype=dtype,
                )
            )
    return tuple(specs)


def _consumer_read_counts(
    ir: ProgramIR, instance: StencilInstance, array: str, plan: KernelPlan
) -> Tuple[int, int]:
    """(distinct reads, centre-plane reads) of ``array`` by a consumer."""
    offsets = _read_offsets(ir, instance, array)
    if not plan.uses_streaming:
        return len(offsets), len(offsets)
    center = sum(1 for o in offsets if o[plan.stream_axis] in (None, 0))
    return len(offsets), center


def intermediate_buffer_bytes(ir: ProgramIR, plan: KernelPlan) -> int:
    """Shared-memory bytes for values passed between fused stages."""
    return sum(spec.shm_bytes for spec in intermediate_specs(ir, plan))


def distinct_read_offsets(ir: ProgramIR, instance: StencilInstance, array: str):
    """Distinct per-axis read offset vectors of ``array`` in a kernel,
    in first-read order (from the kernel's access summary)."""
    return list(_read_offsets(ir, instance, array))


def _read_offsets(ir: ProgramIR, instance: StencilInstance, array: str):
    summary = access_summary(ir, instance).get(array)
    return summary.offsets if summary is not None else ()


def gmem_loads_per_point(
    ir: ProgramIR, plan: KernelPlan, instance: StencilInstance, array: str
) -> float:
    """Distinct global loads per computed point for a gmem array.

    Blocked unrolling lets one thread reuse overlapping neighbour loads
    across its unroll points: along an axis unrolled by ``u``, a set of
    offsets spanning ``s = max - min + 1`` costs ``min(u*n, s + u - 1)``
    loads for ``u`` points instead of ``u*n``.  The compiler only
    realizes this CSE along one axis at a time in practice (the paper's
    texture counters for complex kernels show near-zero cross-axis
    reuse), so the combined reduction is floored.

    Memoized per (instance, unroll configuration, array) — only the
    plan's unroll fields participate in the result.
    """
    return memoized_kv(
        "gmem_loads",
        instance,
        (plan.unroll, plan.unroll_blocked, array),
        lambda: _gmem_loads_per_point(ir, plan, instance, array),
    )


def _gmem_loads_per_point(
    ir: ProgramIR, plan: KernelPlan, instance: StencilInstance, array: str
) -> float:
    offsets = distinct_read_offsets(ir, instance, array)
    if not offsets:
        return 0.0
    loads = float(len(offsets))
    if not plan.unroll_blocked:
        return loads
    factor_product = 1.0
    for axis in range(ir.ndim):
        factor = plan.unroll_factor(axis)
        if factor <= 1:
            continue
        axis_offsets = sorted(
            {o[axis] for o in offsets if o[axis] is not None}
        )
        if len(axis_offsets) <= 1:
            continue
        span = axis_offsets[-1] - axis_offsets[0] + 1
        count = len(axis_offsets)
        merged = min(factor * count, span + factor - 1)
        factor_product *= merged / (factor * count)
    return loads * max(factor_product, 0.55)


def pingpong_pair(ir: ProgramIR, instance: StencilInstance) -> Tuple[str, str]:
    """(written, read) arrays swapped between iterations of a smoother.

    Iterative stencils follow the Jacobi convention: the output of one
    application becomes the input of the next.  The written array is the
    instance's ``copyout`` output when one exists (multi-statement
    kernels like denoise also produce auxiliary arrays), else its last
    output.  The read array is the first same-shaped full-rank array the
    instance reads without writing.
    """
    written_arrays = instance.arrays_written()
    written = written_arrays[-1]
    for candidate in written_arrays:
        if candidate in ir.copyout:
            written = candidate
            break
    target_shape = ir.array_map[written].shape
    for array in instance.arrays_read():
        info = ir.array_map.get(array)
        if (
            info is not None
            and info.shape == target_shape
            and array not in written_arrays
        ):
            return written, array
    raise ValueError(
        f"kernel {instance.name!r} has no ping-pong input matching "
        f"{written!r}"
    )


def intra_staging_bytes(ir: ProgramIR, plan: KernelPlan) -> int:
    """Shared memory for values produced and consumed *within* one
    kernel (fused-DAG temporaries): a stream window under streaming, the
    full expanded tile otherwise.  Memoized per (IR, plan family)."""
    return _plan_memoized(
        "intra_staging", ir, plan, lambda: _intra_staging_bytes(ir, plan)
    )


def _intra_staging_bytes(ir: ProgramIR, plan: KernelPlan) -> int:
    geometry = launch_geometry(ir, plan)
    total = 0
    for stage in build_stages(ir, plan):
        instance = stage.instance
        halos = read_halos(ir, instance)
        for array in instance.arrays_written():
            if array not in halos:
                continue
            halo = halos[array]
            dtype = (
                ir.array_map[array].dtype if array in ir.array_map else "double"
            )
            plane = 1
            depth_axis = plan.stream_axis if plan.uses_streaming else 0
            for axis in range(ir.ndim):
                if axis == depth_axis:
                    continue
                exp_lo, exp_hi = stage.expand[axis]
                h_lo, h_hi = halo[axis]
                plane *= geometry.tile[axis] + exp_lo + exp_hi + h_lo + h_hi
            if plan.uses_streaming:
                lo, hi = halo[plan.stream_axis]
                depth = lo + hi + 1
            else:
                exp_lo, exp_hi = stage.expand[0]
                h_lo, h_hi = halo[0]
                depth = geometry.tile[0] + exp_lo + exp_hi + h_lo + h_hi
            total += plane * depth * sizeof(dtype)
    return total


def shmem_bytes_per_block(ir: ProgramIR, plan: KernelPlan) -> int:
    """Total static shared memory one block of this plan allocates.

    Memoized per (IR, plan family) — shared memory does not depend on
    the register cap.
    """

    def compute():
        total = sum(
            spec.shm_bytes for spec in buffer_requirements(ir, plan).values()
        )
        total += intermediate_buffer_bytes(ir, plan)
        total += intra_staging_bytes(ir, plan)
        return total

    return _plan_memoized("shmem_bytes", ir, plan, compute)
