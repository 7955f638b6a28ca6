"""The lane model: the analytical model over a plan family's lane axis.

This is the one implementation of the counter and timing model;
:func:`repro.gpu.simulator.simulate` prices one plan as a one-lane call
into it.  The model's arithmetic splits into a *register-independent
prefix* (geometry, stages, buffer layouts, shared memory, register
demand) and a *cheap suffix* (occupancy, spill traffic, counters,
timing).  Both
halves branch only on the plan's **structure** — which kernels are
fused, whether and along which axis it streams, retiming, placements
(:func:`repro.codegen.tiling.plan_structural_key`) — while the knobs
the tuners sweep (block tile, unroll factors, ``unroll_blocked``,
``max_registers``, prefetching, the load perspective and the concurrent
chunk count) only change the *numbers* flowing through a fixed
expression DAG.

This module exploits that: :class:`FamilyStructure` captures every
branch decision and structural constant once per (IR, structural key),
and :meth:`FamilyStructure.price` then evaluates the whole model as
NumPy array operations over an ``(N_candidates,)`` lane axis —
occupancy, spill traffic and timing in one shot.  A structure holds
nothing a lane knob decides: a stage-2 batch of prefetch, perspective
and chunk variants is one family, priced in one pass.

The model's original plan-at-a-time form is kept as a test oracle
(``tests/gpu/reference_model.py``), and the lane model must match it bit
for bit (the evaluation engine's winners must be byte-identical), so the
implementation follows that form's *exact* operation order:

* integer quantities (tiles, footprints, plane elements, register
  demand, shared bytes) are computed in ``int64`` — exact, and well
  below overflow for realistic grids;
* float accumulators (flops, tex/dram/shm bytes) are built as ordered
  term lists and summed sequentially in the scalar emission order, so
  every f8 rounding step matches;
* per-lane branches that the scalar code takes (buffer-winner
  selection, register-vs-shared served reads, sync/bubble gating,
  prefetch and perspective terms) are evaluated with masks or tables;
  branches that depend only on structure are resolved once at
  :class:`FamilyStructure` build time;
* lanes that fail the occupancy screen carry a vectorized RL2xx rule
  and fall back to the scalar :func:`repro.gpu.occupancy.occupancy`
  arithmetic to reproduce the exact message and context when that
  rejection is first read (a pass builds each lane's result and
  rejection on demand, see :class:`_LaneArrays`).

Feasible lanes yield :class:`~repro.gpu.counters.SimulationResult`
objects equal (``==``, field for field) to what the scalar reference
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen.plan import (
    GMEM,
    KernelPlan,
    PERSPECTIVE_INPUT,
    PERSPECTIVE_OUTPUT,
)
from ..codegen.tiling import (
    Stage,
    _array_indexes_axis,
    _ir_memoized,
    _read_offsets,
    build_stages,
    distinct_read_offsets,
    is_star_along,
    pingpong_pair,
    plan_structural_key,
    stream_window,
)
from ..ir.analysis import access_summary, read_halos
from ..ir.memo import OwnerMemo
from ..ir.stencil import ProgramIR, StencilInstance
from ..ir.types import sizeof
from ..obs import counter as _obs_counter
from ..obs import span as _span
from ..resilience.errors import UsageError
from .counters import KernelCounters, SimulationResult, TimingBreakdown
from .device import DeviceSpec, P100
from .occupancy import OccupancyResult, launch_refusal
from .registers import BASE_REGISTERS, expression_registers

__all__ = [
    "FamilyStructure",
    "LaneKnobs",
    "PricedLane",
    "family_structure",
    "knobs_of",
    "priced_lane_count",
]

_I8 = np.int64
_F8 = np.float64
_I8_MAX = int(np.iinfo(_I8).max)
_I8_LIMIT = 2.0**63  # the first value past int64, exact in float64


def priced_lane_count() -> int:
    """Lanes priced since the metrics registry was last reset: the
    ``pricing.lanes`` counter, ``simulate()``'s one-lane passes included
    (the ``simulate.calls`` counter counts those apart)."""
    return _obs_counter("pricing.lanes").value


class LaneKnobs:
    """The knob columns of one structural family's lanes.

    Lane ``i`` has block ``blocks[block_ix[i]]``, unroll
    ``unrolls[unroll_ix[i]]``, perspective
    ``perspectives[persp_ix[i]]``, ``unroll_blocked`` ``ublocked[i]``,
    ``max_registers`` ``maxreg[i]``, ``prefetch[i]`` and ``chunks[i]``
    stream chunks (:attr:`KernelPlan.stream_chunks`): everything
    the structural key lets vary within a family.  ``ublocked``,
    ``maxreg``, ``prefetch``, ``perspective`` and ``chunks`` may be
    given as one value for every lane.  Distinct tuples are stored once,
    so per-lane geometry is a table lookup rather than a pass over plan
    objects.
    """

    __slots__ = (
        "blocks", "unrolls", "perspectives", "block_ix", "unroll_ix",
        "persp_ix", "ublocked", "maxreg", "prefetch", "chunks",
    )

    def __init__(self, blocks, unrolls, block_ix, unroll_ix, ublocked, maxreg,
                 prefetch, perspective, chunks):
        self.blocks = tuple(blocks)
        self.unrolls = tuple(unrolls)
        self.block_ix = np.asarray(block_ix, dtype=_I8)
        self.unroll_ix = np.asarray(unroll_ix, dtype=_I8)
        n = len(self.block_ix)
        if isinstance(perspective, str):
            self.perspectives = (perspective,)
            self.persp_ix = np.zeros(n, _I8)
        else:
            table: Dict[str, int] = {}
            self.persp_ix = np.asarray(
                [table.setdefault(p, len(table)) for p in perspective],
                dtype=_I8,
            )
            self.perspectives = tuple(table)
        self.ublocked = _lane_column(ublocked, bool, n)
        self.maxreg = _lane_column(maxreg, _I8, n)
        self.prefetch = _lane_column(prefetch, bool, n)
        self.chunks = _lane_column(chunks, _I8, n)

    def __len__(self) -> int:
        return len(self.block_ix)


def _lane_column(value, dtype, n: int) -> np.ndarray:
    """``value`` over ``n`` lanes: a per-lane sequence, or one value for
    every lane (filled, which costs less than a broadcast view)."""
    column = np.asarray(value, dtype=dtype)
    return np.full(n, column, dtype) if column.ndim == 0 else column


def knobs_of(plans: Sequence[KernelPlan]) -> LaneKnobs:
    """The :class:`LaneKnobs` of a plan list (one structural family)."""
    blocks: Dict[tuple, int] = {}
    unrolls: Dict[tuple, int] = {}
    block_ix = [blocks.setdefault(p.block, len(blocks)) for p in plans]
    unroll_ix = [unrolls.setdefault(p.unroll, len(unrolls)) for p in plans]
    return LaneKnobs(
        blocks,
        unrolls,
        block_ix,
        unroll_ix,
        [p.unroll_blocked for p in plans],
        [p.max_registers for p in plans],
        [p.prefetch for p in plans],
        [p.perspective for p in plans],
        [p.stream_chunks for p in plans],
    )


class PricedLane:
    """One candidate's price, in scalar-path terms.

    Either ``result`` is a :class:`SimulationResult` equal to what
    ``simulate`` would return, or the occupancy screen rejected the lane
    and ``occ_message`` / ``occ_context`` / ``occ_code`` carry exactly
    what :func:`repro.gpu.simulator.plan_occupancy` would raise and how
    the lint layer classifies it.

    A view of one lane of a pricing pass (:class:`_LaneArrays`): the
    result and the rejection are built from the pass's arrays on first
    read, once per lane.
    """

    __slots__ = ("_lanes", "_index")

    def __init__(self, lanes: "_LaneArrays", index: int):
        self._lanes = lanes
        self._index = index

    @property
    def demand(self) -> int:
        return int(self._lanes.demand[self._index])

    @property
    def feasible(self) -> bool:
        return self._lanes.ok[self._index]

    @property
    def result(self) -> Optional[SimulationResult]:
        if not self.feasible:
            return None
        return self._lanes.result(self._index)

    @property
    def occ_message(self) -> Optional[str]:
        if self.feasible:
            return None
        return self._lanes.rejection(self._index)[0]

    @property
    def occ_context(self) -> Dict[str, Any]:
        if self.feasible:
            return {}
        return self._lanes.rejection(self._index)[1]

    @property
    def occ_code(self) -> Optional[str]:
        return None if self.feasible else self._lanes.code(self._index)

    def _fields(self) -> tuple:
        return (
            self.demand,
            self.result,
            self.occ_message,
            self.occ_context,
            self.occ_code,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        demand, result, message, context, code = self._fields()
        return (
            f"PricedLane(demand={demand!r}, result={result!r}, "
            f"occ_message={message!r}, occ_context={context!r}, "
            f"occ_code={code!r})"
        )


class _LaneArrays:
    """The lane arrays of one pricing pass, read back one lane at a time.

    ``ok``, ``time_s`` and ``tflops`` are plain lists over the priced
    lanes: what a ranking reads without building anything.  A lane's
    :class:`SimulationResult` (:meth:`result`) and its occupancy
    refusal (:meth:`rejection`) are built on first read and kept.

    As a sequence it has one :class:`PricedLane` per *submitted* lane;
    ``lane_of`` maps a submitted lane to its priced lane (-1 for a lane
    the pass did not price, whose entry is None).
    """

    __slots__ = (
        "device", "threads", "blocks", "compiled", "demand", "shmem",
        "occ", "counters", "timing", "ok", "time_s", "tflops", "rule",
        "lane_of", "_codes", "_rows", "_results", "_rejects",
    )

    def __init__(
        self, device, base, demand, compiled, shmem, occ, counters, timing
    ):
        from ..lint.rules_plan import RL201, RL202, RL203

        self.device = device
        self.threads = base["threads"]
        self.blocks = base["blocks"]
        self.demand = demand
        self.compiled = compiled
        self.shmem = shmem
        self.occ = occ
        self.counters = counters
        self.timing = timing
        # SimulationResult.time_s / .tflops over the lane axis, in the
        # scalar operation order.
        bound = np.maximum(
            np.maximum(
                np.maximum(
                    np.maximum(timing["compute"], timing["dram"]),
                    timing["tex"],
                ),
                timing["shm"],
            ),
            timing["latency"],
        )
        total = ((bound + timing["sync"]) + timing["bubble"]) + timing["launch"]
        positive = total > 0
        tflops = np.where(
            positive,
            counters["useful"] / np.where(positive, total, 1.0) / 1e12,
            0.0,
        )
        self.ok = (~occ["infeasible"]).tolist()
        self.time_s = total.tolist()
        self.tflops = tflops.tolist()
        #: index into ``(RL201, RL202, RL203)`` of each refused lane's
        #: rule, as ``classify_occupancy_context`` reads its refusal
        self.rule = (occ["rule"]).tolist()
        self._codes = (RL201.code, RL202.code, RL203.code)
        self.lane_of: Optional[List[int]] = None
        self._rows: Optional[List[tuple]] = None
        self._results: Dict[int, SimulationResult] = {}
        self._rejects: Dict[int, Tuple[str, Dict[str, Any], str]] = {}

    # -- sequence of submitted lanes --------------------------------------

    def __len__(self) -> int:
        return len(self.ok) if self.lane_of is None else len(self.lane_of)

    def __getitem__(self, i: int) -> Optional[PricedLane]:
        if self.lane_of is not None:
            i = self.lane_of[i]
            if i < 0:
                return None
        elif not -len(self.ok) <= i < len(self.ok):
            raise IndexError(i)
        return PricedLane(self, i % len(self.ok))

    # -- one priced lane --------------------------------------------------

    def code(self, i: int) -> str:
        """The RL2xx rule of refused lane ``i``."""
        return self._codes[self.rule[i]]

    def result(self, i: int) -> SimulationResult:
        """The :class:`SimulationResult` of feasible lane ``i`` (built
        once)."""
        result = self._results.get(i)
        if result is None:
            result = self._results[i] = self.build_result(i)
        return result

    def rejection(self, i: int) -> Tuple[str, Dict[str, Any], str]:
        """Refused lane ``i``'s ``(message, context, code)`` (built once)."""
        reject = self._rejects.get(i)
        if reject is None:
            reject = self._rejects[i] = self.scalar_reject(i)
        return reject

    def _row(self, i: int) -> tuple:
        """Lane ``i``'s values of every array :meth:`build_result` reads.

        The first read turns the arrays into one tuple per lane: a
        ``tolist`` per array costs less than a NumPy scalar read per
        lane and field as soon as a few lanes are read, and gives the
        same Python ints and floats.
        """
        if self._rows is None:
            occ, counters, timing = self.occ, self.counters, self.timing
            columns = (
                occ["blocks_psm"], occ["warps"], occ["occ_frac"],
                occ["limiter"], counters["flops"], counters["dram_read"],
                counters["dram_write"], counters["tex"], counters["shm"],
                counters["spill"], counters["syncs"], self.blocks,
                self.threads, self.compiled, self.demand, self.shmem,
                timing["compute"], timing["dram"], timing["tex"],
                timing["shm"], timing["sync"], timing["latency"],
                timing["bubble"],
            )
            self._rows = list(zip(*(column.tolist() for column in columns)))
        return self._rows[i]

    def build_result(self, i: int) -> SimulationResult:
        """Build the :class:`SimulationResult` of feasible lane ``i``."""
        (
            blocks_psm, warps, occ_frac, limiter, flops, dram_read,
            dram_write, tex, shm, spill, syncs, blocks, threads, compiled,
            demand, shmem, compute_s, dram_s, tex_s, shm_s, sync_s,
            latency_s, bubble_s,
        ) = self._row(i)
        occ_result = OccupancyResult(
            blocks_per_sm=blocks_psm,
            active_warps=warps,
            occupancy=occ_frac,
            limiter=_LIMITER_NAMES[limiter],
            warp_size=self.device.warp_size,
        )
        kc = KernelCounters(
            flops=flops,
            useful_flops=self.counters["useful"],
            dram_read_bytes=dram_read,
            dram_write_bytes=dram_write,
            tex_bytes=tex,
            shm_bytes=shm,
            spill_bytes=spill,
            blocks=blocks,
            threads_per_block=threads,
            regs_per_thread=compiled,
            regs_demand=demand,
            shmem_per_block=shmem,
            syncs=syncs,
        )
        tb = TimingBreakdown(
            compute_s=compute_s,
            dram_s=dram_s,
            tex_s=tex_s,
            shm_s=shm_s,
            sync_s=sync_s,
            latency_s=latency_s,
            launch_s=self.timing["launch"],
            bubble_s=bubble_s,
        )
        return SimulationResult(counters=kc, occupancy=occ_result, timing=tb)

    def scalar_reject(self, i: int) -> Tuple[str, Dict[str, Any], str]:
        """Reproduce the scalar occupancy failure of infeasible lane ``i``:
        ``(message, context, RL2xx code)``, without raising it."""
        from ..lint.rules_plan import classify_occupancy_context

        refusal = launch_refusal(
            self.device,
            int(self.threads[i]),
            int(self.compiled[i]),
            int(self.shmem[i]),
        )
        if refusal is None:  # pragma: no cover - parity guard
            raise AssertionError(
                "vectorized occupancy flagged a lane the scalar model accepts"
            )
        message, context = refusal
        return message, context, classify_occupancy_context(context)


_LIMITER_NAMES = ("threads", "blocks", "registers", "shmem")


# ---------------------------------------------------------------------------
# structural capture
# ---------------------------------------------------------------------------


@dataclass
class _StageInfo:
    """Structural constants of one stage's counter-model contribution."""

    stage: Stage
    halos: Dict[str, tuple]
    #: per read array: the axes its footprint spans (a lower-rank array
    #: skips the axes it does not index)
    foot_axes: Dict[str, Tuple[int, ...]]
    flops_pp: int
    summary: Dict[str, Any]  # the memoized access summary (shared object)
    reads: List[dict]  # ordered read-side term descriptors
    stores: List[dict]  # ordered store-side term descriptors


class FamilyStructure:
    """All structural constants of one plan family's pricing model.

    Built once per (IR, :func:`plan_structural_key`) and cached by
    :func:`family_structure`; :meth:`demand` and :meth:`price` then run
    the whole model over lane arrays.

    The cache entry lives as long as its IR, so a structure must not
    reference the IR: everything pricing needs from it (the array map,
    footprint axes, read offsets) is captured at build time.
    """

    def __init__(self, ir: ProgramIR, proto: KernelPlan):
        self.array_map = ir.array_map
        self.key = plan_structural_key(proto)
        self.ndim = ir.ndim
        self.domain = ir.domain_shape()
        self.stages: Tuple[Stage, ...] = tuple(build_stages(ir, proto))
        self.streaming = proto.uses_streaming
        self.stream_axis = proto.stream_axis
        self.retime = proto.retime
        self.domain_points = 1
        for extent in self.domain:
            self.domain_points *= extent
        self.intermediates = intermediate_arrays(ir, proto)
        self.externally_visible = externally_visible(ir, proto)
        self._build_buffer_candidates(ir, proto)
        self._build_inter_specs(ir, proto)
        self._build_stage_infos(ir, proto)
        self._build_register_model(ir, proto)

    # -- buffer winner candidates (mirrors tiling._buffer_requirements) --

    def _build_buffer_candidates(
        self, ir: ProgramIR, proto: KernelPlan
    ) -> None:
        self.buffer_arrays: List[str] = []  # first-encounter order
        self.candidates: Dict[str, List[dict]] = {}
        self.buffer_sizeof: Dict[str, int] = {}
        self.buffer_storage: Dict[str, str] = {}
        self.buffered: Dict[str, bool] = {}
        for stage in self.stages:
            halos = read_halos(ir, stage.instance)
            written_here = set(stage.instance.arrays_written())
            for array, halo in halos.items():
                if array in written_here:
                    continue
                storage = proto.placement_of(array)
                dtype = (
                    ir.array_map[array].dtype
                    if array in ir.array_map
                    else "double"
                )
                cand: dict = {
                    "stage": stage.index,
                    "array": array,
                    "sizeof": sizeof(dtype),
                }
                if storage == GMEM or storage == "constant":
                    cand.update(shm="zero", shm_const=0, reg=0)
                    is_buffered = False
                elif self.streaming:
                    lo, hi = halo[self.stream_axis]
                    window = lo + hi + 1
                    star = is_star_along(
                        ir, stage.instance, array, self.stream_axis
                    )
                    if self.retime:
                        cand.update(shm="const", shm_const=1, reg=0)
                    elif storage == "register":
                        cand.update(shm="zero", shm_const=0, reg=window)
                    elif star:
                        cand.update(shm="const", shm_const=1, reg=window - 1)
                    else:
                        cand.update(shm="const", shm_const=window, reg=0)
                    is_buffered = True
                else:
                    if storage == "register":
                        cand.update(shm="zero", shm_const=0, reg=1)
                    else:
                        cand.update(shm="tile_planes", shm_const=0, reg=0)
                    is_buffered = True
                if array not in self.candidates:
                    self.buffer_arrays.append(array)
                    self.candidates[array] = []
                    self.buffer_sizeof[array] = cand["sizeof"]
                    # storage / buffered-ness is uniform across a given
                    # array's candidates (placement and retime are
                    # plan-wide), hence structural.
                    self.buffer_storage[array] = storage
                    self.buffered[array] = is_buffered
                self.candidates[array].append(cand)

    # -- inter-stage specs (mirrors tiling._intermediate_specs) ----------

    def _build_inter_specs(
        self, ir: ProgramIR, proto: KernelPlan
    ) -> None:
        self.inter_specs: List[dict] = []
        if len(self.stages) > 1:
            for stage, consumer in zip(self.stages[:-1], self.stages[1:]):
                produced = set(stage.instance.arrays_written())
                halos = read_halos(ir, consumer.instance)
                if proto.time_tile > 1:
                    _written, read = pingpong_pair(ir, stage.instance)
                    produced = {read} if read in halos else set()
                for array in produced:
                    if array not in halos:
                        continue
                    halo = halos[array]
                    dtype = (
                        ir.array_map[array].dtype
                        if array in ir.array_map
                        else "double"
                    )
                    distinct, center = _consumer_read_counts(
                        ir, consumer.instance, array, proto
                    )
                    spec: dict = {
                        "array": array,
                        "producer": stage.index,
                        "consumer": consumer.index,
                        "halo": halo,
                        "sizeof": sizeof(dtype),
                        "center": center,
                        "total": distinct,
                    }
                    if self.streaming:
                        lo, hi = halo[self.stream_axis]
                        window = lo + hi + 1
                        if self.retime:
                            spec.update(shm="const", shm_const=1, reg=0)
                        elif is_star_along(
                            ir, consumer.instance, array, self.stream_axis
                        ):
                            spec.update(
                                shm="const", shm_const=1, reg=window - 1
                            )
                        else:
                            spec.update(
                                shm="const", shm_const=window, reg=0
                            )
                    else:
                        if self.retime:
                            spec.update(shm="zero", shm_const=0, reg=0)
                        else:
                            spec.update(shm="depth0", shm_const=0, reg=0)
                    self.inter_specs.append(spec)
        self.inter_by_consumer: Dict[Tuple[int, str], dict] = {
            (spec["producer"] + 1, spec["array"]): spec
            for spec in self.inter_specs
        }
        self.inter_reg_planes = sum(spec["reg"] for spec in self.inter_specs)

    # -- per-stage read/store term descriptors (reference_model._count)

    def _build_stage_infos(
        self, ir: ProgramIR, proto: KernelPlan
    ) -> None:
        self.stage_infos: List[_StageInfo] = []
        for stage in self.stages:
            instance = stage.instance
            summary = access_summary(ir, instance)
            halos = read_halos(ir, instance)
            foot_axes = {
                array: tuple(
                    axis
                    for axis in range(self.ndim)
                    if array not in self.array_map
                    or self.array_map[array].ndim >= self.ndim
                    or _array_indexes_axis(ir, instance, array, axis)
                )
                for array in halos
            }
            written_here = set(instance.arrays_written())
            reads: List[dict] = []
            # Iterating the memoized summary dict object itself keeps
            # the term order identical to the scalar loop's.
            for array, info in summary.items():
                if info.reads_total == 0:
                    continue
                arr_esize = (
                    sizeof(ir.array_map[array].dtype)
                    if array in ir.array_map
                    else 8
                )
                item: dict = {"array": array, "esize": arr_esize}
                if array in written_here:
                    item.update(kind="written_here", reads=info.reads_distinct)
                elif stage.index > 0 and array in self.intermediates:
                    inter = self.inter_by_consumer.get((stage.index, array))
                    if inter is None:
                        continue  # no term at all
                    served = (
                        inter["center"]
                        if (inter["reg"] > 0 or self.retime)
                        else inter["total"]
                    )
                    item.update(kind="inter", served=served)
                elif self.buffered.get(array, False):
                    item.update(
                        kind="buffered",
                        unique=_unique_bytes(ir, array, arr_esize, proto),
                        halo_x=stage.halo[self.ndim - 1],
                        reads_distinct=info.reads_distinct,
                        inplane=(
                            _inplane_distinct_reads(
                                ir, stage, array, self.stream_axis
                            )
                            if self.streaming
                            else 0
                        ),
                        center=(
                            _center_plane_reads(
                                ir, proto, stage, array
                            )
                            if self.streaming
                            else 0
                        ),
                    )
                else:
                    item.update(
                        kind="gmem",
                        unique=_unique_bytes(ir, array, arr_esize, proto),
                        gcoal=_gmem_coalescing_const(ir, stage.instance, array),
                        instance=stage.instance,
                        offsets=distinct_read_offsets(ir, stage.instance, array),
                    )
                reads.append(item)
            stores: List[dict] = []
            for array in instance.arrays_written():
                arr_esize = (
                    sizeof(ir.array_map[array].dtype)
                    if array in ir.array_map
                    else 8
                )
                writes = summary[array].writes if array in summary else 1
                entry = {"array": array, "esize": arr_esize, "writes": writes}
                if not stage.is_last and array in self.intermediates:
                    inter = self.inter_by_consumer.get(
                        (stage.index + 1, _consumed_name(ir, proto, stage, array))
                    )
                    if inter is None or _inter_shm_positive(inter):
                        entry["kind"] = "shm"
                    else:
                        continue  # buffered in registers: no traffic term
                elif array not in self.externally_visible:
                    entry["kind"] = "shm"
                else:
                    entry["kind"] = "dram"
                stores.append(entry)
            self.stage_infos.append(
                _StageInfo(
                    stage=stage,
                    halos=halos,
                    foot_axes=foot_axes,
                    flops_pp=stage.flops_per_point,
                    summary=summary,
                    reads=reads,
                    stores=stores,
                )
            )
        self._build_int64_bounds()

    def _build_int64_bounds(self) -> None:
        """Bounds for :meth:`_check_int64`: per axis, the most a stage
        adds to a tile for its points (``pts_span``) and for a read
        footprint (``foot_span``), and the largest integer factor
        :meth:`_counter_lanes` multiplies points or footprints by, summed
        over blocks, before it converts them to ``float64``."""
        infos = self.stage_infos
        self.pts_span = [
            max(sum(info.stage.expand[axis]) for info in infos)
            for axis in range(self.ndim)
        ]
        self.foot_span = [
            max(
                [self.pts_span[axis]]
                + [
                    sum(info.stage.expand[axis]) + sum(halo[axis])
                    for info in infos
                    for halo in info.halos.values()
                    if halo is not None
                ]
            )
            for axis in range(self.ndim)
        ]
        pts_factors = [len(infos)]  # the points summed over stages
        foot_factors = [1]
        for info in infos:
            pts_factors.append(info.flops_pp)
            for item in info.reads:
                kind = item["kind"]
                if kind == "written_here":
                    pts_factors.append(item["reads"] * item["esize"])
                elif kind == "inter":
                    pts_factors.append(item["served"] * item["esize"])
                else:
                    foot_factors.append(item["esize"])
                    if kind == "buffered":
                        pts_factors.append(
                            2 + max(
                                item["inplane"], item["center"],
                                item["reads_distinct"],
                            )
                        )
            for entry in info.stores:
                pts_factors.append(entry["writes"] * entry["esize"])
        self.pts_factor = max(pts_factors)
        self.foot_factor = max(foot_factors)

    # -- register-model structural constants (mirrors registers.py) ------

    def _build_register_model(
        self, ir: ProgramIR, proto: KernelPlan
    ) -> None:
        self.expr_regs = max(
            expression_registers(s.instance) for s in self.stages
        )
        if self.retime and self.streaming:
            accumulators = 0
            for stage in self.stages:
                window = 1
                for array in stage.instance.arrays_read():
                    lo, hi = stream_window(
                        ir, stage.instance, array, self.stream_axis
                    )
                    window = max(window, lo + hi + 1)
                accumulators += len(stage.instance.arrays_written()) * window
            self.accumulators = accumulators
        else:
            outputs: set = set()
            for stage in self.stages:
                outputs.update(stage.instance.arrays_written())
            self.accumulators = len(outputs)
        # Prefetch staging registers of a prefetching lane: arrays
        # fetched from global.  GMEM-placed arrays always buffer (0, 0)
        # planes, so the scalar condition ``storage != GMEM or
        # reg_planes > 0`` reduces to the storage test — structural.
        fetched = sum(
            1
            for array in self.buffer_arrays
            if self.buffer_storage[array] != GMEM
        )
        self.staging_regs = max(fetched, 1)
        # Blocked-unroll live loads: the per-stage gmem (unbuffered)
        # read sets and their read offsets are structural; the load
        # counts per lane are not.
        self.gmem_read_sets: List[List[Tuple[StencilInstance, str, list]]] = []
        for stage in self.stages:
            entries: List[Tuple[StencilInstance, str, list]] = []
            for array in stage.instance.arrays_read():
                if array in self.candidates and self.buffered.get(array, False):
                    continue
                offsets = distinct_read_offsets(ir, stage.instance, array)
                entries.append((stage.instance, array, offsets))
            self.gmem_read_sets.append(entries)

    # ------------------------------------------------------------------
    # lane-array computation
    # ------------------------------------------------------------------

    def _base(self, knobs: LaneKnobs) -> dict:
        """Per-lane geometry scalars.

        Replays ``tiling._launch_geometry`` over the lane axis: the
        domain, tiled-axis set and first-stage halo are structural
        constants, so only the knobs need gathering per lane — threads
        per block and ILP are tables over the distinct (perspective,
        block) and (prefetch, unroll) values, looked up per lane.
        Everything downstream is exact int64 array arithmetic (products
        and ``-(-a // b)`` ceil-division match the scalar reference bit
        for bit).
        """
        n = len(knobs)
        ndim = self.ndim
        tiled = (
            tuple(a for a in range(ndim) if a != self.stream_axis)
            if self.streaming
            else tuple(range(ndim))
        )
        block_ix, unroll_ix = knobs.block_ix, knobs.unroll_ix
        # -- gather the varying grid fields from the distinct tuples
        unroll_table = np.asarray(
            [
                [u[axis] if axis < len(u) else 1 for u in knobs.unrolls]
                for axis in range(ndim)
            ],
            dtype=_I8,
        ).reshape(ndim, len(knobs.unrolls))
        unroll = unroll_table[:, unroll_ix]
        block_table = np.asarray(
            [
                [b[pos] if pos < len(b) else 1 for b in knobs.blocks]
                for pos in range(len(tiled))
            ],
            dtype=_I8,
        ).reshape(len(tiled), len(knobs.blocks))
        bt = block_table[:, block_ix]  # threads per tiled position
        # exact int products of the full tuples (may exceed the tiled
        # axis count; extra entries still count, as in the scalar code)
        tunroll_table = [math.prod(u) for u in knobs.unrolls]
        tunroll = np.asarray(tunroll_table, dtype=_I8)[unroll_ix]
        # -- tile extents and block decomposition
        tile = np.empty((ndim, n), _I8)
        blocks = _column(n, 1, _I8)
        for pos, axis in enumerate(tiled):
            tile[axis] = bt[pos] * unroll[axis]
            blocks = blocks * (-(-self.domain[axis] // tile[axis]))
        sweep = None
        if self.streaming:
            chunks = knobs.chunks
            sweep = -(-self.domain[self.stream_axis] // chunks)
            tile[self.stream_axis] = sweep
            blocks = blocks * chunks
        # -- threads per block (tiling._threads_per_block)
        halo = self.stages[0].halo
        innermost = tiled[-1] if tiled else ndim - 1
        threads_table = [
            [_block_threads(b, p, tiled, halo, innermost) for b in knobs.blocks]
            for p in knobs.perspectives
        ]
        threads = np.asarray(threads_table, dtype=_I8).reshape(
            len(knobs.perspectives), len(knobs.blocks)
        )[knobs.persp_ix, block_ix]
        output = np.asarray(
            [p == PERSPECTIVE_OUTPUT for p in knobs.perspectives]
        )[knobs.persp_ix]
        # math.log2 per distinct unroll: identical libm path to the
        # scalar code (np.log2 could round differently on exotic
        # platforms).
        ilp_table = [1.0 + 0.4 * math.log2(max(1, t)) for t in tunroll_table]
        staged_table = [value + 0.3 for value in ilp_table]  # prefetching
        ilp = np.where(
            knobs.prefetch,
            np.asarray(staged_table, dtype=_F8)[unroll_ix],
            np.asarray(ilp_table, dtype=_F8)[unroll_ix],
        )
        return {
            "n": n,
            "tile": tile,
            "unroll": unroll,
            "blocks": blocks,
            "threads": threads,
            "sweep": sweep,
            "output": output,
            "prefetch": knobs.prefetch,
            "tunroll": tunroll,
            "ublocked": knobs.ublocked,
            "maxreg": knobs.maxreg,
            "ilp": ilp,
            "pts": {},
            "coal": {},
            "foot": {},
            "plane": {},
            "tplanes": {},
            "lpp": {},
        }

    def _pts(self, base: dict, sidx: int) -> np.ndarray:
        cached = base["pts"].get(sidx)
        if cached is None:
            stage = self.stages[sidx]
            cached = _product(
                [
                    base["tile"][axis] + sum(stage.expand[axis])
                    for axis in range(self.ndim)
                ],
                base["n"],
            )
            base["pts"][sidx] = cached
        return cached

    def _footprint(self, base: dict, sidx: int, array: str) -> np.ndarray:
        info = self.stage_infos[sidx]
        halo = info.halos.get(array)
        key = (sidx, halo, info.foot_axes.get(array))
        cached = base["foot"].get(key)
        if cached is None:
            if halo is None:
                cached = np.zeros(base["n"], _I8)
            else:
                factors = []
                for axis in info.foot_axes[array]:
                    exp_lo, exp_hi = info.stage.expand[axis]
                    h_lo, h_hi = halo[axis]
                    span = base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                    factors.append(
                        np.minimum(span, self.domain[axis] + (h_lo + h_hi))
                    )
                cached = _product(factors, base["n"])
            base["foot"][key] = cached
        return cached

    def _plane_elems(self, base: dict, sidx: int, array: str) -> np.ndarray:
        info = self.stage_infos[sidx]
        halo = info.halos[array]
        key = (sidx, halo)
        cached = base["plane"].get(key)
        if cached is None:
            depth_axis = self.stream_axis if self.streaming else 0
            factors = []
            for axis in range(self.ndim):
                if axis == depth_axis:
                    continue
                exp_lo, exp_hi = info.stage.expand[axis]
                h_lo, h_hi = halo[axis]
                factors.append(
                    base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                )
            base["plane"][key] = cached = _product(factors, base["n"])
        return cached

    def _tile_planes(self, base: dict, sidx: int, array: str) -> np.ndarray:
        key = (sidx, array)
        cached = base["tplanes"].get(key)
        if cached is None:
            info = self.stage_infos[sidx]
            halo = info.halos[array]
            axis = self.stream_axis if self.streaming else 0
            exp_lo, exp_hi = info.stage.expand[axis]
            h_lo, h_hi = halo[axis]
            cached = base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
            base["tplanes"][key] = cached
        return cached

    def _gmem_lpp(
        self, base: dict, instance: StencilInstance, array: str, offsets: list
    ) -> np.ndarray:
        """Vectorized :func:`tiling.gmem_loads_per_point`."""
        key = (id(instance), array)
        cached = base["lpp"].get(key)
        if cached is None:
            n = base["n"]
            if not offsets:
                cached = np.zeros(n, _F8)
            else:
                loads = float(len(offsets))
                factor_product = _column(n, 1.0, _F8)
                for axis in range(self.ndim):
                    axis_offsets = sorted(
                        {o[axis] for o in offsets if o[axis] is not None}
                    )
                    if len(axis_offsets) <= 1:
                        continue
                    span = axis_offsets[-1] - axis_offsets[0] + 1
                    count = len(axis_offsets)
                    factor = base["unroll"][axis]
                    # factor == 1 lanes multiply by exactly 1.0 (merged
                    # == count), matching the scalar code's skip.
                    merged = np.minimum(factor * count, span + (factor - 1))
                    factor_product = factor_product * (
                        merged / (factor * count)
                    )
                blocked = loads * np.maximum(factor_product, 0.55)
                cached = np.where(base["ublocked"], blocked, loads)
            base["lpp"][key] = cached
        return cached

    def _winners(self, base: dict) -> Dict[str, dict]:
        """Per-lane buffer-winner selection (strict-greater, first wins)."""
        winners: Dict[str, dict] = {}
        for array in self.buffer_arrays:
            size = self.buffer_sizeof[array]
            win: Optional[dict] = None
            for cand in self.candidates[array]:
                plane = self._plane_elems(base, cand["stage"], array)
                if cand["shm"] == "const":
                    shm = _column(base["n"], cand["shm_const"], _I8)
                elif cand["shm"] == "tile_planes":
                    shm = self._tile_planes(base, cand["stage"], array)
                else:
                    shm = np.zeros(base["n"], _I8)
                reg = _column(base["n"], cand["reg"], _I8)
                spec_bytes = shm * plane * size + reg
                if win is None:
                    win = {
                        "shm": shm,
                        "reg": reg,
                        "plane": plane,
                        "bytes": spec_bytes,
                    }
                else:
                    better = spec_bytes > win["bytes"]
                    win = {
                        "shm": np.where(better, shm, win["shm"]),
                        "reg": np.where(better, reg, win["reg"]),
                        "plane": np.where(better, plane, win["plane"]),
                        "bytes": np.where(better, spec_bytes, win["bytes"]),
                    }
            assert win is not None
            winners[array] = win
        return winners

    def _inter_arrays(self, base: dict) -> List[dict]:
        """Per-lane shm_planes / plane_elements of inter-stage specs."""
        out = []
        for spec in self.inter_specs:
            consumer = self.stages[spec["consumer"]]
            halo = spec["halo"]
            plane = _column(base["n"], 1, _I8)
            for axis in range(self.ndim):
                if self.streaming and axis == self.stream_axis:
                    continue
                exp_lo, exp_hi = consumer.expand[axis]
                h_lo, h_hi = halo[axis]
                plane = plane * (
                    base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                )
            if spec["shm"] == "const":
                shm = _column(base["n"], spec["shm_const"], _I8)
            elif spec["shm"] == "depth0":
                exp_lo, exp_hi = consumer.expand[0]
                h_lo, h_hi = halo[0]
                shm = base["tile"][0] + (exp_lo + exp_hi + h_lo + h_hi)
            else:
                shm = np.zeros(base["n"], _I8)
            out.append({"spec": spec, "shm": shm, "plane": plane})
        return out

    def _register_demand(self, base: dict, winners: Dict[str, dict]) -> np.ndarray:
        reg_planes = np.zeros(base["n"], _I8)
        for array in self.buffer_arrays:
            reg_planes = reg_planes + winners[array]["reg"]
        reg_planes = reg_planes + self.inter_reg_planes
        demand = _column(base["n"], BASE_REGISTERS + self.expr_regs, _I8)
        demand = demand + reg_planes * base["tunroll"]
        demand = demand + self.accumulators * base["tunroll"]
        demand = demand + np.where(base["prefetch"], self.staging_regs, 0)
        blocked_mask = (base["tunroll"] > 1) & base["ublocked"]
        if blocked_mask.any():
            live = np.zeros(base["n"], _F8)
            for entries in self.gmem_read_sets:
                stage_loads = np.zeros(base["n"], _F8)
                for instance, array, offsets in entries:
                    stage_loads = stage_loads + self._gmem_lpp(
                        base, instance, array, offsets
                    )
                live = np.maximum(live, stage_loads)
            extra = 2 * (base["tunroll"] - 1) + (
                live * base["tunroll"].astype(_F8) * 0.5
            ).astype(_I8)
            demand = demand + np.where(blocked_mask, extra, 0)
        return demand

    def _shmem(self, base: dict, winners: Dict[str, dict],
               inter_arrays: List[dict]) -> np.ndarray:
        total = np.zeros(base["n"], _I8)
        for array in self.buffer_arrays:
            win = winners[array]
            total = total + win["shm"] * win["plane"] * self.buffer_sizeof[array]
        for entry in inter_arrays:
            total = total + entry["shm"] * entry["plane"] * entry["spec"]["sizeof"]
        # intra-kernel staging (tiling._intra_staging_bytes)
        for info in self.stage_infos:
            stage = info.stage
            depth_axis = self.stream_axis if self.streaming else 0
            for array in stage.instance.arrays_written():
                halo = info.halos.get(array)
                if halo is None:
                    continue
                size = sizeof(
                    self.array_map[array].dtype
                    if array in self.array_map
                    else "double"
                )
                plane = _column(base["n"], 1, _I8)
                for axis in range(self.ndim):
                    if axis == depth_axis:
                        continue
                    exp_lo, exp_hi = stage.expand[axis]
                    h_lo, h_hi = halo[axis]
                    plane = plane * (
                        base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                    )
                if self.streaming:
                    lo, hi = halo[self.stream_axis]
                    depth = _column(base["n"], lo + hi + 1, _I8)
                else:
                    exp_lo, exp_hi = stage.expand[0]
                    h_lo, h_hi = halo[0]
                    depth = base["tile"][0] + (exp_lo + exp_hi + h_lo + h_hi)
                total = total + plane * depth * size
        return total

    def _live_bytes(self, base: dict, winners: Dict[str, dict]) -> np.ndarray:
        total = np.zeros(base["n"], _F8)
        first = self.stages[0]
        for array in first.instance.arrays_read():
            if array not in self.candidates:
                continue
            if self.buffered[array]:
                continue
            info = self.array_map.get(array)
            arr_esize = sizeof(info.dtype) if info is not None else 8
            plane = winners[array]["plane"]
            total = total + (plane * arr_esize).astype(_F8)
        return total

    # ------------------------------------------------------------------
    # public lane APIs
    # ------------------------------------------------------------------

    def demand(self, lanes) -> np.ndarray:
        """Register demand per lane (== ``register_demand`` per plan).

        ``lanes`` is a plan list or its :class:`LaneKnobs`.
        """
        base = self._base(self._knobs(lanes))
        winners = self._winners(base)
        return self._register_demand(base, winners)

    def price(self, lanes, device: DeviceSpec = P100) -> Sequence[PricedLane]:
        """Price every lane; see :class:`PricedLane` for the contract.

        ``lanes`` is a plan list or its :class:`LaneKnobs`; the result
        is the pass's :class:`_LaneArrays`, a sequence with one
        :class:`PricedLane` per lane.
        """
        knobs = self._knobs(lanes)
        if not len(knobs):
            return []
        base = self._base(knobs)
        winners = self._winners(base)
        demand = self._register_demand(base, winners)
        return self._priced(device, base, winners, demand)

    def price_spill_free(
        self,
        lanes,
        levels: Sequence[int],
        device: DeviceSpec = P100,
        skip: Optional[Sequence[bool]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, "_LaneArrays"]:
        """Resolve the register ladder, then price each lane that has a
        rung, at that rung.

        The evaluation engine's spill-free escalation needs the register
        *demand* of every lane (to pick the first non-spilling rung) and
        then the price of each lane at its chosen rung.  The base arrays
        and the demand are computed once over all lanes; the lanes that
        spill at every rung are then dropped, and occupancy, counters
        and timing run on the compacted rest with the ``max_registers``
        axis set to each lane's rung — no plan object is copied.

        Returns ``(demands, positions, lanes)``: ``positions[i]`` is the
        index into ``levels`` of the first rung with ``demands[i] <=
        levels[positions[i]]`` (exactly ``levels.index(next(lv for lv in
        levels if demand <= lv))`` of a plan-by-plan walk), or ``-1`` when
        every rung spills.  ``lanes`` has one entry per submitted lane:
        the lane's price, or None for an all-spill lane, which is never
        priced.  Lanes whose ``skip`` entry is true get a demand and a
        rung but no price either (the certifier refused them).
        """
        knobs = self._knobs(lanes)
        base = self._base(knobs)
        winners = self._winners(base)
        demands = self._register_demand(base, winners)
        positions, rungs = first_rungs(demands, levels)
        wanted = positions >= 0
        if skip is not None:
            wanted = wanted & ~np.asarray(skip, dtype=bool)
        kept = np.flatnonzero(wanted)
        sub = _take(base, kept)
        sub["n"] = len(kept)
        sub["maxreg"] = rungs[kept]
        priced = self._priced(
            device, sub, _take(winners, kept), demands[kept]
        )
        lane_of = _column(base["n"], -1, _I8)
        lane_of[kept] = np.arange(len(kept))
        priced.lane_of = lane_of.tolist()
        return demands, positions, priced

    def _knobs(self, lanes) -> LaneKnobs:
        """``lanes`` as :class:`LaneKnobs`.  A plan list must be all of
        this structure's family: its lanes are priced with this
        structure, whatever their own structural key."""
        if isinstance(lanes, LaneKnobs):
            return lanes
        for plan in lanes:
            if plan_structural_key(plan) != self.key:
                raise UsageError(
                    "a priced family shares one structural key; "
                    f"{plan.describe()!r} differs from the family's"
                )
        return knobs_of(lanes)

    def _priced(self, device, base, winners, demand) -> "_LaneArrays":
        """Count and price the lanes of ``base`` (the pricing core)."""
        n = base["n"]
        if n:
            _obs_counter("pricing.family_calls").add()
            _obs_counter("pricing.lanes").add(n)
        with _span("price_family", lanes=n):
            return self._price(device, base, winners, demand)

    def _price(self, device, base, winners, demand) -> "_LaneArrays":
        inter_arrays = self._inter_arrays(base)
        compiled = np.minimum(demand, base["maxreg"])
        shmem = self._shmem(base, winners, inter_arrays)

        occ = self._occupancy_lanes(device, base["threads"], compiled, shmem)
        self._check_int64(base, occ["infeasible"])
        counters = self._counter_lanes(
            device, base, winners, demand, compiled, shmem, occ
        )
        timing = self._timing_lanes(device, base, counters, shmem, occ)
        return _LaneArrays(
            device, base, demand, compiled, shmem, occ, counters, timing
        )

    def _check_int64(self, base: dict, infeasible: np.ndarray) -> None:
        """Raise OverflowError if an ``int64`` product of a feasible lane
        could wrap.

        Each such product is a lane's points or a read footprint, summed
        over its blocks, times an integer factor; bounded per axis by
        ``blocks * (tile + span)`` (a footprint by at most the domain
        plus its span), computed in ``float64``.  ``validate`` keeps a
        single-stage kernel within range; fusion widens a stage by the
        halos of the stages after it, so on a large grid a fused plan
        can still pass it.  A refused lane is not checked: nothing reads
        its counts.
        """
        blocks = base["blocks"].astype(_F8)
        pts = blocks * self.pts_factor
        foot = blocks * self.foot_factor
        for axis in range(self.ndim):
            tile = base["tile"][axis]
            pts = pts * (tile + self.pts_span[axis])
            foot = foot * (
                np.minimum(tile, self.domain[axis]) + self.foot_span[axis]
            )
        wraps = ((pts >= _I8_LIMIT) | (foot >= _I8_LIMIT)) & ~infeasible
        if wraps.any():
            raise OverflowError(
                "the performance model's int64 counts of this plan on a "
                f"{'x'.join(map(str, self.domain))} grid can pass 2**63"
            )

    # -- occupancy over lanes (mirrors occupancy.occupancy) --------------

    def _occupancy_lanes(
        self,
        device: DeviceSpec,
        threads: np.ndarray,
        compiled: np.ndarray,
        shmem: np.ndarray,
    ) -> dict:
        regs = np.maximum(compiled, 1)
        warp = device.warp_size
        warps_pb = -(-threads // warp)
        granularity = device.register_granularity
        per_warp = -(-(regs * warp) // granularity) * granularity
        block_regs = warps_pb * per_warp
        max_blocks = device.max_blocks_per_sm

        lim_threads = device.max_threads_per_sm // np.maximum(threads, 1)
        lim_regs = np.where(
            block_regs > 0,
            device.registers_per_sm // np.maximum(block_regs, 1),
            max_blocks,
        )
        lim_shm = np.where(
            shmem > 0,
            device.shared_mem_per_sm // np.maximum(shmem, 1),
            _I8_MAX,
        )
        # Blocks per SM: the minimum of the (threads, blocks, registers,
        # shmem) limits.  The limiter is the first minimum in that order,
        # except that a lane at the block cap is blocks-limited.
        blocks_psm = np.minimum(
            np.minimum(np.minimum(lim_threads, max_blocks), lim_regs),
            lim_shm,
        )
        limiter = np.where(
            blocks_psm == max_blocks,
            1,
            np.where(
                lim_threads == blocks_psm,
                0,
                np.where(lim_regs == blocks_psm, 2, 3),
            ),
        )
        bad_threads = (threads < 1) | (threads > device.max_threads_per_block)
        bad_shmem = shmem > device.shared_mem_per_block
        bad_regs = regs > device.max_registers_per_thread
        infeasible = bad_threads | bad_shmem | bad_regs | (blocks_psm < 1)
        # The refused lanes' rule, as classify_occupancy_context reads
        # the scalar refusal: 0 = RL201 (shared memory), 1 = RL202
        # (threads/blocks), 2 = RL203 (registers).
        by_limiter = np.where(limiter == 3, 0, np.where(limiter == 2, 2, 1))
        rule = np.where(
            bad_threads,
            1,
            np.where(bad_shmem, 0, np.where(bad_regs, 2, by_limiter)),
        )
        blocks_safe = np.where(infeasible, 1, blocks_psm)
        warps = np.minimum(blocks_safe * warps_pb, device.max_warps_per_sm)
        warps = np.where(infeasible, 1, warps)
        occ_frac = warps / device.max_warps_per_sm
        return {
            "infeasible": infeasible,
            "blocks_psm": blocks_psm,
            "blocks_safe": blocks_safe,
            "warps": warps,
            "occ_frac": occ_frac,
            "limiter": limiter,
            "rule": rule,
        }

    # -- counters over lanes (reference_model._count) ----------------

    def _counter_lanes(
        self,
        device: DeviceSpec,
        base: dict,
        winners: Dict[str, dict],
        demand: np.ndarray,
        compiled: np.ndarray,
        shmem: np.ndarray,
        occ: dict,
    ) -> dict:
        n = base["n"]
        blocks = base["blocks"]
        blocks_f = blocks.astype(_F8)

        active_blocks = np.maximum(1, occ["blocks_safe"] * device.sms)
        live = self._live_bytes(base, winners)
        working_set = active_blocks * np.maximum(live, 1.0)
        p_intra = np.minimum(1.0, device.l2_cache_bytes / working_set)
        p_inter = device.inter_block_l2_factor * p_intra
        # DRAM misses per re-touch: inter-block halo re-reads, and
        # same-block re-reads (streaming gmem sweeps capture fewer).
        miss_inter = 1.0 - p_inter
        p_touch = p_intra
        if self.streaming:
            p_touch = p_touch * device.stream_gmem_l2_capture
        miss_touch = 1.0 - p_touch
        sector = device.dram_transaction_bytes

        flops_t: List[np.ndarray] = []
        tex_t: List[np.ndarray] = []
        dread_t: List[np.ndarray] = []
        dwrite_t: List[np.ndarray] = []
        shm_t: List[np.ndarray] = []
        useful = 0.0

        for sidx, info in enumerate(self.stage_infos):
            pts = self._pts(base, sidx)
            pts_f = None
            flops_t.append((info.flops_pp * pts * blocks).astype(_F8))
            useful += info.flops_pp * self.domain_points
            for item in info.reads:
                array = item["array"]
                esize = item["esize"]
                kind = item["kind"]
                if kind == "written_here":
                    shm_t.append(
                        (item["reads"] * pts * blocks * esize).astype(_F8)
                    )
                elif kind == "inter":
                    shm_t.append(
                        (item["served"] * pts * blocks * esize).astype(_F8)
                    )
                elif kind == "buffered":
                    # The footprint is loaded exactly once: no same-block
                    # re-touch, so the DRAM term has no intra-block part.
                    footprint = self._footprint(base, sidx, array)
                    fill = (footprint * blocks * esize).astype(_F8)
                    coal = self._fill_coalescing(base, item, sector)
                    tex_t.append(fill * coal)
                    unique = np.minimum(item["unique"], fill)
                    dread_t.append(
                        unique + np.maximum(0.0, fill - unique) * miss_inter
                    )
                    shm_t.append(
                        self._buffered_shm(
                            base, winners[array], item, pts, blocks_f,
                            footprint, esize,
                        )
                    )
                else:  # gmem
                    per_point = self._gmem_lpp(
                        base, item["instance"], array, item["offsets"]
                    )
                    if pts_f is None:
                        pts_f = pts.astype(_F8)
                    loaded = per_point * pts_f * blocks_f * esize
                    tex_t.append(loaded * item["gcoal"])
                    footprint = self._footprint(base, sidx, array)
                    dread_t.append(
                        _dram_read_vec(
                            loaded,
                            (footprint * blocks * esize).astype(_F8),
                            item["unique"],
                            miss_touch,
                            miss_inter,
                        )
                    )
            for entry in info.stores:
                term = entry["writes"] * pts * blocks * entry["esize"]
                if entry["kind"] == "shm":
                    shm_t.append(term.astype(_F8))
                else:
                    dwrite_t.append(
                        float(
                            entry["writes"]
                            * self.domain_points
                            * entry["esize"]
                        )
                    )

        spilled = np.maximum(0, demand - compiled)
        total_points = np.zeros(n, _I8)
        for sidx in range(len(self.stages)):
            total_points = total_points + self._pts(base, sidx) * blocks
        spill = (
            spilled.astype(_F8)
            * device.spill_access_rate
            * 2
            * 8
            * total_points.astype(_F8)
        )
        tex_t.append(spill)

        per_step = 2.0 * len(self.stages)
        steps = base["sweep"] if self.streaming else 1
        syncs = np.where(shmem > 0, (per_step * steps) * blocks_f, 0.0)

        return {
            "flops": _acc(flops_t, n),
            "useful": useful,
            "tex": _acc(tex_t, n),
            "dram_read": _acc(dread_t, n),
            "dram_write": _acc(dwrite_t, n),
            "shm": _acc(shm_t, n),
            "spill": spill,
            "syncs": syncs,
            "p_intra": p_intra,
        }

    def _fill_coalescing(
        self, base: dict, item: dict, sector: int = 32
    ) -> np.ndarray:
        lo, hi = item["halo_x"]
        # Output-perspective lanes pay two extra sectors for a fill row
        # that starts at a halo offset.
        wide = bool(lo or hi)
        key = (lo + hi, wide, sector)
        cached = base["coal"].get(key)
        if cached is None:
            row_elems = base["tile"][self.ndim - 1]
            row_bytes = (row_elems + (lo + hi)) * 8
            sectors = np.ceil(row_bytes.astype(_F8) / sector).astype(_I8)
            denom = np.maximum(
                1, np.ceil((row_elems * 8).astype(_F8) / sector).astype(_I8)
            )
            extra = np.where(base["output"], 2, 0) if wide else 0
            cached = base["coal"][key] = (sectors + extra) / denom
        return cached

    def _buffered_shm(
        self,
        base: dict,
        win: dict,
        item: dict,
        pts: np.ndarray,
        blocks_f: np.ndarray,
        footprint: np.ndarray,
        esize: int,
    ) -> np.ndarray:
        shm_planes = win["shm"]
        reg_planes = win["reg"]
        # Pure register buffering (shm_planes == 0) is structural —
        # storage is uniform per array — but mask it anyway.
        fill_fraction = shm_planes / np.maximum(shm_planes + reg_planes, 1)
        stores = footprint.astype(_F8) * fill_fraction * blocks_f
        if self.retime and self.streaming:
            served = item["inplane"] * pts
        elif self.streaming:
            # Register-plane windows rotate through the shared center
            # plane: one load and one store per point.
            rotating = reg_planes > 0
            served = np.where(
                rotating, item["center"], item["reads_distinct"]
            ) * pts + np.where(rotating, 2 * pts, 0)
        else:
            served = item["reads_distinct"] * pts
        traffic = (stores + (served * base["blocks"]).astype(_F8)) * esize
        return np.where(shm_planes == 0, 0.0, traffic)

    # -- timing over lanes (reference_model._time) -------------------

    def _timing_lanes(
        self,
        device: DeviceSpec,
        base: dict,
        counters: dict,
        shmem: np.ndarray,
        occ: dict,
    ) -> dict:
        occ_frac = occ["occ_frac"]
        capacity = np.maximum(1, occ["blocks_safe"] * device.sms)
        concurrency = np.minimum(1.0, base["blocks"] / capacity)

        sustained = device.sustained_fraction
        eff_dram = sustained * np.minimum(
            1.0, occ_frac / device.dram_saturation_occupancy
        )
        eff_tex = device.tex_sustained_fraction * np.minimum(
            1.0, occ_frac / device.tex_saturation_occupancy
        )
        eff_shm = sustained * np.minimum(
            1.0, occ_frac / (device.dram_saturation_occupancy / 2)
        )
        eff_dram = eff_dram * concurrency
        eff_tex = eff_tex * concurrency
        eff_shm = eff_shm * concurrency

        dram_bytes = (
            counters["dram_read"] + counters["dram_write"]
        ) + counters["spill"]
        dram_s = dram_bytes / (
            (device.dram_bw_gbs * 1e9) * np.maximum(eff_dram, 1e-9)
        )
        tex_s = counters["tex"] / (
            (device.tex_bw_gbs * 1e9) * np.maximum(eff_tex, 1e-9)
        )
        shm_s = counters["shm"] / (
            (device.shm_bw_gbs * 1e9) * np.maximum(eff_shm, 1e-9)
        )
        compute_k = device.peak_gflops * 1e9 * sustained
        compute_s = counters["flops"] / (
            compute_k * np.maximum(concurrency, 1e-9)
        )

        thread_ops = counters["flops"] + 0.5 * (
            counters["shm"] / 8.0 + counters["tex"] / 8.0
        )
        warp_insts = thread_ops / device.warp_size
        covering = np.maximum(
            1.0, occ["warps"] * base["ilp"] / device.latency_cover_warps
        )
        stall = device.arith_latency_cycles / covering
        cycles = warp_insts * np.maximum(1.0, stall)
        rate = device.sms * device.warp_schedulers * device.clock_ghz * 1e9
        latency_s = cycles / (rate * np.maximum(concurrency, 1e-9))

        sync_s = np.where(
            counters["syncs"] != 0.0,
            counters["syncs"] / capacity * device.sync_cost_ns * 1e-9,
            0.0,
        )
        launch_s = device.launch_overhead_us * 1e-6

        if self.streaming:
            # Prefetching lanes hide the next-plane load: no bubble.
            bubble_s = np.where(
                (shmem > 0) & ~base["prefetch"],
                0.12 * np.maximum(tex_s, dram_s),
                0.0,
            )
        else:
            bubble_s = np.zeros(base["n"], _F8)

        return {
            "compute": compute_s,
            "dram": dram_s,
            "tex": tex_s,
            "shm": shm_s,
            "sync": sync_s,
            "latency": latency_s,
            "launch": launch_s,
            "bubble": bubble_s,
        }


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def _block_threads(block, perspective, tiled, halo, innermost) -> int:
    """Threads per block of one (block, perspective) pair
    (``tiling._threads_per_block``)."""
    if perspective == PERSPECTIVE_OUTPUT:
        return math.prod(block)
    # Input and mixed perspectives enlarge the block by the first
    # stage's halo; mixed only along the innermost tiled axis.
    total = 1
    for pos, axis in enumerate(tiled):
        lo, hi = halo[axis]
        extent = block[pos] if pos < len(block) else 1
        if perspective == PERSPECTIVE_INPUT:
            total *= extent + (lo + hi)
        else:
            total *= extent + ((lo + hi) if axis == innermost else 0)
    return total


def externally_visible(ir: ProgramIR, plan: KernelPlan) -> frozenset:
    """Memoized :func:`_externally_visible` — reads only the kernel set,
    so every geometry/unroll/register variant shares one computation."""
    return _ir_memoized(
        "ext_visible",
        ir,
        (plan.kernel_names,),
        lambda: frozenset(_externally_visible(ir, plan)),
    )


def intermediate_arrays(ir: ProgramIR, plan: KernelPlan) -> frozenset:
    """Memoized :func:`_intermediate_arrays` (stage-structure keyed)."""
    return _ir_memoized(
        "inter_arrays",
        ir,
        (plan.kernel_names, plan.time_tile, plan.fold_groups),
        lambda: frozenset(
            _intermediate_arrays(ir, plan, tuple(build_stages(ir, plan)))
        ),
    )


def _externally_visible(ir: ProgramIR, plan: KernelPlan) -> set:
    """Arrays whose values must leave the launch: program outputs plus
    anything read by kernels outside this plan."""
    inside = set(plan.kernel_names)
    visible = set(ir.copyout)
    for kernel in ir.kernels:
        if kernel.name in inside:
            continue
        visible.update(kernel.arrays_read())
    # Iterative programs feed the ping-pong output back as next input;
    # other in-launch temporaries are recomputed every application.
    if ir.is_iterative:
        for kernel in ir.kernels:
            try:
                written, read = pingpong_pair(ir, kernel)
            except ValueError:
                visible.update(kernel.arrays_written())
                continue
            visible.add(written)
            visible.add(read)
    return visible


def _consumed_name(ir, plan, stage, written_array: str) -> str:
    """Name the next stage reads the written value under (ping-pong)."""
    if plan.time_tile > 1:
        _written, read = pingpong_pair(ir, stage.instance)
        return read
    return written_array


def _intermediate_arrays(ir, plan, stages) -> set:
    """Arrays passed between fused stages inside this launch."""
    if plan.time_tile > 1:
        written, read = pingpong_pair(ir, stages[0].instance)
        return {written, read}
    produced: set = set()
    intermediates: set = set()
    for stage in stages:
        for array in stage.instance.arrays_read():
            if array in produced:
                intermediates.add(array)
        produced.update(stage.instance.arrays_written())
    return intermediates


def _unique_bytes(
    ir: ProgramIR, array: str, esize: int, plan: Optional[KernelPlan] = None
) -> float:
    info = ir.array_map.get(array)
    if info is None and plan is not None:
        # Folded virtual arrays take their members' extent.
        for group in plan.fold_groups:
            if group.folded_name == array:
                info = ir.array_map.get(group.members[0])
                break
    if info is None:
        return 0.0
    return float(info.elements * esize)


def _inplane_distinct_reads(ir, stage, array, stream_axis: int) -> int:
    """Distinct read offsets with the stream component dropped."""
    return len(
        {
            o[:stream_axis] + o[stream_axis + 1:]
            for o in _read_offsets(ir, stage.instance, array)
        }
    )


def _center_plane_reads(ir, plan, stage, array) -> int:
    """Distinct read offsets on the stream-center plane."""
    axis = plan.stream_axis
    return sum(
        1
        for o in _read_offsets(ir, stage.instance, array)
        if o[axis] in (None, 0)
    )


def _inter_shm_positive(spec: dict) -> bool:
    """Whether an inter-stage spec has ``shm_planes > 0`` — structural.

    Streaming specs carry constant plane counts; the non-streaming
    ``depth0`` shape is ``tile[0] + expand + halo >= 1`` for every lane.
    """
    if spec["shm"] == "const":
        return spec["shm_const"] > 0
    return spec["shm"] == "depth0"


def _consumer_read_counts(ir, instance, array, plan) -> Tuple[int, int]:
    from ..codegen.tiling import _consumer_read_counts as impl

    return impl(ir, instance, array, plan)


def _gmem_coalescing_const(ir, instance, array) -> float:
    offsets = distinct_read_offsets(ir, instance, array)
    if not offsets:
        return 1.0
    x_axis = ir.ndim - 1
    misaligned = sum(
        1 for o in offsets if o[x_axis] not in (None, 0) and (o[x_axis] % 4) != 0
    )
    return 1.0 + 0.125 * (misaligned / len(offsets))


def _dram_read_vec(loaded, fill, unique_bytes, miss_intra, miss_inter):
    """DRAM read bytes: first touches of unique data, plus inter-block
    (``fill - unique``) and same-block (``loaded - fill``) re-touches
    that miss L2 (``miss_* = 1 - p_*``)."""
    unique = np.minimum(unique_bytes, fill)
    inter_excess = np.maximum(0.0, fill - unique)
    intra_excess = np.maximum(0.0, loaded - fill)
    return unique + inter_excess * miss_inter + intra_excess * miss_intra


def first_rungs(
    demands: np.ndarray, levels: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, rungs)`` per lane: the index into ``levels`` of the
    first level covering the lane's demand (-1 if none does) and that
    level (0 if none)."""
    positions = _column(len(demands), -1, _I8)
    rungs = np.zeros(len(demands), dtype=_I8)
    for j, level in enumerate(levels):
        fresh = (positions < 0) & (demands <= level)
        positions[fresh] = j
        rungs[fresh] = level
    return positions, rungs


def _take(value, lanes: np.ndarray):
    """``value`` (an array, or a dict of them) restricted to ``lanes``
    along its last (lane) axis; other values pass through."""
    if isinstance(value, np.ndarray):
        return value[..., lanes]
    if isinstance(value, dict):
        return {key: _take(item, lanes) for key, item in value.items()}
    return value


def _product(factors: List[np.ndarray], n: int) -> np.ndarray:
    """Lane-wise product of ``int64`` columns (ones for no factor)."""
    if not factors:
        return _column(n, 1, _I8)
    total = factors[0]
    for factor in factors[1:]:
        total = total * factor
    return total


def _column(n: int, value, dtype) -> np.ndarray:
    """A constant lane column (``np.full`` without its dispatch cost)."""
    column = np.empty(n, dtype)
    column.fill(value)
    return column


def _acc(terms: List[np.ndarray], n: int) -> np.ndarray:
    """Sequential f8 accumulation in scalar emission order."""
    total = np.zeros(n, _F8)
    for term in terms:
        total = total + term
    return total


# ---------------------------------------------------------------------------
# structure cache + public API
# ---------------------------------------------------------------------------


_STRUCTURES = OwnerMemo()


def family_structure(ir: ProgramIR, plan: KernelPlan) -> FamilyStructure:
    """The :class:`FamilyStructure` for a plan's family, memoized per IR."""
    return _STRUCTURES.get(
        ir, plan_structural_key(plan), "structure",
        lambda: FamilyStructure(ir, plan),
    )
