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
compiled into tables with one row per model term, and
:meth:`FamilyStructure.price` then evaluates the whole model as NumPy
array operations over ``(term x lane)`` arrays — a few operations per
kind of term, whatever the number of stages, arrays and reads.  A structure holds
nothing a lane knob decides: a stage-2 batch of prefetch, perspective
and chunk variants is one family, priced in one pass.

The model's original plan-at-a-time form is kept as a test oracle
(``tests/gpu/reference_model.py``), and the lane model must match it bit
for bit (the evaluation engine's winners must be byte-identical), so the
implementation follows that form's *exact* operation order:

* integer quantities (tiles, footprints, plane elements, register
  demand, shared bytes) are computed in ``int64`` — exact, and well
  below overflow for realistic grids;
* float accumulators (flops, tex/dram/shm bytes) add their term rows
  one at a time in the scalar emission order (:func:`_row_sum`, not a
  pairwise ``np.sum``), so every f8 rounding step matches;
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
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

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

    def __init__(self, device, lanes, compiled, occ, counters, timing):
        from ..lint.rules_plan import RL201, RL202, RL203

        self.device = device
        self.threads = lanes.threads
        self.blocks = lanes.blocks
        self.demand = lanes.demand
        self.compiled = compiled
        self.shmem = lanes.shmem
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
        #: rule, as ``classify_occupancy_context`` reads its refusal (None
        #: when the pass refused no lane)
        rule = occ["rule"]
        self.rule = None if rule is None else rule.tolist()
        self._codes = (RL201.code, RL202.code, RL203.code)
        self.lane_of: Optional[List[int]] = None
        self._rows: Optional[List[tuple]] = None
        self._results: Dict[int, SimulationResult] = {}
        self._rejects: Dict[int, Tuple[str, Dict[str, Any], str]] = {}

    @classmethod
    def unpriced(cls) -> "_LaneArrays":
        """A pass that priced no lane (its ``lane_of`` maps every
        submitted lane to -1)."""
        lanes = cls.__new__(cls)
        lanes.ok, lanes.time_s, lanes.tflops, lanes.rule = [], [], [], []
        lanes.lane_of = None
        return lanes

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
                occ["limiter"](), counters["flops"], counters["dram_read"],
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


#: Shared planes of a buffer that holds the whole tile depth (a lane
#: quantity: its geometry row's extent along the depth axis).
_TILE_PLANES = -1


class FamilyStructure:
    """All structural constants of one plan family's pricing model.

    Built once per (IR, :func:`plan_structural_key`) and cached by
    :func:`family_structure`; :meth:`demand` and :meth:`price` then run
    the whole model over lane arrays.

    The build compiles the model into small integer tables with one row
    per term, so that a pass evaluates each term kind as one
    ``(term x lane)`` array operation, whatever the number of stages,
    arrays and reads:

    * *geometry rows*: per axis, a stage's expansion plus a read halo,
      and which axes the row spans.  The first rows are each stage's
      computed points; the others are buffer planes (``_plane_*``) and
      read footprints (``_foot_*``, capped at the domain plus the halo);
    * *buffer rows*: one per buffered array (its candidates are the
      stages that read it), inter-stage buffer and intra-kernel staging
      buffer; a candidate is a plane row, shared planes (a count or
      :data:`_TILE_PLANES`) and register planes;
    * *point terms* (flops and the shared-memory terms that scale with a
      stage's points), *read terms* (buffered or global reads: texture,
      DRAM and buffered shared-memory traffic) and *live terms* (the L2
      working set), in the order the scalar model emits them;
    * *load rows*: the offset statistics of each directly read array
      (:func:`tiling.gmem_loads_per_point`), grouped per stage.

    The cache entry lives as long as its IR, so a structure must not
    reference the IR: everything pricing needs from it is captured at
    build time.
    """

    def __init__(self, ir: ProgramIR, proto: KernelPlan):
        self.key = plan_structural_key(proto)
        self.ndim = ndim = ir.ndim
        self.domain = ir.domain_shape()
        self.stages: Tuple[Stage, ...] = tuple(build_stages(ir, proto))
        self.streaming = proto.uses_streaming
        self.stream_axis = proto.stream_axis
        self.retime = proto.retime
        self.domain_points = math.prod(self.domain)
        axes = tuple(range(ndim))
        if self.streaming:
            self.tiled = tuple(a for a in axes if a != self.stream_axis)
            self.depth_axis = self.stream_axis
        else:
            self.tiled = axes
            self.depth_axis = 0
        self._planes: Dict[tuple, int] = {}
        for stage in self.stages:  # rows 0..S-1: the computed points
            self._plane_row(stage, None, axes)
        halos = [read_halos(ir, stage.instance) for stage in self.stages]
        self._compile_buffers(ir, proto, halos)
        self._compile_terms(ir, proto, halos)
        self._compile_registers(ir)
        self._freeze()

    def _plane_row(self, stage: Stage, halo, plane_axes) -> int:
        """The geometry row of ``stage`` widened by ``halo`` (None: no
        halo) over ``plane_axes``, added on first use."""
        key = (stage.index, halo, plane_axes)
        row = self._planes.get(key)
        if row is None:
            row = self._planes[key] = len(self._planes)
        return row

    def _widths(self, stage: Stage, halo) -> Tuple[int, ...]:
        """Per axis, what ``stage`` adds to a tile extent, halo included."""
        return tuple(
            sum(stage.expand[axis]) + (sum(halo[axis]) if halo else 0)
            for axis in range(self.ndim)
        )

    # -- buffer rows (mirror tiling._buffer_requirements and
    #    tiling._intermediate_specs) ------------------------------------

    def _compile_buffers(self, ir: ProgramIR, proto: KernelPlan,
                         halos: List[dict]) -> None:
        ndim, axis = self.ndim, self.stream_axis
        flat = tuple(a for a in range(ndim) if a != self.depth_axis)
        #: per buffer row: its (plane row, shared planes, register
        #: planes) candidates and its element size
        self._buffers: List[Tuple[list, int]] = []
        self.buffer_of: Dict[str, int] = {}  # array -> its buffer row
        self.buffered: Dict[str, bool] = {}
        fetched = 0
        for stage, stage_halos in zip(self.stages, halos):
            written = stage.instance.arrays_written()
            for array, halo in stage_halos.items():
                if array in written:
                    continue
                storage = proto.placement_of(array)
                buffered = True
                if storage == GMEM or storage == "constant":
                    shm, reg = 0, 0
                    buffered = False
                elif self.streaming:
                    lo, hi = halo[axis]
                    window = lo + hi + 1
                    if self.retime:
                        shm, reg = 1, 0
                    elif storage == "register":
                        shm, reg = 0, window
                    elif _plane_reads(ir, proto, stage, array)[2]:
                        shm, reg = 1, window - 1
                    else:
                        shm, reg = window, 0
                elif storage == "register":
                    shm, reg = 0, 1
                else:
                    shm, reg = _TILE_PLANES, 0
                candidate = (self._plane_row(stage, halo, flat), shm, reg)
                row = self.buffer_of.get(array)
                if row is None:
                    # Storage, hence buffered-ness, is uniform across an
                    # array's candidates (placements are plan-wide).
                    self.buffer_of[array] = len(self._buffers)
                    self.buffered[array] = buffered
                    self._buffers.append(([candidate], _esize(ir, array)))
                    # Prefetch stages every array it fetches from global
                    # memory: a GMEM-placed array buffers no plane.
                    fetched += storage != GMEM
                else:
                    self._buffers[row][0].append(candidate)
        self.staging_regs = max(fetched, 1)
        # Inter-stage buffers: (consumer stage, array) -> the served read
        # counts, register planes and whether it has shared planes.
        self._inter: Dict[Tuple[int, str], Tuple[int, int, int, bool]] = {}
        every = tuple(range(ndim))
        for stage, consumer in zip(self.stages[:-1], self.stages[1:]):
            consumer_halos = halos[consumer.index]
            if proto.time_tile > 1:
                _written, read = pingpong_pair(ir, stage.instance)
                produced = (read,) if read in consumer_halos else ()
            else:
                produced = stage.instance.arrays_written()
            for array in produced:
                halo = consumer_halos.get(array)
                if halo is None:
                    continue
                distinct, center = _consumer_read_counts(
                    ir, consumer.instance, array, proto
                )
                if self.streaming:
                    lo, hi = halo[axis]
                    window = lo + hi + 1
                    if self.retime:
                        shm, reg = 1, 0
                    elif _plane_reads(ir, proto, consumer, array)[2]:
                        shm, reg = 1, window - 1
                    else:
                        shm, reg = window, 0
                    row = self._plane_row(consumer, halo, flat)
                else:
                    shm, reg = (0, 0) if self.retime else (_TILE_PLANES, 0)
                    row = self._plane_row(consumer, halo, every)
                self._buffers.append(([(row, shm, reg)], _esize(ir, array)))
                self._inter[consumer.index, array] = (
                    center, distinct, reg, shm != 0
                )
        # Intra-kernel staging of arrays a stage writes and reads back.
        for stage, stage_halos in zip(self.stages, halos):
            for array in stage.instance.arrays_written():
                halo = stage_halos.get(array)
                if halo is None:
                    continue
                if self.streaming:
                    lo, hi = halo[axis]
                    depth = lo + hi + 1
                else:
                    depth = _TILE_PLANES
                self._buffers.append(
                    ([(self._plane_row(stage, halo, flat), depth, 0)],
                     _esize(ir, array))
                )

    # -- counter terms (reference_model._count) ---------------------------

    def _compile_terms(self, ir: ProgramIR, proto: KernelPlan,
                       halos: List[dict]) -> None:
        ndim = self.ndim
        intermediates = intermediate_arrays(ir, proto)
        visible = externally_visible(ir, proto)
        points: List[Tuple[int, int]] = []  # shm point terms: (coef, stage)
        reads: List[tuple] = []
        #: the shared-memory terms in emission order: a point term (>= 0)
        #: or a buffered read (-1 - its index among the buffered reads)
        shm_order: List[int] = []
        buffered_reads = 0
        self._loads: Dict[Tuple[int, str], int] = {}
        self._load_rows: List[tuple] = []
        self.useful = 0.0
        self.dram_write = 0.0
        pts_span = [0] * ndim
        foot_span = [0] * ndim
        pts_factors = [len(self.stages)]
        foot_factors = [1]
        for stage, stage_halos in zip(self.stages, halos):
            sidx = stage.index
            instance = stage.instance
            summary = access_summary(ir, instance)
            written = instance.arrays_written()
            flops_pp = stage.flops_per_point
            self.useful += flops_pp * self.domain_points
            pts_factors.append(flops_pp)
            expand = self._widths(stage, None)
            for axis in range(ndim):
                pts_span[axis] = max(pts_span[axis], expand[axis])
                foot_span[axis] = max(foot_span[axis], expand[axis])
            for halo in stage_halos.values():
                for axis, width in enumerate(self._widths(stage, halo)):
                    foot_span[axis] = max(foot_span[axis], width)
            # Iterating the memoized summary dict itself keeps the term
            # order identical to the scalar loop's.
            for array, info in summary.items():
                if info.reads_total == 0:
                    continue
                esize = _esize(ir, array)
                if array in written:
                    coef = info.reads_distinct * esize
                elif sidx > 0 and array in intermediates:
                    inter = self._inter.get((sidx, array))
                    if inter is None:
                        continue  # no term at all
                    center, distinct, reg, _shm = inter
                    served = center if (reg > 0 or self.retime) else distinct
                    coef = served * esize
                else:
                    # Every read array has a halo: its footprint row.  A
                    # lower-rank array spans only the axes it indexes.
                    halo = stage_halos[array]
                    rank = ir.array_map.get(array)
                    if rank is None or rank.ndim >= ndim:
                        spanned = (True,) * ndim
                    else:
                        spanned = tuple(
                            _array_indexes_axis(ir, instance, array, axis)
                            for axis in range(ndim)
                        )
                    foot = (
                        self._widths(stage, halo),
                        tuple(
                            self.domain[axis] + sum(halo[axis])
                            for axis in range(ndim)
                        ),
                        spanned,
                    )
                    unique = _unique_bytes(ir, array, esize, proto)
                    foot_factors.append(esize)
                    if self.buffered.get(array, False):
                        inplane = center = 0
                        if self.streaming:
                            inplane, center, _star = _plane_reads(
                                ir, proto, stage, array
                            )
                        pts_factors.append(
                            2 + max(inplane, center, info.reads_distinct)
                        )
                        lo, hi = stage.halo[ndim - 1]
                        reads.append((
                            foot, sidx, esize, unique, False,
                            self.buffer_of[array], lo + hi, 0.0,
                            (inplane, center, info.reads_distinct),
                        ))
                        shm_order.append(-1 - buffered_reads)
                        buffered_reads += 1
                    else:
                        reads.append((
                            foot, sidx, esize, unique, True,
                            self._load_row(ir, instance, array), 0,
                            _direct_reads(ir, instance, array)[3],
                            None,
                        ))
                    continue
                pts_factors.append(coef)
                shm_order.append(len(points))
                points.append((coef, sidx))
            for array in written:
                esize = _esize(ir, array)
                writes = summary[array].writes if array in summary else 1
                if not stage.is_last and array in intermediates:
                    inter = self._inter.get(
                        (sidx + 1, _consumed_name(ir, proto, stage, array))
                    )
                    if inter is not None and not inter[3]:
                        continue  # buffered in registers: no traffic term
                elif array in visible:
                    pts_factors.append(writes * esize)
                    self.dram_write += float(
                        writes * self.domain_points * esize
                    )
                    continue
                pts_factors.append(writes * esize)
                shm_order.append(len(points))
                points.append((writes * esize, sidx))
        # Bounds for _check_int64: per axis, the most a stage adds to a
        # tile for its points and for a read footprint, and the largest
        # integer factor the counters multiply points or footprints by.
        self._pts_span = pts_span
        self._foot_span = foot_span
        self._factors = (max(pts_factors), max(foot_factors))
        self._points = points
        self._reads = reads
        self._shm_order = shm_order

    def _load_row(self, ir: ProgramIR, instance: StencilInstance,
                  array: str) -> int:
        """The load row of ``array`` read directly by ``instance``
        (:func:`_direct_reads`), added on first use."""
        key = (id(instance), array)
        row = self._loads.get(key)
        if row is None:
            row = self._loads[key] = len(self._load_rows)
            self._load_rows.append(_direct_reads(ir, instance, array)[:3])
        return row

    # -- register-model structural constants (mirrors registers.py) ------

    def _compile_registers(self, ir: ProgramIR) -> None:
        self.expr_regs = max(
            expression_registers(s.instance) for s in self.stages
        )
        self._base_regs = BASE_REGISTERS + self.expr_regs
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
        # Blocked-unroll live loads: the load rows of each stage's
        # directly read (unbuffered) arrays.
        self._stage_loads = tuple(
            tuple(
                self._load_row(ir, stage.instance, array)
                for array in stage.instance.arrays_read()
                if not self.buffered.get(array, False)
            )
            for stage in self.stages
        )
        # The first stage's unbuffered arrays set the L2 working set.
        first = self.stages[0].instance
        self._live = tuple(
            (self.buffer_of[array], _esize(ir, array))
            for array in first.arrays_read()
            if array in self.buffer_of and not self.buffered[array]
        )

    def _freeze(self) -> None:
        """Swap the compiled term lists for the pass's index tables.

        The tables are a function of the lists alone, so structures of
        the same kernel and plan shape (another job's IR, another
        device) share one set of arrays (:func:`_frozen_tables`).
        """
        stages = self.stages
        ndim = self.ndim
        rows = [
            (self._widths(stages[s], halo),
             tuple(a in axes for a in range(ndim)))
            for s, halo, axes in self._planes  # keys in row order
        ]
        # Keep the geometry rows a term reads: the points, the candidates.
        buffers = self._buffers
        used = sorted(
            set(range(len(stages)))
            | {row for cands, _ in buffers for row, _, _ in cands}
        )
        renumber = {row: new for new, row in enumerate(used)}
        planes = tuple(rows[row] for row in used)
        buffers = tuple(
            (tuple((renumber[row], shm, reg) for row, shm, reg in cands), size)
            for cands, size in buffers
        )
        description = _Description(
            ndim=ndim,
            stages=len(stages),
            streaming=self.streaming,
            retime=self.retime,
            tiled=self.tiled,
            domain=self.domain,
            planes=planes,
            buffers=buffers,
            points=tuple(
                (s.flops_per_point, s.index) for s in stages
            ) + tuple(self._points),
            shm_points=len(self._points),
            shm_order=tuple(self._shm_order),
            reads=tuple(self._reads),
            loads=tuple(self._load_rows),
            stage_loads=self._stage_loads,
            live=self._live,
            pts_span=tuple(self._pts_span),
            foot_span=tuple(self._foot_span),
            factors=self._factors,
        )
        for name in ("_planes", "_buffers", "_inter", "buffer_of", "buffered",
                     "_points", "_reads", "_load_rows", "_loads",
                     "_stage_loads", "_live", "_pts_span", "_foot_span",
                     "_factors"):
            del self.__dict__[name]
        # (the tables replace the compiled _shm_order)
        self.__dict__.update(_frozen_tables(description))

    # ------------------------------------------------------------------
    # lane-array computation
    # ------------------------------------------------------------------

    def _lanes(self, knobs: LaneKnobs) -> "_Lanes":
        """The register-independent prefix of every lane: launch
        geometry, buffer winners, shared memory and register demand.

        Replays ``tiling._launch_geometry`` over the lane axis: the
        domain, tiled-axis set and first-stage halo are structural
        constants, so only the knobs are gathered per lane, from tables
        over the distinct block, unroll and perspective values.
        Everything is exact ``int64`` arithmetic (products and
        ``-(-a // b)`` ceil-division match the scalar reference bit for
        bit).
        """
        n = len(knobs)
        lanes = _Lanes()
        lanes.n = n
        blocks_tab, unrolls_tab, tunroll_tab, ilp_tab, threads_tab, output_tab = (
            _knob_tables(
                knobs.blocks, knobs.unrolls, knobs.perspectives, self.ndim,
                self.tiled, self.stages[0].halo,
            )
        )
        block_ix, unroll_ix = knobs.block_ix, knobs.unroll_ix
        lanes.unroll = unroll = unrolls_tab.take(unroll_ix, 1)
        lanes.tile = tile = blocks_tab.take(block_ix, 1) * unroll
        lanes.sweep = None
        blocks = np.multiply.reduce(
            -(-self._tiled_domain // tile.take(self._tiled_ix, 0)), axis=0
        )
        if self.streaming:
            chunks = knobs.chunks
            lanes.sweep = tile[self.stream_axis] = (
                -(-self.domain[self.stream_axis] // chunks)
            )
            blocks = blocks * chunks
        lanes.blocks = blocks
        lanes.threads = threads_tab[knobs.persp_ix, block_ix]
        lanes.output = output_tab.take(knobs.persp_ix)
        lanes.prefetch = prefetch = knobs.prefetch
        lanes.ublocked = knobs.ublocked
        lanes.maxreg = knobs.maxreg
        ilp = ilp_tab.take(unroll_ix, 1)
        lanes.ilp = np.where(prefetch, ilp[1], ilp[0])
        # Every geometry row at once: (row, axis, lane) extents.
        span = tile + self._plane_add
        plane = np.multiply.reduce(
            np.where(self._plane_mask, span, 1), axis=1
        )
        lanes.pts = plane[: len(self.stages)]
        lanes.foot = None
        if self._reads_count:
            lanes.foot = np.multiply.reduce(
                np.where(
                    self._foot_mask,
                    np.minimum(tile + self._foot_add, self._foot_cap),
                    1,
                ),
                axis=1,
            )
        # Buffer winners: per buffer row the candidate with the most
        # bytes, the first one on a tie.  This is the scalar
        # strict-greater scan, one candidate slot at a time over every
        # row and lane; a winner's shared planes, plane elements and
        # register planes ride along.  Shared planes are a lane quantity
        # only for whole-tile buffers.
        width, count = self._cand_width, len(self._buffer_size)
        shm = self._cand_shm
        if self._any_whole:
            whole = span[:, self.depth_axis].take(self._cand_row, 0)
            shm = np.where(self._cand_whole, whole, shm)
        shm = shm.reshape(width, count, shm.shape[-1])
        plane = plane.take(self._cand_row, 0).reshape(width, count, n)
        reg = self._cand_reg
        shm_w, plane_w, reg_w = shm[0], plane[0], reg[0]
        if width > 1:
            nbytes = shm * plane * self._cand_size + reg
            most = nbytes[0]
            for k in range(1, width):
                more = nbytes[k] > most
                most = np.where(more, nbytes[k], most)
                shm_w = np.where(more, shm[k], shm_w)
                plane_w = np.where(more, plane[k], plane_w)
                reg_w = np.where(more, reg[k], reg_w)
        lanes.shm_w, lanes.plane_w, lanes.reg_w = shm_w, plane_w, reg_w
        lanes.shmem = (shm_w * plane_w * self._buffer_size).sum(axis=0)
        # Register demand (registers.register_demand).
        tunroll = tunroll_tab.take(unroll_ix)
        demand = (
            (reg_w.sum(axis=0) + self.accumulators) * tunroll + self._base_regs
        )
        demand = demand + prefetch * self.staging_regs
        lanes.loads = None
        blocked = (tunroll > 1) & knobs.ublocked
        if blocked.any():
            # Blocked unrolling keeps each stage's direct loads live; a
            # plan with none adds the unroll bookkeeping alone.
            extra = 2 * (tunroll - 1)
            if self._load_groups is not None:
                lanes.loads = loads = self._loads_per_point(
                    unroll, knobs.ublocked
                )
                stage_loads = _row_sum(loads.take(self._load_groups, 0), axis=1)
                live = stage_loads.max(axis=0)
                extra = extra + (
                    live * tunroll.astype(_F8) * 0.5
                ).astype(_I8)
            demand = demand + np.where(blocked, extra, 0)
        lanes.demand = demand
        return lanes

    def _loads_per_point(self, unroll: np.ndarray,
                         ublocked: np.ndarray) -> np.ndarray:
        """Every load row's :func:`tiling.gmem_loads_per_point` per lane.

        Along an axis unrolled by ``u``, ``n`` offsets spanning ``s``
        cost ``min(u*n, s + u - 1)`` loads per ``u*n``; the per-axis
        ratios multiply in axis order, an axis with one offset as
        ``1.0``, as the scalar code skips it.
        """
        grouped = unroll * self._load_count
        ratio = np.minimum(grouped, unroll + self._load_span) / grouped
        ratio = np.where(self._load_active, ratio, 1.0)
        product = ratio[:, 0]
        for axis in range(1, self.ndim):
            product = product * ratio[:, axis]
        blocked = self._load_loads * np.maximum(product, 0.55)
        return np.where(ublocked, blocked, self._load_loads)

    # ------------------------------------------------------------------
    # public lane APIs
    # ------------------------------------------------------------------

    def demand(self, lanes) -> np.ndarray:
        """Register demand per lane (== ``register_demand`` per plan).

        ``lanes`` is a plan list or its :class:`LaneKnobs`.
        """
        return self._lanes(self._knobs(lanes)).demand

    def price(self, lanes, device: DeviceSpec = P100) -> Sequence[PricedLane]:
        """Price every lane; see :class:`PricedLane` for the contract.

        ``lanes`` is a plan list or its :class:`LaneKnobs`; the result
        is the pass's :class:`_LaneArrays`, a sequence with one
        :class:`PricedLane` per lane.
        """
        knobs = self._knobs(lanes)
        if not len(knobs):
            return []
        return self._priced(device, self._lanes(knobs))

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
        then the price of each lane at its chosen rung.  The lane prefix
        and the demand are computed once over all lanes; the lanes that
        spill at every rung are then dropped, and occupancy, counters
        and timing run on the compacted rest with the ``max_registers``
        axis set to each lane's rung — no plan object is copied.  When
        no lane is left, none of them runs.

        Returns ``(demands, positions, lanes)``: ``positions[i]`` is the
        index into ``levels`` of the first rung with ``demands[i] <=
        levels[positions[i]]`` (exactly ``levels.index(next(lv for lv in
        levels if demand <= lv))`` of a plan-by-plan walk), or ``-1`` when
        every rung spills.  ``lanes`` has one entry per submitted lane:
        the lane's price, or None for an all-spill lane, which is never
        priced.  Lanes whose ``skip`` entry is true get a demand and a
        rung but no price either (the certifier refused them).
        """
        prefix = self._lanes(self._knobs(lanes))
        demands = prefix.demand
        positions, rungs = first_rungs(demands, levels)
        wanted = positions >= 0
        if skip is not None:
            wanted = wanted & ~np.asarray(skip, dtype=bool)
        kept = wanted.nonzero()[0]
        n = prefix.n
        if len(kept) == n:
            lane_of = list(range(n))
        else:
            prefix = prefix.take(kept)
            rungs = rungs.take(kept)
            lane_of = _column(n, -1, _I8)
            lane_of[kept] = np.arange(len(kept))
            lane_of = lane_of.tolist()
        prefix.maxreg = rungs
        priced = self._priced(device, prefix)
        priced.lane_of = lane_of
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

    def _priced(self, device, lanes: "_Lanes") -> "_LaneArrays":
        """Count and price ``lanes`` (the pricing core).  A pass of no
        lane runs no model arithmetic."""
        n = lanes.n
        if n:
            _obs_counter("pricing.family_calls").add()
            _obs_counter("pricing.lanes").add(n)
        with _span("price_family", lanes=n):
            if not n:
                return _LaneArrays.unpriced()
            return self._price(device, lanes)

    def _price(self, device, lanes: "_Lanes") -> "_LaneArrays":
        compiled = np.minimum(lanes.demand, lanes.maxreg)
        occ = self._occupancy_lanes(device, lanes.threads, compiled, lanes.shmem)
        self._check_int64(lanes, occ["infeasible"])
        counters = self._counter_lanes(device, lanes, compiled, occ)
        timing = self._timing_lanes(device, lanes, counters, occ)
        return _LaneArrays(device, lanes, compiled, occ, counters, timing)

    def _check_int64(self, lanes: "_Lanes", infeasible: np.ndarray) -> None:
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
        # Both bounds at once: (points, footprint) rows.
        growth = np.minimum(lanes.tile, self._bound_cap) + self._bound_span
        bound = lanes.blocks.astype(_F8) * self._bound_factor
        for axis in range(self.ndim):
            bound = bound * growth[:, axis]
        over = bound >= _I8_LIMIT
        if over.any() and (over.any(axis=0) & ~infeasible).any():
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
        warps_pb = (threads + (warp - 1)) // warp  # ceil division
        granularity = device.register_granularity
        per_warp = (
            (regs * warp + (granularity - 1)) // granularity * granularity
        )
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
        bad_threads = (threads < 1) | (threads > device.max_threads_per_block)
        bad_shmem = shmem > device.shared_mem_per_block
        bad_regs = regs > device.max_registers_per_thread
        infeasible = bad_threads | bad_shmem | bad_regs | (blocks_psm < 1)

        def limiter():
            return np.where(
                blocks_psm == max_blocks,
                1,
                np.where(
                    lim_threads == blocks_psm,
                    0,
                    np.where(lim_regs == blocks_psm, 2, 3),
                ),
            )

        rule = None
        if infeasible.any():
            # The refused lanes' rule, as classify_occupancy_context
            # reads the scalar refusal: 0 = RL201 (shared memory), 1 =
            # RL202 (threads/blocks), 2 = RL203 (registers).
            by_limiter = limiter()
            by_limiter = np.where(
                by_limiter == 3, 0, np.where(by_limiter == 2, 2, 1)
            )
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
            "limiter": limiter,  # computed when a result is first built
            "rule": rule,  # None when no lane is refused
        }

    # -- counters over lanes (reference_model._count) ----------------

    def _counter_lanes(
        self,
        device: DeviceSpec,
        lanes: "_Lanes",
        compiled: np.ndarray,
        occ: dict,
    ) -> dict:
        """The counters of every lane.  Each float accumulator adds its
        term rows in the scalar model's emission order (:func:`_row_sum`)."""
        n = lanes.n
        blocks = lanes.blocks
        blocks_f = blocks.astype(_F8)
        pts = lanes.pts

        active_blocks = np.maximum(1, occ["blocks_safe"] * device.sms)
        live = _row_sum(
            (lanes.plane_w.take(self._live_row, 0) * self._live_esize)
            .astype(_F8)
        )
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

        stages = len(self.stages)
        points = (
            self._point_coef * pts.take(self._point_stage, 0) * blocks
        ).astype(_F8)
        flops = _row_sum(points[:stages])
        shm_terms = points[stages:]
        tex = dram_read = np.zeros(n, _F8)
        if self._reads_count:
            foot = lanes.foot
            fill = (foot * blocks * self._read_esize).astype(_F8)
            if self._has_gmem:
                loads = lanes.loads
                if loads is None:
                    loads = self._loads_per_point(lanes.unroll, lanes.ublocked)
                loaded = (
                    loads.take(self._read_load, 0)
                    * pts.take(self._read_stage, 0).astype(_F8)
                    * blocks_f
                    * self._read_esize
                )
                factor = self._read_gcoal
                if self._has_buffered:
                    loaded = np.where(self._read_gmem, loaded, fill)
                    coal = self._fill_coalescing(device, lanes)
                    factor = np.where(self._read_gmem, factor, coal)
            else:
                # Buffered: the footprint is loaded exactly once, so
                # there is no same-block re-touch.
                loaded = fill
                factor = self._fill_coalescing(device, lanes)
            tex = _row_sum(loaded * factor)
            unique = np.minimum(self._read_unique, fill)
            dread = unique + np.maximum(0.0, fill - unique) * miss_inter
            if self._has_gmem:
                dread = dread + np.maximum(0.0, loaded - fill) * miss_touch
            dram_read = _row_sum(dread)
            if self._has_buffered:
                buffered = self._buffered_shm(lanes, foot, blocks, blocks_f)
                shm_terms = np.concatenate((shm_terms, buffered)).take(
                    self._shm_order, 0
                )
        shm = _row_sum(shm_terms)

        spilled = np.maximum(0, lanes.demand - compiled)
        total_points = pts.sum(axis=0) * blocks
        spill = (
            spilled.astype(_F8)
            * device.spill_access_rate
            * 2
            * 8
            * total_points.astype(_F8)
        )
        tex = tex + spill

        per_step = 2.0 * stages
        steps = lanes.sweep if self.streaming else 1
        syncs = np.where(lanes.shmem > 0, (per_step * steps) * blocks_f, 0.0)

        return {
            "flops": flops,
            "useful": self.useful,
            "tex": tex,
            "dram_read": dram_read,
            "dram_write": _column(n, self.dram_write, _F8),
            "shm": shm,
            "spill": spill,
            "syncs": syncs,
        }

    def _fill_coalescing(self, device: DeviceSpec,
                         lanes: "_Lanes") -> np.ndarray:
        """The sector inflation of a buffered tile fill, per read term:
        a warp fills a tile row plus the halo, and output-perspective
        lanes pay two extra sectors for a row that starts at a halo
        offset."""
        sector = device.dram_transaction_bytes
        row_bytes = lanes.tile[self.ndim - 1] * 8
        # (integer ceil division: exact, like the scalar float ceil of
        # a quotient far below 2**53)
        sectors = (row_bytes + (self._coal_halo * 8 + sector - 1)) // sector
        sectors = sectors + (lanes.output & self._coal_wide) * 2
        denom = np.maximum(1, (row_bytes + (sector - 1)) // sector)
        return sectors / denom

    def _buffered_shm(self, lanes: "_Lanes", foot: np.ndarray,
                      blocks: np.ndarray, blocks_f: np.ndarray) -> np.ndarray:
        """Shared-memory bytes of each buffered read term."""
        pts = lanes.pts.take(self._buf_stage, 0)
        foot = foot.take(self._buf_pos, 0).astype(_F8)
        rows = self._buf_row
        shm_planes = lanes.shm_w.take(rows, 0)
        reg_planes = lanes.reg_w.take(rows, 0)
        fill_fraction = shm_planes / np.maximum(shm_planes + reg_planes, 1)
        stores = foot * fill_fraction * blocks_f
        if self.retime and self.streaming:
            served = self._buf_inplane * pts
        elif self.streaming:
            # Register-plane windows rotate through the shared center
            # plane: one load and one store per point.
            served = np.where(
                reg_planes > 0, self._buf_rotating, self._buf_distinct
            ) * pts
        else:
            served = self._buf_distinct * pts
        traffic = (stores + (served * blocks).astype(_F8)) * self._buf_esize
        # Pure register buffering moves no shared-memory byte.
        return np.where(shm_planes == 0, 0.0, traffic)

    # -- timing over lanes (reference_model._time) -------------------

    def _timing_lanes(
        self,
        device: DeviceSpec,
        lanes: "_Lanes",
        counters: dict,
        occ: dict,
    ) -> dict:
        occ_frac = occ["occ_frac"]
        capacity = np.maximum(1, occ["blocks_safe"] * device.sms)
        concurrency = np.minimum(1.0, lanes.blocks / capacity)

        # The (dram, tex, shm) paths as rows: each one's efficiency,
        # then its seconds.  Shared memory saturates at half DRAM's
        # occupancy.
        paths = _path_constants(device)
        eff = paths[0] * np.minimum(1.0, occ_frac / paths[1]) * concurrency
        dram_bytes = (
            counters["dram_read"] + counters["dram_write"]
        ) + counters["spill"]
        speed = paths[2] * np.maximum(eff, 1e-9)
        dram_s = dram_bytes / speed[0]
        tex_s = counters["tex"] / speed[1]
        shm_s = counters["shm"] / speed[2]
        busy = np.maximum(concurrency, 1e-9)
        compute_k = device.peak_gflops * 1e9 * device.sustained_fraction
        compute_s = counters["flops"] / (compute_k * busy)

        thread_ops = counters["flops"] + 0.5 * (
            counters["shm"] / 8.0 + counters["tex"] / 8.0
        )
        warp_insts = thread_ops / device.warp_size
        covering = np.maximum(
            1.0, occ["warps"] * lanes.ilp / device.latency_cover_warps
        )
        stall = device.arith_latency_cycles / covering
        cycles = warp_insts * np.maximum(1.0, stall)
        rate = device.sms * device.warp_schedulers * device.clock_ghz * 1e9
        latency_s = cycles / (rate * busy)

        # (no sync costs exactly 0.0: capacity >= 1)
        sync_s = counters["syncs"] / capacity * device.sync_cost_ns * 1e-9
        launch_s = device.launch_overhead_us * 1e-6

        if self.streaming:
            # Prefetching lanes hide the next-plane load: no bubble.
            bubble_s = np.where(
                (lanes.shmem > 0) & ~lanes.prefetch,
                0.12 * np.maximum(tex_s, dram_s),
                0.0,
            )
        else:
            bubble_s = np.zeros(lanes.n, _F8)

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


class _Lanes:
    """The per-lane arrays of one pass (the lane axis last), as
    :meth:`FamilyStructure._lanes` computes them.  ``loads`` is None
    until a term needs them.  An array whose lane axis has length 1
    holds one value for every lane: ``shm_w`` and ``reg_w`` when no
    buffer row scans a second candidate and none is a whole tile."""

    __slots__ = (
        "n", "tile", "unroll", "blocks", "threads", "output", "prefetch",
        "ublocked", "maxreg", "sweep", "ilp", "pts", "foot", "shm_w",
        "reg_w", "plane_w", "shmem", "demand", "loads",
    )

    def take(self, kept: np.ndarray) -> "_Lanes":
        """These lanes restricted to ``kept``: one take per array."""
        sub = _Lanes()
        sub.n = len(kept)
        for name in _Lanes.__slots__[1:]:
            value = getattr(self, name, None)
            if value is not None and value.shape[-1] == self.n:
                value = value.take(kept, -1)
            setattr(sub, name, value)
        return sub


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


#: Offset statistics of a kernel's reads, kept with the kernel (no span
#: or counter: they are cheap, and structures of every plan shape of the
#: kernel ask for them).
_READ_FACTS = OwnerMemo()


def _plane_reads(ir, proto: KernelPlan, stage: Stage, array: str) -> tuple:
    """``(in-plane distinct reads, center-plane reads, star)`` of
    ``array`` in ``stage``'s kernel along ``proto``'s stream axis;
    ``star`` is :func:`tiling.is_star_along`."""
    axis = proto.stream_axis
    return _READ_FACTS.get(
        stage.instance, ("planes", array, axis), "planes",
        lambda: (
            _inplane_distinct_reads(ir, stage, array, axis),
            _center_plane_reads(ir, proto, stage, array),
            is_star_along(ir, stage.instance, array, axis),
        ),
    )


def _direct_reads(ir, instance: StencilInstance, array: str) -> tuple:
    """``(loads, counts, spans, coalescing)`` of ``array`` read directly
    by ``instance``: its distinct loads, per axis the offset count and
    span (``1, 1`` for an axis with one offset, which divides out), and
    the sector inflation of its misaligned x offsets."""

    def compute():
        offsets = distinct_read_offsets(ir, instance, array)
        counts, spans = [], []
        for axis in range(ir.ndim):
            axis_offsets = {o[axis] for o in offsets if o[axis] is not None}
            if len(axis_offsets) <= 1:
                counts.append(1)
                spans.append(1)
            else:
                counts.append(len(axis_offsets))
                spans.append(max(axis_offsets) - min(axis_offsets) + 1)
        return (
            float(len(offsets)), tuple(counts), tuple(spans),
            _gmem_coalescing_const(ir, instance, array),
        )

    return _READ_FACTS.get(instance, ("direct", array, ir.ndim), "direct",
                           compute)


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


def first_rungs(
    demands: np.ndarray, levels: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, rungs)`` per lane: the index into ``levels`` of the
    first level covering the lane's demand (-1 if none does) and that
    level (0 if none)."""
    table = np.asarray(levels, dtype=_I8)
    if not len(table):
        return _column(len(demands), -1, _I8), np.zeros(len(demands), _I8)
    fits = demands <= table[:, None]
    first = fits.argmax(axis=0)
    covered = fits.any(axis=0)
    positions = np.where(covered, first, -1)
    rungs = np.where(covered, table.take(first), 0)
    return positions, rungs


def _column(n: int, value, dtype) -> np.ndarray:
    """A constant lane column (``np.full`` without its dispatch cost)."""
    column = np.empty(n, dtype)
    column.fill(value)
    return column


class _Description(NamedTuple):
    """A structure's compiled terms, as plain tuples (see
    :class:`FamilyStructure`): the whole input of :func:`_frozen_tables`."""

    ndim: int
    stages: int
    streaming: bool
    retime: bool
    tiled: Tuple[int, ...]
    domain: Tuple[int, ...]
    planes: tuple  # per geometry row: (widths, plane mask)
    buffers: tuple  # per buffer row: ((plane row, planes, regs), ...), size
    points: tuple  # (coef, stage): the stages' flops, then shm terms
    shm_points: int
    shm_order: tuple
    reads: tuple
    loads: tuple  # per load row: (loads, counts, spans)
    stage_loads: tuple
    live: tuple  # (buffer row, element size)
    pts_span: tuple
    foot_span: tuple
    factors: tuple  # (points, footprint) integer factors


@lru_cache(maxsize=512)
def _frozen_tables(d: _Description) -> Dict[str, Any]:
    """The index tables of a pass, by attribute name: one array per kind
    of term, its columns as views, all read-only."""
    ndim = d.ndim
    t: Dict[str, Any] = {}
    planes = _table(d.planes, (len(d.planes), 2, ndim, 1))
    t["_plane_add"] = planes[:, 0]
    t["_plane_mask"] = planes[:, 1].astype(bool)
    # Buffer candidates, slot-major: slot ``k`` of every buffer row,
    # then slot ``k + 1``.  A row with fewer candidates pads its last
    # slots with one that moves no byte and has -1 register planes, so
    # it never has the most bytes.
    count = len(d.buffers)
    width = t["_cand_width"] = max((len(c) for c, _ in d.buffers), default=1)
    pad = (0, False, 0, -1, 0)
    rows = [
        [(row, planes == _TILE_PLANES, max(planes, 0), regs, size)
         for row, planes, regs in cands] + [pad] * (width - len(cands))
        for cands, size in d.buffers
    ]
    cands = _table([row[k] for k in range(width) for row in rows], (-1, 5))
    t["_cand_row"] = cands[:, 0]
    t["_cand_whole"] = cands[:, 1:2].astype(bool)
    t["_cand_shm"] = cands[:, 2:3]
    t["_cand_reg"] = cands[:, 3].reshape(width, count, 1)
    t["_cand_size"] = cands[:, 4].reshape(width, count, 1)
    t["_any_whole"] = bool(cands[:, 1].any())
    t["_buffer_size"] = _table([s for _, s in d.buffers], (count, 1))
    # Point terms: each stage's flops, then the shared-memory ones.
    points = _table(d.points, (len(d.points), 2))
    t["_point_coef"] = points[:, :1]
    t["_point_stage"] = points[:, 1]
    t["_shm_order"] = None  # the point terms, in order
    if any(term < 0 for term in d.shm_order):
        t["_shm_order"] = _table(
            [term if term >= 0 else d.shm_points - 1 - term
             for term in d.shm_order],
            (len(d.shm_order),),
        )
    _read_tables(d, t)
    # Load rows, plus one of no load that pads the stage groups.
    loads = d.loads + ((0.0, (1,) * ndim, (1,) * ndim),)
    count = len(loads)
    t["_load_loads"] = _table([r[0] for r in loads], (count, 1), _F8)
    table = _table(
        [
            (counts, tuple(s - 1 for s in spans), tuple(c > 1 for c in counts))
            for _, counts, spans in loads
        ],
        (count, 3, ndim, 1),
    )
    t["_load_count"] = table[:, 0]
    t["_load_span"] = table[:, 1]
    t["_load_active"] = table[:, 2].astype(bool)
    depth = max(map(len, d.stage_loads), default=0)
    t["_load_groups"] = None
    if depth:
        t["_load_groups"] = _table(
            [group + (count - 1,) * (depth - len(group))
             for group in d.stage_loads],
            (d.stages, depth),
        )
    live = _table(d.live, (len(d.live), 2))
    t["_live_row"] = live[:, 0]
    t["_live_esize"] = live[:, 1:]
    t["_bound_span"] = _table((d.pts_span, d.foot_span), (2, ndim, 1))
    t["_bound_cap"] = _table(((_I8_MAX,) * ndim, d.domain), (2, ndim, 1))
    t["_bound_factor"] = _table(d.factors, (2, 1))
    domain = _table(d.domain, (ndim, 1))
    t["_tiled_ix"] = tiled = _table(d.tiled, (len(d.tiled),))
    t["_tiled_domain"] = domain.take(tiled, 0)
    # Structures of every job and device share these arrays.
    for value in t.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return t


def _read_tables(d: _Description, t: Dict[str, Any]) -> None:
    """The read-term tables (see :meth:`FamilyStructure._counter_lanes`)."""
    ndim = d.ndim
    reads = d.reads
    count = t["_reads_count"] = len(reads)
    t["_has_gmem"] = any(r[4] for r in reads)
    t["_has_buffered"] = has_buffered = any(not r[4] for r in reads)
    if not count:
        return
    foot = _table([r[0] for r in reads], (count, 3, ndim, 1))
    t["_foot_add"] = foot[:, 0]
    t["_foot_cap"] = foot[:, 1]
    t["_foot_mask"] = foot[:, 2].astype(bool)
    nothing = len(d.loads)  # the row of no load
    ints = _table(
        [(r[1], r[2], r[4], r[5] if r[4] else nothing) for r in reads],
        (count, 4),
    )
    t["_read_stage"] = ints[:, 0]
    t["_read_esize"] = ints[:, 1:2]
    t["_read_gmem"] = ints[:, 2:3].astype(bool)
    t["_read_load"] = ints[:, 3]
    floats = _table([(r[3], r[7]) for r in reads], (count, 2), _F8)
    t["_read_unique"] = floats[:, :1]
    t["_read_gcoal"] = floats[:, 1:]
    if not has_buffered:
        return
    # Fill coalescing depends on the stage's x halo (a direct read's
    # row is never read).
    t["_coal_halo"] = halo = _table(
        [0 if r[4] else r[6] for r in reads], (count, 1)
    )
    t["_coal_wide"] = halo > 0
    table = _table(
        [(i, r[5], r[1], r[2], r[8][0], r[8][1] + 2, r[8][2])
         for i, r in enumerate(reads) if not r[4]],
        (-1, 7),
    )
    t["_buf_pos"] = table[:, 0]
    t["_buf_row"] = table[:, 1]
    t["_buf_stage"] = table[:, 2]
    t["_buf_esize"] = table[:, 3:4]
    t["_buf_inplane"] = table[:, 4:5]
    t["_buf_rotating"] = table[:, 5:6]
    t["_buf_distinct"] = table[:, 6:7]


_PATHS: Dict[int, tuple] = {}


def _path_constants(device: DeviceSpec) -> np.ndarray:
    """Per memory path (dram, tex, shm rows): the sustained fraction,
    the saturating occupancy and the bandwidth in bytes/s (kept per
    device object, which the entry holds, so its id stays its own)."""
    entry = _PATHS.get(id(device))
    if entry is None or entry[0] is not device:
        if len(_PATHS) > 64:
            _PATHS.clear()
        sustained = device.sustained_fraction
        table = np.array([
            [sustained, device.tex_sustained_fraction, sustained],
            [
                device.dram_saturation_occupancy,
                device.tex_saturation_occupancy,
                device.dram_saturation_occupancy / 2,
            ],
            [
                device.dram_bw_gbs * 1e9,
                device.tex_bw_gbs * 1e9,
                device.shm_bw_gbs * 1e9,
            ],
        ]).reshape(3, 3, 1)
        table.flags.writeable = False
        entry = _PATHS[id(device)] = (device, table)
    return entry[1]


def _row_sum(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """``rows`` summed over ``axis`` one term at a time, in term order.

    The float accumulators must round as the scalar model's, which adds
    its terms in emission order.  ``np.sum`` does not: it sums a
    contiguous axis pairwise (one lane lays its terms out contiguously),
    so past 8 terms a one-lane pass would round differently from the
    same lane priced in a family.  ``add.accumulate`` always adds in
    order.  It starts from the first term rather than from ``0.0``,
    which is the same sum because no term is ``-0.0``.
    """
    if not rows.shape[axis]:
        return np.zeros(rows.shape[:axis] + rows.shape[axis + 1:], _F8)
    return np.add.accumulate(rows, axis=axis).take(-1, axis)


def _table(values, shape: tuple, dtype=_I8) -> np.ndarray:
    """A compiled term table: ``values`` as ``dtype``, in ``shape``."""
    return np.asarray(values, dtype=dtype).reshape(shape)


def _esize(ir: ProgramIR, array: str) -> int:
    """Element size of ``array`` (a virtual array holds doubles)."""
    info = ir.array_map.get(array)
    return sizeof(info.dtype) if info is not None else 8


@lru_cache(maxsize=256)
def _knob_tables(blocks, unrolls, perspectives, ndim, tiled, halo) -> tuple:
    """Per distinct knob value, what a lane gathers: block extents and
    unroll factors per axis (1 where a tuple is short, and the block on
    the stream axis), total unroll, ILP without and with prefetching,
    threads per (perspective, block) and whether a perspective is the
    output one.  Grids of one search space share these tables."""
    block_tab = np.ones((ndim, len(blocks)), _I8)
    for pos, axis in enumerate(tiled):
        block_tab[axis] = [b[pos] if pos < len(b) else 1 for b in blocks]
    unroll_tab = _table(
        [[u[axis] if axis < len(u) else 1 for u in unrolls]
         for axis in range(ndim)],
        (ndim, len(unrolls)),
    )
    # exact int products of the full tuples (may exceed the tiled axis
    # count; extra entries still count, as in the scalar code)
    tunroll = [math.prod(u) for u in unrolls]
    # math.log2 per distinct unroll: identical libm path to the scalar
    # code (np.log2 could round differently on exotic platforms).
    ilp = [1.0 + 0.4 * math.log2(max(1, t)) for t in tunroll]
    ilp_tab = _table([ilp, [value + 0.3 for value in ilp]],
                     (2, len(unrolls)), _F8)
    innermost = tiled[-1] if tiled else ndim - 1
    threads_tab = _table(
        [[_block_threads(b, p, tiled, halo, innermost) for b in blocks]
         for p in perspectives],
        (len(perspectives), len(blocks)),
    )
    output_tab = np.asarray([p == PERSPECTIVE_OUTPUT for p in perspectives])
    tables = (block_tab, unroll_tab, _table(tunroll, (len(unrolls),)),
              ilp_tab, threads_tab, output_tab)
    for table in tables:
        table.flags.writeable = False
    return tables


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
