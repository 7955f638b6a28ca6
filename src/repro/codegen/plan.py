"""Kernel plans: the configuration space of generated GPU code.

A :class:`KernelPlan` captures every decision ARTEMIS makes when lowering
one kernel launch: which stencil instances are fused into it, the thread
block geometry, the tiling/streaming scheme, unrolling, prefetching,
per-array storage placements, retiming, folding, and the register budget.
Plans are immutable values; the autotuner enumerates them, the simulator
prices them, the CUDA emitter renders them, and the functional executor
validates them.

Axis convention: tuples indexed by *program axis*, outermost first (the
DSL's ``iterator k, j, i`` gives axis 0 = k, 1 = j, 2 = i).  Only the
CUDA emitter converts to CUDA's x-fastest convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.folding import FoldGroup

#: Streaming modes (paper Sections III-A2 and III-B1).
STREAM_NONE = "none"
STREAM_SERIAL = "serial"
STREAM_CONCURRENT = "concurrent"
STREAMING_MODES = (STREAM_NONE, STREAM_SERIAL, STREAM_CONCURRENT)

#: Thread-block perspectives (paper Section III-B3).
PERSPECTIVE_OUTPUT = "output"
PERSPECTIVE_INPUT = "input"
PERSPECTIVE_MIXED = "mixed"
PERSPECTIVES = (PERSPECTIVE_OUTPUT, PERSPECTIVE_INPUT, PERSPECTIVE_MIXED)

#: Storage classes for array placement.
SHMEM = "shmem"
GMEM = "gmem"
REGISTER = "register"
CONSTANT = "constant"
STORAGE_CLASSES = (SHMEM, GMEM, REGISTER, CONSTANT)

#: Register budgets explored by the autotuner (paper Section V).
REGISTER_LEVELS = (32, 64, 128, 255)
#: The largest per-thread register cap a plan may ask for.
MAX_REGISTERS = 255


@dataclass(frozen=True)
class KernelPlan:
    """One generated-kernel configuration.

    ``kernel_names`` lists the stencil instances fused into this launch,
    in execution order.  ``time_tile`` > 1 fuses that many applications
    of an iterative stencil (overlapped time tiling).
    """

    kernel_names: Tuple[str, ...]
    block: Tuple[int, ...]  # threads per axis, outermost first
    time_tile: int = 1
    streaming: str = STREAM_NONE
    stream_axis: int = 0
    concurrent_chunks: int = 1  # z-partitions under concurrent streaming
    unroll: Tuple[int, ...] = ()  # per-axis unroll factors ((=all 1s))
    unroll_blocked: bool = True  # blocked vs cyclic work distribution
    prefetch: bool = False
    perspective: str = PERSPECTIVE_OUTPUT
    placements: Tuple[Tuple[str, str], ...] = ()
    retime: bool = False
    fold_groups: Tuple[FoldGroup, ...] = ()
    max_registers: int = 255

    # -- validation -----------------------------------------------------------

    def __post_init__(self):
        fields = self.__dict__
        for name, check in _FIELD_CHECKS:
            check(fields[name])

    # -- derived geometry ------------------------------------------------------

    @property
    def uses_streaming(self) -> bool:
        return self.streaming in (STREAM_SERIAL, STREAM_CONCURRENT)

    @property
    def stream_chunks(self) -> int:
        """Chunks the stream axis is split into: ``concurrent_chunks``
        under concurrent streaming, else 1."""
        if self.streaming == STREAM_CONCURRENT:
            return self.concurrent_chunks
        return 1

    @property
    def placement_map(self) -> Dict[str, str]:
        return dict(self.placements)

    def placement_of(self, array: str) -> str:
        """Storage class for an array (default: global memory)."""
        return self.placement_map.get(array, GMEM)

    def unroll_factor(self, axis: int) -> int:
        if axis < len(self.unroll):
            return self.unroll[axis]
        return 1

    def block_threads(self) -> int:
        threads = 1
        for extent in self.block:
            threads *= extent
        return threads

    def block_on_axis(self, axis: int, ndim: int) -> int:
        """Thread count along a program axis.

        The ``block`` tuple assigns threads to the *tiled* axes.  Under
        streaming the stream axis has one thread layer; the remaining
        block entries map onto the other axes outermost-first.
        """
        tiled_axes = self.tiled_axes(ndim)
        if axis not in tiled_axes:
            return 1
        position = tiled_axes.index(axis)
        if position < len(self.block):
            return self.block[position]
        return 1

    def tiled_axes(self, ndim: int) -> Tuple[int, ...]:
        """Axes that receive thread-block tiling (all but the stream axis)."""
        if self.uses_streaming:
            return tuple(a for a in range(ndim) if a != self.stream_axis)
        return tuple(range(ndim))

    def tile_extent(self, axis: int, ndim: int) -> int:
        """Output points per block along an axis (threads x unroll)."""
        return self.block_on_axis(axis, ndim) * self.unroll_factor(axis)

    def total_unroll(self) -> int:
        total = 1
        for factor in self.unroll:
            total *= factor
        return total

    def replace(self, **changes) -> "KernelPlan":
        # Hand-rolled for speed: the tuners derive candidates from a
        # seed via replace(), so this runs thousands of times per
        # search.  One C-level __dict__ copy plus the checks of the
        # changed fields alone (the rest were checked when ``self`` was
        # built) beats dataclasses.replace's generic machinery by an
        # order of magnitude.  The pinned identity caches survive the
        # copy exactly when the changed fields are factored out of
        # them: ``_family_key`` excludes only ``max_registers``,
        # ``_structural_key`` additionally the lane knobs (block,
        # unroll, unroll_blocked, prefetch, perspective and the chunk
        # count), and ``_knob_number`` holds only those lane knobs and
        # the streaming mode — so the register escalation ladder, the
        # tile sweep and the stage-2 variants inherit their parents'
        # keys instead of recomputing them per candidate.
        for name in changes:
            if name not in _PLAN_FIELD_SET:
                raise TypeError(
                    f"replace() got an unexpected field {name!r}"
                )
        for name, check in _FIELD_CHECKS:
            if name in changes:
                check(changes[name])
        new = object.__new__(KernelPlan)
        d = new.__dict__
        d.update(self.__dict__)
        changed = changes.keys()
        if changed - _STRUCTURAL_EXEMPT:
            d.pop("_structural_key", None)
        if changed - _FAMILY_EXEMPT:
            d.pop("_family_key", None)
        if changed & _KNOB_FIELDS:
            d.pop("_knob_number", None)
        d.update(changes)
        return new

    def describe(self) -> str:
        """Human-readable one-line summary (used by reports and tuning logs)."""
        parts = [
            "+".join(self.kernel_names),
            f"block={'x'.join(str(b) for b in self.block)}",
        ]
        if self.time_tile > 1:
            parts.append(f"tt={self.time_tile}")
        if self.uses_streaming:
            parts.append(f"stream={self.streaming}@{self.stream_axis}")
            if self.streaming == STREAM_CONCURRENT:
                parts.append(f"chunks={self.concurrent_chunks}")
        if self.unroll and any(u > 1 for u in self.unroll):
            parts.append(f"unroll={'x'.join(str(u) for u in self.unroll)}")
        if self.prefetch:
            parts.append("prefetch")
        if self.retime:
            parts.append("retime")
        if self.fold_groups:
            parts.append(f"fold={len(self.fold_groups)}")
        if self.perspective != PERSPECTIVE_OUTPUT:
            parts.append(self.perspective)
        shm = [a for a, s in self.placements if s == SHMEM]
        if shm:
            parts.append(f"shm({','.join(shm)})")
        parts.append(f"regs<={self.max_registers}")
        return " ".join(parts)


# -- field checks: the constructor runs all of them in this order, and
# ``KernelPlan.replace`` only those of the fields it changes.


def _check_kernel_names(value) -> None:
    if not value:
        raise ValueError("plan must cover at least one kernel instance")


def _check_streaming(value) -> None:
    if value not in STREAMING_MODES:
        raise ValueError(f"unknown streaming mode {value!r}")


def _check_perspective(value) -> None:
    if value not in PERSPECTIVES:
        raise ValueError(f"unknown perspective {value!r}")


def _check_time_tile(value) -> None:
    if value < 1:
        raise ValueError("time_tile must be >= 1")


def _check_chunks(value) -> None:
    if value < 1:
        raise ValueError("concurrent_chunks must be >= 1")


def _check_registers(value) -> None:
    if not (1 <= value <= MAX_REGISTERS):
        raise ValueError(f"max_registers must be in [1, {MAX_REGISTERS}]")


def _check_block(value) -> None:
    for b in value:
        if b < 1:
            raise ValueError("block sizes must be positive")


def _check_unroll(value) -> None:
    for u in value:
        if u < 1:
            raise ValueError("unroll factors must be positive")


def _check_placements(value) -> None:
    for _, storage in value:
        if storage not in STORAGE_CLASSES:
            raise ValueError(f"unknown storage class {storage!r}")


_FIELD_CHECKS = (
    ("kernel_names", _check_kernel_names),
    ("streaming", _check_streaming),
    ("perspective", _check_perspective),
    ("time_tile", _check_time_tile),
    ("concurrent_chunks", _check_chunks),
    ("max_registers", _check_registers),
    ("block", _check_block),
    ("unroll", _check_unroll),
    ("placements", _check_placements),
)


#: Declared field names, in order, for the fast ``KernelPlan.replace``.
_PLAN_FIELDS = tuple(f.name for f in KernelPlan.__dataclass_fields__.values())
_PLAN_FIELD_SET = frozenset(_PLAN_FIELDS)

#: Fields factored out of the pinned identity caches (see
#: ``repro.codegen.tiling.plan_family_key`` / ``plan_structural_key``):
#: a ``replace`` touching only these keeps the corresponding cache.
_FAMILY_EXEMPT = frozenset({"max_registers"})
_STRUCTURAL_EXEMPT = frozenset(
    {
        "max_registers", "block", "unroll", "unroll_blocked", "prefetch",
        "perspective", "concurrent_chunks",
    }
)
#: The fields of the pinned ``repro.codegen.tiling.plan_knob_number``:
#: a ``replace`` touching none of them keeps it.
_KNOB_FIELDS = frozenset(
    {
        "block", "unroll", "streaming", "concurrent_chunks",
        "unroll_blocked", "prefetch", "perspective",
    }
)


@dataclass(frozen=True)
class ProgramPlan:
    """A full schedule: one plan per launch, in execution order.

    For iterative programs, ``launch_counts[i]`` says how many times
    launch ``i`` is invoked (a deep-tuned fusion schedule such as
    ``(4x3 ⊕ 1x1)`` becomes two entries with counts 3 and 1).
    """

    plans: Tuple[KernelPlan, ...]
    launch_counts: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.launch_counts and len(self.launch_counts) != len(self.plans):
            raise ValueError("launch_counts must match plans")

    @property
    def counts(self) -> Tuple[int, ...]:
        if self.launch_counts:
            return self.launch_counts
        return tuple(1 for _ in self.plans)

    def total_time_steps(self) -> int:
        """Total iterative applications covered by this schedule."""
        return sum(p.time_tile * c for p, c in zip(self.plans, self.counts))
