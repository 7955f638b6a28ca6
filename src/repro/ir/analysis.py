"""Static analyses over the stencil IR.

These produce the quantities the paper's Table I reports (stencil order,
per-point FLOPs, number of I/O arrays) and the inputs the GPU counter
model needs (halos per array per axis, access counts by array, theoretical
operational intensity).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..dsl.ast import (
    ArrayAccess,
    BinOp,
    Call,
    Expr,
    Name,
    Num,
    UnaryOp,
    array_accesses,
)
from ..obs import span as _span
from .memo import OwnerMemo
from .stencil import ProgramIR, Statement, StencilInstance

# ---------------------------------------------------------------------------
# per-object memoization
#
# Analyses walk (potentially enormous) expression ASTs; the simulator and
# autotuner call them thousands of times on the same immutable kernel
# instances.  Results are cached per object (see ``repro.ir.memo``): a
# cache entry lives as long as its owner object, and a cached value must
# not reference its owner.
# ---------------------------------------------------------------------------

_MEMO = OwnerMemo(miss_prefix="analysis.cache_miss.", span_prefix="analysis.")


def _memoized(tag: str, obj, compute):
    return _MEMO.get(obj, tag, tag, compute)


def memoized_kv(tag: str, obj, key, compute):
    """Per-object memoization with an extra hashable sub-key.

    Like :func:`_memoized` but for analyses parameterized beyond the
    object itself (e.g. per-array or per-plan-shape results).  ``key``
    must be hashable and, together with ``tag`` and the object, fully
    determine the computed value.
    """
    return _MEMO.get(obj, (tag, key), tag, compute)


def clear_analysis_cache() -> None:
    """Drop every memoized analysis result (tests / memory pressure)."""
    _MEMO.clear()


def analysis_cache_size() -> int:
    return len(_MEMO)

#: FLOP cost charged per intrinsic call (conventional single-op counting).
CALL_FLOPS = {
    "sqrt": 1,
    "cbrt": 1,
    "fabs": 1,
    "abs": 1,
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "tanh": 1,
    "fmin": 1,
    "fmax": 1,
    "min": 1,
    "max": 1,
    "pow": 1,
}


# ---------------------------------------------------------------------------
# FLOP counting
# ---------------------------------------------------------------------------


def count_flops(expr: Expr) -> int:
    """Floating-point operations in an expression tree.

    Each binary arithmetic operator counts as one FLOP; unary negation is
    folded into the consuming operation (zero cost); intrinsics are
    charged per :data:`CALL_FLOPS`.
    """
    if isinstance(expr, (Num, Name, ArrayAccess)):
        return 0
    if isinstance(expr, UnaryOp):
        return count_flops(expr.operand)
    if isinstance(expr, BinOp):
        return 1 + count_flops(expr.left) + count_flops(expr.right)
    if isinstance(expr, Call):
        flops = CALL_FLOPS.get(expr.func, 1)
        for arg in expr.args:  # a loop: one interpreter frame per nested call
            flops += count_flops(arg)
        return flops
    raise TypeError(type(expr).__name__)


def statement_flops(stmt: Statement) -> int:
    """FLOPs of one statement (a ``+=`` costs one extra add)."""
    return count_flops(stmt.rhs) + (1 if stmt.op == "+=" else 0)


def kernel_flops_per_point(instance: StencilInstance) -> int:
    """FLOPs executed per output grid point by one kernel instance."""
    return _memoized(
        "flops",
        instance,
        lambda: sum(_any_facts(s).flops for s in instance.statements),
    )


# ---------------------------------------------------------------------------
# Access patterns and halos
# ---------------------------------------------------------------------------

Halo = Tuple[Tuple[int, int], ...]  # per-axis (lo, hi)
Offsets = Tuple[Optional[int], ...]  # per-axis offset, None when unindexed


@dataclass(frozen=True)
class AccessPattern:
    """One array access, positioned on the program's iteration axes.

    ``axis_offsets[d]`` is the constant offset along program axis ``d``,
    or None when the access does not index that axis (lower-rank arrays)
    or uses an absolute/skewed subscript.
    """

    array: str
    axis_offsets: Offsets
    is_write: bool = False

    def max_abs_offset(self) -> int:
        return max((abs(o) for o in self.axis_offsets if o is not None), default=0)


def _axis_offsets(
    iterators: Tuple[str, ...], access: ArrayAccess, overridden=None
) -> Offsets:
    """Per-axis offsets of one access; a subscript that repeats an
    iterator replaces the earlier one, which goes to ``overridden`` as
    ``(array, axis, offset)`` when a list is given."""
    offsets: List[Optional[int]] = [None] * len(iterators)
    for idx in access.indices:
        it = idx.single_iterator()
        if it is not None and it in iterators:
            axis = iterators.index(it)
            if overridden is not None and offsets[axis] is not None:
                overridden.append((access.name, axis, offsets[axis]))
            offsets[axis] = idx.const
    return tuple(offsets)


@dataclass(frozen=True)
class StatementFacts:
    """Every access fact of one statement, computed once.

    The kernel-level analyses below (patterns, halos, access summary,
    offset sets, order, FLOPs, register pressure and the per-statement
    geometry) compose these records instead of walking accesses, so a
    statement that several slices, kernels or fission candidates share
    is analysed once.  Facts depend only on the statement and the
    program's iterators; :func:`statement_facts` pins them on the frozen
    :class:`~repro.ir.stencil.Statement`, keyed by the iterators.

    Two halos are kept on purpose.  ``halos`` comes from the patterns,
    where a read that subscripts one iterator twice (``A[i-1][i+1]``)
    keeps its last subscript; ``subscript_halos`` takes every subscript,
    as the intra-kernel geometry does.  They are the same object unless
    some read repeats an iterator.
    """

    iterators: Tuple[str, ...]
    reads: Tuple[AccessPattern, ...]  # read patterns in access order
    write: Optional[AccessPattern]  # None for a local temporary
    halos: Dict[str, Halo]  # per array read, first-seen order
    subscript_halos: Dict[str, Halo]
    read_counts: Dict[str, int]  # textual reads per array
    read_offsets: Dict[str, Tuple[Offsets, ...]]  # distinct, first-seen
    flops: int
    distinct_reads: int  # distinct (array, subscripts) read


def statement_facts(ir: ProgramIR, stmt: Statement) -> StatementFacts:
    """The :class:`StatementFacts` of ``stmt`` under ``ir``'s iterators."""
    facts = stmt.__dict__.get("_facts")
    if facts is None or facts.iterators != ir.iterators:
        facts = _statement_facts(ir.iterators, stmt)
    return facts


def _any_facts(stmt: Statement) -> StatementFacts:
    """Facts for the callers that need no axis: FLOPs and distinct reads
    do not depend on the iterators, so any pinned record serves."""
    facts = stmt.__dict__.get("_facts")
    if facts is None:
        facts = _statement_facts((), stmt)
    return facts


def _statement_facts(iterators: Tuple[str, ...], stmt: Statement) -> StatementFacts:
    # Subscripts are interned per parse, so repeats of one access are
    # common: each distinct (array, subscripts) pair is resolved once.
    resolved: Dict[tuple, AccessPattern] = {}
    reads: List[AccessPattern] = []
    extents: Dict[str, List[int]] = {}  # per array: lo, hi of each axis
    read_offsets: Dict[str, Dict[Offsets, None]] = {}
    overridden: List[Tuple[str, int, int]] = []
    for access in array_accesses(stmt.rhs):
        key = (access.name, access.indices)
        pattern = resolved.get(key)
        if pattern is None:
            name = access.name
            offsets = _axis_offsets(iterators, access, overridden)
            pattern = resolved[key] = AccessPattern(name, offsets)
            entry = extents.get(name)
            if entry is None:
                entry = extents[name] = [0] * (2 * len(iterators))
            for axis, offset in enumerate(offsets):
                if offset is not None:
                    _widen(entry, axis, offset)
            read_offsets.setdefault(name, {})[offsets] = None
        reads.append(pattern)
    halos = _as_halos(extents)
    subscript_halos = halos
    if overridden:
        for name, axis, offset in overridden:
            _widen(extents[name], axis, offset)
        subscript_halos = _as_halos(extents)
    write = None
    if isinstance(stmt.lhs, ArrayAccess):
        write = AccessPattern(
            stmt.lhs.name, _axis_offsets(iterators, stmt.lhs), True
        )
    facts = StatementFacts(
        iterators=iterators,
        reads=tuple(reads),
        write=write,
        halos=halos,
        subscript_halos=subscript_halos,
        read_counts=dict(Counter(map(attrgetter("array"), reads))),
        read_offsets={
            name: tuple(seen) for name, seen in read_offsets.items()
        },
        flops=statement_flops(stmt),
        distinct_reads=len(resolved),
    )
    object.__setattr__(stmt, "_facts", facts)
    return facts


def _widen(entry: List[int], axis: int, offset: int) -> None:
    if -offset > entry[2 * axis]:
        entry[2 * axis] = -offset
    if offset > entry[2 * axis + 1]:
        entry[2 * axis + 1] = offset


def _as_halos(extents: Dict[str, List[int]]) -> Dict[str, Halo]:
    return {
        name: tuple(zip(entry[::2], entry[1::2]))
        for name, entry in extents.items()
    }


def _max_halo(a: Halo, b: Halo) -> Halo:
    """Elementwise max of two halos; ``a`` itself when ``b`` is inside it."""
    if a is b or a == b:
        return a
    out = []
    grew = False
    for (lo, hi), (lo_b, hi_b) in zip(a, b):
        if lo_b > lo:
            lo, grew = lo_b, True
        if hi_b > hi:
            hi, grew = hi_b, True
        out.append((lo, hi))
    return tuple(out) if grew else a


def _widest(halos, ndim: int) -> Halo:
    """Elementwise max of ``halos``; zero extents when there are none."""
    combined = ((0, 0),) * ndim
    for halo in halos:
        combined = _max_halo(combined, halo)
    return combined


def _merged_halos(maps) -> Dict[str, Halo]:
    """Per-array elementwise max of halo maps, first-seen array order."""
    merged: Dict[str, Halo] = {}
    for halos in maps:
        for name, halo in halos.items():
            seen = merged.get(name)
            merged[name] = halo if seen is None else _max_halo(seen, halo)
    return merged


def access_patterns(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[AccessPattern, ...]:
    """Every array access in the instance, reads and writes, in order."""

    def compute():
        out: List[AccessPattern] = []
        for stmt in instance.statements:
            facts = statement_facts(ir, stmt)
            out.extend(facts.reads)
            if facts.write is not None:
                out.append(facts.write)
        return tuple(out)

    return _memoized("patterns", instance, compute)


def array_offset_sets(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, Tuple[Tuple[Offsets, ...], Tuple[Offsets, ...]]]:
    """Per-array distinct ``(read_offsets, write_offsets)`` for one kernel.

    Each side is a tuple of distinct per-axis offset vectors (``None``
    marks an axis the access does not index with a plain iterator).  The
    dependence engine (``repro.lint.dependence``) subtracts these
    pairwise to obtain exact dependence distances between kernels.
    """

    def compute():
        writes: Dict[str, Dict[Offsets, None]] = {}
        for stmt in instance.statements:
            write = statement_facts(ir, stmt).write
            if write is not None:
                writes.setdefault(write.array, {})[write.axis_offsets] = None
        summary = access_summary(ir, instance)
        return {
            name: (
                summary[name].offsets,
                tuple(writes.get(name, ())),
            )
            for name in summary
        }

    return _memoized("offset_sets", instance, compute)


def read_halos(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, Halo]:
    """Per-array read halo: (lo, hi) non-negative extents per axis.

    ``lo`` is how far reads reach below the center along the axis, ``hi``
    how far above.  Arrays never read get no entry.
    """
    return _memoized(
        "halos",
        instance,
        lambda: _merged_halos(
            statement_facts(ir, stmt).halos for stmt in instance.statements
        ),
    )


def combined_halo(ir: ProgramIR, instance: StencilInstance) -> Halo:
    """Union of read halos across all arrays, per axis."""

    return _memoized(
        "combined_halo",
        instance,
        lambda: _widest(read_halos(ir, instance).values(), ir.ndim),
    )


def stencil_order(ir: ProgramIR, instance: StencilInstance) -> int:
    """Stencil order k: max |offset| over all read accesses (paper, §I).

    A read halo's extents are exactly the read offsets' magnitudes, so
    the order is the widest of them.
    """
    return max(
        (
            max(lo, hi)
            for halo in read_halos(ir, instance).values()
            for lo, hi in halo
        ),
        default=0,
    )


def program_order(ir: ProgramIR) -> int:
    return max((stencil_order(ir, k) for k in ir.kernels), default=0)


# ---------------------------------------------------------------------------
# Access counting (feeds the texture/shared traffic model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayAccessSummary:
    """Per-array static access counts for one kernel instance.

    It is also the kernel's per-array access table: the tiling and
    pricing layers read an array's distinct read offsets and indexed
    axes here instead of scanning the kernel's accesses.
    """

    array: str
    reads_total: int  # textual read count (with repetition)
    reads_distinct: int  # distinct offset vectors read
    writes: int
    offsets: Tuple[Offsets, ...]  # distinct read offsets, first-seen order
    indexed_axes: Tuple[int, ...]  # axes any read or write indexes


def access_summary(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, ArrayAccessSummary]:
    return _memoized("summary", instance, lambda: _access_summary(ir, instance))


def _access_summary(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, ArrayAccessSummary]:
    reads_total: Dict[str, int] = {}
    writes: Dict[str, int] = {}
    offsets: Dict[str, Dict[Offsets, None]] = {}
    indexed: Dict[str, set] = {}
    for stmt in instance.statements:
        facts = statement_facts(ir, stmt)
        for name, count in facts.read_counts.items():
            reads_total[name] = reads_total.get(name, 0) + count
        for name, seen in facts.read_offsets.items():
            bucket = offsets.setdefault(name, {})
            for axis_offsets in seen:
                bucket[axis_offsets] = None
        if facts.write is not None:
            name = facts.write.array
            writes[name] = writes.get(name, 0) + 1
            offsets.setdefault(name, {})
            indexed.setdefault(name, set()).update(
                _indexed(facts.write.axis_offsets)
            )
    out: Dict[str, ArrayAccessSummary] = {}
    # Sorted, not set order: the model sums per-array float terms in
    # this order, so it must not follow the hash seed.
    for array in sorted(set(reads_total) | set(writes)):
        distinct = tuple(offsets.get(array, ()))
        axes = indexed.get(array, set())
        for axis_offsets in distinct:
            axes.update(_indexed(axis_offsets))
        out[array] = ArrayAccessSummary(
            array=array,
            reads_total=reads_total.get(array, 0),
            reads_distinct=len(distinct),
            writes=writes.get(array, 0),
            offsets=distinct,
            indexed_axes=tuple(sorted(axes)),
        )
    return out


def _indexed(axis_offsets: Offsets):
    return (axis for axis, o in enumerate(axis_offsets) if o is not None)


# ---------------------------------------------------------------------------
# Table I characteristics and theoretical OI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelCharacteristics:
    """The quantities Table I reports for one benchmark."""

    name: str
    domain: Tuple[int, ...]
    time_iterations: int
    order: int
    flops_per_point: int
    io_arrays: int
    theoretical_oi: float


def characteristics(ir: ProgramIR) -> KernelCharacteristics:
    """Aggregate Table I characteristics over all kernels of a program."""
    with _span("analysis", what="characteristics"):
        return _characteristics(ir)


def _characteristics(ir: ProgramIR) -> KernelCharacteristics:
    flops = sum(kernel_flops_per_point(k) for k in ir.kernels)
    order = program_order(ir)
    io: List[str] = []
    for kernel in ir.kernels:
        for name in kernel.io_arrays():
            if name not in io:
                io.append(name)
    return KernelCharacteristics(
        name=ir.kernels[0].stencil_name if ir.kernels else "<empty>",
        domain=ir.domain_shape(),
        time_iterations=ir.time_iterations,
        order=order,
        flops_per_point=flops,
        io_arrays=len(io),
        theoretical_oi=theoretical_oi(ir),
    )


def theoretical_oi(ir: ProgramIR) -> float:
    """FLOPs per byte assuming each I/O array moves exactly once (OI_T).

    Inputs are read once from DRAM and outputs written once; intermediate
    arrays both written and read count twice.  This matches the paper's
    ``OIT`` column in Table III.
    """
    arrays = ir.array_map
    points = 1
    for extent in ir.domain_shape():
        points *= extent
    total_flops = sum(kernel_flops_per_point(k) for k in ir.kernels) * points
    total_flops *= ir.time_iterations

    moved_bytes = 0
    read_by: Dict[str, bool] = {}
    written_by: Dict[str, bool] = {}
    for kernel in ir.kernels:
        for name in kernel.arrays_read():
            read_by[name] = True
        for name in kernel.arrays_written():
            written_by[name] = True
    for name in set(read_by) | set(written_by):
        info = arrays[name]
        if read_by.get(name):
            moved_bytes += info.bytes
        if written_by.get(name):
            moved_bytes += info.bytes
    moved_bytes *= ir.time_iterations
    if moved_bytes == 0:
        return float("inf")
    return total_flops / moved_bytes


# ---------------------------------------------------------------------------
# intra-kernel statement geometry (sequential fused-DAG semantics)
# ---------------------------------------------------------------------------


def scalar_slices(instance: StencilInstance) -> Dict[int, Tuple[int, ...]]:
    """Per grid statement: the local-statement indices it depends on."""
    from ..dsl.ast import scalar_names

    contrib: Dict[str, set] = {}
    result: Dict[int, Tuple[int, ...]] = {}
    for index, stmt in enumerate(instance.statements):
        needed: set = set()
        for name in scalar_names(stmt.rhs):
            needed |= contrib.get(name, set())
        if stmt.is_local:
            if stmt.op == "+=":
                needed |= contrib.get(stmt.target, set())
            contrib[stmt.target] = needed | {index}
        else:
            result[index] = tuple(sorted(needed))
    return result


def _slice_halos(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[int, Dict[str, Halo]]:
    """Per grid statement: per-array read halos over its scalar slice
    and itself (every subscript counted, as ``subscript_halos``).

    The halo is a maximum, so it composes along the dependence chain the
    way :func:`scalar_slices` unions its index sets: a local's halos are
    its own merged with those of the locals it reads (and, for ``+=``,
    its previous value).  Each statement is merged once, not once per
    slice that holds it.
    """
    from ..dsl.ast import scalar_names

    local: Dict[str, Dict[str, Halo]] = {}
    result: Dict[int, Dict[str, Halo]] = {}
    for index, stmt in enumerate(instance.statements):
        maps = [
            local[name]
            for name in dict.fromkeys(scalar_names(stmt.rhs))
            if name in local
        ]
        if stmt.is_local and stmt.op == "+=" and stmt.target in local:
            maps.append(local[stmt.target])
        maps.append(statement_facts(ir, stmt).subscript_halos)
        halos = _merged_halos(maps)
        if stmt.is_local:
            local[stmt.target] = halos
        else:
            result[index] = halos
    return result


def statement_geometry(ir: ProgramIR, instance: StencilInstance):
    return _memoized(
        "stmt_geometry", instance, lambda: _statement_geometry(ir, instance)
    )


def _statement_geometry(ir: ProgramIR, instance: StencilInstance):
    """Per grid statement: (local slice, combined halo, internal expansion).

    Statements inside one kernel execute sequentially over the grid; a
    consumer reading an array a *previous* statement of the same kernel
    wrote at a non-zero offset forces the producer to compute an expanded
    region (the intra-kernel recompute halo of Section VI-B).
    """
    slices = scalar_slices(instance)
    grid_indices = sorted(slices)
    halo_of: Dict[int, Halo] = {}
    reads_of = _slice_halos(ir, instance)
    writer_of: Dict[str, List[int]] = {}
    for g in grid_indices:
        halo_of[g] = _widest(reads_of[g].values(), ir.ndim)
        writer_of.setdefault(instance.statements[g].target, []).append(g)

    expansion: Dict[int, List[List[int]]] = {
        g: [[0, 0] for _ in range(ir.ndim)] for g in grid_indices
    }
    for t in reversed(grid_indices):
        for array, halo in reads_of[t].items():
            for producer in writer_of.get(array, []):
                if producer >= t:
                    continue
                for axis in range(ir.ndim):
                    need_lo = expansion[t][axis][0] + halo[axis][0]
                    need_hi = expansion[t][axis][1] + halo[axis][1]
                    expansion[producer][axis][0] = max(
                        expansion[producer][axis][0], need_lo
                    )
                    expansion[producer][axis][1] = max(
                        expansion[producer][axis][1], need_hi
                    )
    return {
        g: (
            slices[g],
            halo_of[g],
            tuple((lo, hi) for lo, hi in expansion[g]),
        )
        for g in grid_indices
    }


def internal_reach(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[Tuple[int, int], ...]:
    """Per-axis (lo, hi) lookback a block needs for this kernel alone:
    max over grid statements of (internal expansion + read halo)."""
    return _memoized(
        "reach", instance, lambda: _internal_reach(ir, instance)
    )


def _internal_reach(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[Tuple[int, int], ...]:
    geometry = statement_geometry(ir, instance)
    reach = [[0, 0] for _ in range(ir.ndim)]
    for _slice, halo, expansion in geometry.values():
        for axis in range(ir.ndim):
            reach[axis][0] = max(reach[axis][0], halo[axis][0] + expansion[axis][0])
            reach[axis][1] = max(reach[axis][1], halo[axis][1] + expansion[axis][1])
    return tuple((lo, hi) for lo, hi in reach)


