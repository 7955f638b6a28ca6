"""Reference IR analyses: the per-access walks the composed ones replaced.

``repro.ir.analysis`` computes each statement's access facts once
(:class:`~repro.ir.analysis.StatementFacts`) and composes every kernel
analysis from them; the tiling and pricing layers read one per-array
access table.  This module keeps the straightforward versions they
replaced, access by access: the pattern loop, the read halos, the
access summary, the offset sets, the statement geometry over whole
scalar slices, the register pressure, the tiling scans, the pricing
plane reads, and the fission slices (a statement DAG built per call)
and subscript halos.  As before, only the pattern list is memoized per kernel.
``test_analysis_differential.py`` checks the composed analyses against
them.  Nothing in ``src`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dsl.ast import ArrayAccess, array_accesses
from repro.ir.analysis import AccessPattern, scalar_slices, statement_flops
from repro.ir.dag import producers_of, statement_dag
from repro.ir.memo import OwnerMemo
from repro.ir.stencil import ProgramIR, StencilInstance

#: mirrors ``repro.gpu.registers``
EXPR_TEMP_CAP = 320
LIVE_READ_FRACTION = 0.45


_PATTERNS = OwnerMemo()


def access_patterns(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[AccessPattern, ...]:
    def compute():
        out: List[AccessPattern] = []
        for stmt in instance.statements:
            for access in array_accesses(stmt.rhs):
                out.append(_pattern_of(ir, access, is_write=False))
            if isinstance(stmt.lhs, ArrayAccess):
                out.append(_pattern_of(ir, stmt.lhs, is_write=True))
        return tuple(out)

    return _PATTERNS.get(instance, ir.iterators, "patterns", compute)


def _pattern_of(ir: ProgramIR, access: ArrayAccess, is_write: bool) -> AccessPattern:
    offsets: List[Optional[int]] = [None] * ir.ndim
    for idx in access.indices:
        it = idx.single_iterator()
        if it is not None and it in ir.iterators:
            offsets[ir.axis_of(it)] = idx.const
    return AccessPattern(access.name, tuple(offsets), is_write)


def array_offset_sets(ir: ProgramIR, instance: StencilInstance):
    reads: Dict[str, List[Tuple[Optional[int], ...]]] = {}
    writes: Dict[str, List[Tuple[Optional[int], ...]]] = {}
    for pattern in access_patterns(ir, instance):
        bucket = (writes if pattern.is_write else reads).setdefault(
            pattern.array, []
        )
        if pattern.axis_offsets not in bucket:
            bucket.append(pattern.axis_offsets)
    return {
        name: (
            tuple(reads.get(name, ())),
            tuple(writes.get(name, ())),
        )
        for name in sorted({*reads, *writes})
    }


def read_halos(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    halos: Dict[str, List[List[int]]] = {}
    for pattern in access_patterns(ir, instance):
        if pattern.is_write:
            continue
        entry = halos.setdefault(
            pattern.array, [[0, 0] for _ in range(ir.ndim)]
        )
        for axis, offset in enumerate(pattern.axis_offsets):
            if offset is None:
                continue
            entry[axis][0] = max(entry[axis][0], -offset)
            entry[axis][1] = max(entry[axis][1], offset)
    return {
        name: tuple((lo, hi) for lo, hi in per_axis)
        for name, per_axis in halos.items()
    }


def combined_halo(ir: ProgramIR, instance: StencilInstance):
    combined = [[0, 0] for _ in range(ir.ndim)]
    for per_axis in read_halos(ir, instance).values():
        for axis, (lo, hi) in enumerate(per_axis):
            combined[axis][0] = max(combined[axis][0], lo)
            combined[axis][1] = max(combined[axis][1], hi)
    return tuple((lo, hi) for lo, hi in combined)


def stencil_order(ir: ProgramIR, instance: StencilInstance) -> int:
    order = 0
    for pattern in access_patterns(ir, instance):
        if not pattern.is_write:
            order = max(order, pattern.max_abs_offset())
    return order


def kernel_flops_per_point(instance: StencilInstance) -> int:
    return sum(statement_flops(s) for s in instance.statements)


def access_summary(ir: ProgramIR, instance: StencilInstance) -> List[tuple]:
    """The summary's rows: ``(array, reads_total, reads_distinct, writes,
    offsets)``; :func:`array_indexes_axis` checks ``indexed_axes``."""
    reads_total: Dict[str, int] = {}
    writes: Dict[str, int] = {}
    offsets: Dict[str, List[Tuple[Optional[int], ...]]] = {}
    for pattern in access_patterns(ir, instance):
        if pattern.is_write:
            writes[pattern.array] = writes.get(pattern.array, 0) + 1
            offsets.setdefault(pattern.array, [])
            continue
        reads_total[pattern.array] = reads_total.get(pattern.array, 0) + 1
        bucket = offsets.setdefault(pattern.array, [])
        if pattern.axis_offsets not in bucket:
            bucket.append(pattern.axis_offsets)
    out: List[tuple] = []
    for array in sorted(set(reads_total) | set(writes)):
        distinct = offsets.get(array, [])
        out.append(
            (
                array,
                reads_total.get(array, 0),
                len(distinct),
                writes.get(array, 0),
                tuple(distinct),
            )
        )
    return out


def expression_registers(instance: StencilInstance) -> int:
    n_locals = len(instance.local_statements())
    widest = 0
    total_distinct = 0
    for stmt in instance.statements:
        distinct = set(array_accesses(stmt.rhs))
        widest = max(widest, len(distinct))
        total_distinct += len(distinct)
    pressure = max(widest // 2, int(LIVE_READ_FRACTION * total_distinct), 2)
    return min(n_locals + pressure, EXPR_TEMP_CAP)


# -- statement geometry: every slice walked access by access -----------------


def _segment_halos(
    ir: ProgramIR, instance: StencilInstance, indices: Sequence[int]
) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    halos: Dict[str, List[List[int]]] = {}
    for index in indices:
        stmt = instance.statements[index]
        for access in array_accesses(stmt.rhs):
            entry = halos.setdefault(
                access.name, [[0, 0] for _ in range(ir.ndim)]
            )
            for idx in access.indices:
                iterator = idx.single_iterator()
                if iterator is None or iterator not in ir.iterators:
                    continue
                axis = ir.axis_of(iterator)
                entry[axis][0] = max(entry[axis][0], -idx.const)
                entry[axis][1] = max(entry[axis][1], idx.const)
    return {
        name: tuple((lo, hi) for lo, hi in entry)
        for name, entry in halos.items()
    }


def statement_geometry(ir: ProgramIR, instance: StencilInstance):
    slices = scalar_slices(instance)
    grid_indices = sorted(slices)
    halo_of: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    reads_of: Dict[int, Dict[str, Tuple[Tuple[int, int], ...]]] = {}
    writer_of: Dict[str, List[int]] = {}
    for g in grid_indices:
        segment = list(slices[g]) + [g]
        per_array = _segment_halos(ir, instance, segment)
        reads_of[g] = per_array
        combined = [[0, 0] for _ in range(ir.ndim)]
        for entry in per_array.values():
            for axis, (lo, hi) in enumerate(entry):
                combined[axis][0] = max(combined[axis][0], lo)
                combined[axis][1] = max(combined[axis][1], hi)
        halo_of[g] = tuple((lo, hi) for lo, hi in combined)
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


def internal_reach(ir: ProgramIR, instance: StencilInstance):
    geometry = statement_geometry(ir, instance)
    reach = [[0, 0] for _ in range(ir.ndim)]
    for _slice, halo, expansion in geometry.values():
        for axis in range(ir.ndim):
            reach[axis][0] = max(reach[axis][0], halo[axis][0] + expansion[axis][0])
            reach[axis][1] = max(reach[axis][1], halo[axis][1] + expansion[axis][1])
    return tuple((lo, hi) for lo, hi in reach)


# -- the tiling scans: one walk of every access per array ---------------------


def array_indexes_axis(
    ir: ProgramIR, instance: StencilInstance, array: str, axis: int
) -> bool:
    for pattern in access_patterns(ir, instance):
        if pattern.array == array and pattern.axis_offsets[axis] is not None:
            return True
    return False


def is_star_along(
    ir: ProgramIR, instance: StencilInstance, array: str, stream_axis: int
) -> bool:
    for pattern in access_patterns(ir, instance):
        if pattern.array != array or pattern.is_write:
            continue
        stream_offset = pattern.axis_offsets[stream_axis]
        if stream_offset in (None, 0):
            continue
        for axis, offset in enumerate(pattern.axis_offsets):
            if axis != stream_axis and offset not in (None, 0):
                return False
    return True


def consumer_read_counts(
    ir: ProgramIR, instance: StencilInstance, array: str, plan
) -> Tuple[int, int]:
    seen = set()
    center = 0
    for pattern in access_patterns(ir, instance):
        if pattern.array != array or pattern.is_write:
            continue
        if pattern.axis_offsets in seen:
            continue
        seen.add(pattern.axis_offsets)
        if plan.uses_streaming:
            if pattern.axis_offsets[plan.stream_axis] in (None, 0):
                center += 1
        else:
            center += 1
    return len(seen), center


def distinct_read_offsets(ir: ProgramIR, instance: StencilInstance, array: str):
    seen: List[Tuple] = []
    for pattern in access_patterns(ir, instance):
        if pattern.array != array or pattern.is_write:
            continue
        if pattern.axis_offsets not in seen:
            seen.append(pattern.axis_offsets)
    return seen


# -- the pricing plane reads ---------------------------------------------------


def plane_reads(
    ir: ProgramIR, instance: StencilInstance, stream_axis: int
) -> Dict[str, Tuple[int, int]]:
    """Per array read: (distinct reads with the stream component dropped,
    distinct reads on the stream-center plane)."""
    inplane: Dict[str, set] = {}
    offsets: Dict[str, set] = {}
    for pattern in access_patterns(ir, instance):
        if pattern.is_write:
            continue
        axis_offsets = pattern.axis_offsets
        inplane.setdefault(pattern.array, set()).add(
            tuple(
                offset
                for axis, offset in enumerate(axis_offsets)
                if axis != stream_axis
            )
        )
        offsets.setdefault(pattern.array, set()).add(axis_offsets)
    return {
        array: (
            len(inplane[array]),
            sum(1 for o in seen if o[stream_axis] in (None, 0)),
        )
        for array, seen in offsets.items()
    }


# -- the fission slices and halos ---------------------------------------------


def statements_for_output(instance: StencilInstance, output: str) -> Tuple[int, ...]:
    """The backward slice of ``output`` over a freshly built statement DAG."""
    graph = statement_dag(instance)
    needed = set(producers_of(instance, output))
    frontier = list(needed)
    while frontier:
        node = frontier.pop()
        for pred in graph.predecessors(node):
            if pred not in needed:
                needed.add(pred)
                frontier.append(pred)
    return tuple(sorted(needed))


def _subscript_reach(instance: StencilInstance, indices) -> int:
    reach = 0
    for i in indices:
        for access in array_accesses(instance.statements[i].rhs):
            for idx in access.indices:
                if idx.single_iterator() is not None:
                    reach = max(reach, abs(idx.const))
    return reach


def max_statement_order(instance: StencilInstance) -> int:
    return _subscript_reach(instance, range(len(instance.statements)))


def output_halo(instance: StencilInstance, output: str) -> int:
    return _subscript_reach(instance, statements_for_output(instance, output))


def consumes_prior_output(
    instance: StencilInstance, output: str, prior: Sequence[str]
) -> bool:
    prior_set = set(prior)
    return any(
        access.name in prior_set
        for i in statements_for_output(instance, output)
        for access in array_accesses(instance.statements[i].rhs)
    )
