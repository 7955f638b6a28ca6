"""Program-level lint rules (``RL1xx``): DSL and IR static analysis.

Rules in this family run on a parsed :class:`~repro.dsl.ast.Program`
and, once the program validates, on its lowered
:class:`~repro.ir.stencil.ProgramIR` — dependence cycles, in-place
races, halo/bounds violations, liveness, and dtype consistency.  Every
rule stays silent on all ``suite`` benchmarks and shipped ``examples``
(pinned by ``tests/lint/test_silence.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..dsl.ast import (
    ArrayAccess,
    Assignment,
    LocalDecl,
    Program,
    StencilDef,
    array_accesses,
    span_of,
)
from ..ir.stencil import ProgramIR, StencilInstance
from .diagnostics import Diagnostic, ERROR, INFO, WARNING, rule

RL101 = rule(
    "RL101", "syntax-error", ERROR,
    "the source text does not lex or parse as a DSL program",
)
RL102 = rule(
    "RL102", "invalid-program", ERROR,
    "semantic validation rejected the program",
)
RL103 = rule(
    "RL103", "in-place-race", ERROR,
    "a kernel reads the array it writes at a non-zero offset "
    "(WAR race under in-place update)",
)
RL104 = rule(
    "RL104", "dependence-cycle", ERROR,
    "the array dataflow between kernels forms a cycle",
)
RL105 = rule(
    "RL105", "halo-out-of-bounds", ERROR,
    "a stencil's read halo meets or exceeds the declared array extent",
)
RL106 = rule(
    "RL106", "unused-array", WARNING,
    "a declared array is never accessed by any stencil call or copy list",
)
RL107 = rule(
    "RL107", "dead-write", WARNING,
    "a kernel writes an array that is never read and never copied out",
)
RL108 = rule(
    "RL108", "uninitialized-read", WARNING,
    "a kernel reads an array that is neither copied in nor written "
    "by an earlier kernel",
)
RL109 = rule(
    "RL109", "zero-extent", ERROR,
    "an array resolves to a zero or negative extent",
)
RL110 = rule(
    "RL110", "dtype-mix", WARNING,
    "the program mixes floating-point array dtypes",
)
RL111 = rule(
    "RL111", "directive-wrong-iterator", ERROR,
    "a #pragma/#assign directive names the wrong iterator "
    "(unknown iterator, unroll of the streaming axis, or an iterator "
    "used as an array placement)",
)


# ---------------------------------------------------------------------------
# AST rules — run before semantic validation, so they fire with their
# exact codes even on programs validate would also reject.
# ---------------------------------------------------------------------------


def check_ast(program: Program) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    out.extend(_check_zero_extent(program))
    out.extend(_check_dtype_mix(program))
    out.extend(_check_directives(program))
    return out


def _check_zero_extent(program: Program) -> List[Diagnostic]:
    params = program.parameter_map
    out: List[Diagnostic] = []
    for decl in program.decls:
        if not decl.is_array:
            continue
        for dim in decl.dims:
            extent: Optional[int]
            if isinstance(dim, str):
                extent = params.get(dim)  # unknown param: validate's job
            else:
                extent = dim
            if extent is not None and extent <= 0:
                out.append(
                    Diagnostic(
                        RL109,
                        f"array {decl.name!r} has extent {extent} along "
                        f"dimension {dim!r}",
                        span=span_of(decl),
                    )
                )
                break
    return out


def _check_dtype_mix(program: Program) -> List[Diagnostic]:
    by_dtype: Dict[str, List] = {}
    for decl in program.decls:
        if decl.is_array and decl.dtype in ("float", "double"):
            by_dtype.setdefault(decl.dtype, []).append(decl)
    if len(by_dtype) <= 1:
        return []
    parts = ", ".join(
        f"{dtype} ({', '.join(d.name for d in decls)})"
        for dtype, decls in sorted(by_dtype.items())
    )
    anchor = min(
        (d for decls in by_dtype.values() for d in decls),
        key=lambda d: (span_of(d).line if span_of(d) else 1 << 30),
    )
    return [
        Diagnostic(
            RL110,
            f"arrays mix floating-point dtypes: {parts}",
            span=span_of(anchor),
        )
    ]


def _check_directives(program: Program) -> List[Diagnostic]:
    iterators = set(program.iterators)
    out: List[Diagnostic] = []
    for stencil in program.stencils:
        pragma = stencil.pragma
        if pragma is not None:
            anchor = span_of(pragma) or span_of(stencil)
            if (
                pragma.stream_dim is not None
                and pragma.stream_dim not in iterators
            ):
                out.append(
                    Diagnostic(
                        RL111,
                        f"stencil {stencil.name!r}: #pragma streams along "
                        f"{pragma.stream_dim!r}, which is not a declared "
                        "iterator",
                        span=anchor,
                    )
                )
            for it_name, factor in pragma.unroll:
                if it_name not in iterators:
                    out.append(
                        Diagnostic(
                            RL111,
                            f"stencil {stencil.name!r}: #pragma unrolls "
                            f"{it_name!r}, which is not a declared iterator",
                            span=anchor,
                        )
                    )
                elif it_name == pragma.stream_dim and factor > 1:
                    out.append(
                        Diagnostic(
                            RL111,
                            f"stencil {stencil.name!r}: #pragma unrolls the "
                            f"streaming iterator {it_name!r} (the serial "
                            "sweep cannot be unrolled)",
                            span=anchor,
                        )
                    )
        if stencil.assign is not None:
            anchor = span_of(stencil.assign) or span_of(stencil)
            for name, storage in stencil.assign.placements:
                if name in iterators:
                    out.append(
                        Diagnostic(
                            RL111,
                            f"stencil {stencil.name!r}: #assign places "
                            f"iterator {name!r} in {storage!r} — placements "
                            "take array names, not iterators",
                            span=anchor,
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# IR rules — run after the program validated and lowered.
# ---------------------------------------------------------------------------


def check_ir(program: Program, ir: ProgramIR) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    out.extend(_check_in_place_race(program, ir))
    out.extend(_check_dependence_cycle(program, ir))
    out.extend(_check_halo_bounds(program, ir))
    out.extend(_check_liveness(program, ir))
    return out


def _stencil_span(program: Program, instance: StencilInstance):
    for stencil in program.stencils:
        if stencil.name == instance.stencil_name:
            return span_of(stencil)
    return None


def _check_in_place_race(program: Program, ir: ProgramIR) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for instance in ir.kernels:
        written = set(instance.arrays_written())
        flagged: Set[str] = set()
        for stmt in instance.statements:
            for access in array_accesses(stmt.rhs):
                if access.name not in written or access.name in flagged:
                    continue
                if any(idx.const != 0 for idx in access.indices):
                    flagged.add(access.name)
                    out.append(
                        Diagnostic(
                            RL103,
                            f"kernel {instance.stencil_name!r} updates "
                            f"{access.name!r} in place but reads it at "
                            f"offset {access} — neighbouring threads race "
                            "on the old vs new value",
                            span=_stencil_span(program, instance),
                        )
                    )
        # A center (offset-0) in-place read is the legal pointwise
        # update idiom (e.g. SW4's `up += ...`); only offsets race.
    return out


def _check_dependence_cycle(
    program: Program, ir: ProgramIR
) -> List[Diagnostic]:
    # The dependence engine's array-flow graph drops a read edge only
    # for an array the reading kernel *exclusively* writes (the legal
    # in-place idiom, see RL103).  The earlier pure-input-only graph
    # dropped every self-written read, so a cycle routed through an
    # array that a *third* kernel also writes went undetected.
    from ..ir.dag import find_cycle
    from .dependence import array_flow_graph

    cycle = find_cycle(array_flow_graph(ir))
    if cycle is None:
        return []
    chain = " -> ".join([edge[0] for edge in cycle] + [cycle[0][0]])
    return [
        Diagnostic(
            RL104,
            f"array dataflow between kernels is circular: {chain} — the "
            "stencil DAG cannot be scheduled",
            span=span_of(program.calls[0]) if program.calls else None,
        )
    ]


def _check_halo_bounds(program: Program, ir: ProgramIR) -> List[Diagnostic]:
    from ..ir.analysis import read_halos

    out: List[Diagnostic] = []
    flagged: Set[str] = set()
    for instance in ir.kernels:
        span = _stencil_span(program, instance)
        for array, per_axis in read_halos(ir, instance).items():
            info = ir.array_map.get(array)
            if info is None or info.ndim != ir.ndim or array in flagged:
                continue
            for axis, (lo, hi) in enumerate(per_axis):
                extent = info.shape[axis]
                if lo + hi >= extent:
                    flagged.add(array)
                    out.append(
                        Diagnostic(
                            RL105,
                            f"kernel {instance.stencil_name!r} reads "
                            f"{array!r} with halo -{lo}/+{hi} along axis "
                            f"{axis} ({ir.iterators[axis]}), but the array "
                            f"extent is only {extent} — every interior "
                            "point would read out of bounds",
                            span=span,
                        )
                    )
                    break
    return out


def _check_liveness(program: Program, ir: ProgramIR) -> List[Diagnostic]:
    decl_span = {d.name: span_of(d) for d in program.decls}
    read_by_any: Set[str] = set()
    written_by_any: Set[str] = set()
    for instance in ir.kernels:
        read_by_any.update(instance.arrays_read())
        written_by_any.update(instance.arrays_written())

    out: List[Diagnostic] = []
    copyin = set(ir.copyin)
    copyout = set(ir.copyout)

    # RL106: declared arrays never touched at all.
    for info in ir.arrays:
        name = info.name
        if (
            name not in read_by_any
            and name not in written_by_any
            and name not in copyin
            and name not in copyout
        ):
            out.append(
                Diagnostic(
                    RL106,
                    f"array {name!r} is declared but never read, written, "
                    "or copied",
                    span=decl_span.get(name),
                )
            )

    # RL107: values produced and then dropped.
    for name in sorted(written_by_any):
        if name not in read_by_any and name not in copyout:
            out.append(
                Diagnostic(
                    RL107,
                    f"array {name!r} is written but never read and never "
                    "copied out — the kernel's work is dead",
                    span=decl_span.get(name),
                )
            )

    # RL108: values consumed before anything produced them.  For
    # iterative programs any kernel's write counts (the previous time
    # step initializes it); for single-sweep programs only *earlier*
    # kernels count.
    initialized: Set[str] = set(copyin)
    if ir.is_iterative:
        initialized |= written_by_any
    flagged: Set[str] = set()
    for instance in ir.kernels:
        for name in instance.arrays_read():
            if name in initialized or name in flagged:
                continue
            if ir.array_map.get(name) is None:
                continue
            flagged.add(name)
            out.append(
                Diagnostic(
                    RL108,
                    f"kernel {instance.stencil_name!r} reads {name!r}, "
                    "which is neither in copyin nor written by an earlier "
                    "kernel — the first sweep consumes garbage",
                    span=decl_span.get(name),
                )
            )
        initialized.update(instance.arrays_written())
    return out
