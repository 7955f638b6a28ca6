"""Unparser: render AST nodes back to DSL source text.

Used by the kernel-fission component (Section VI-B) to write generated
fission candidates out as DSL specification files, exactly as the paper's
Figure 3c shows, and by round-trip tests of the frontend.
"""

from __future__ import annotations

from typing import List

from .ast import (
    ArrayAccess,
    AssignDirective,
    Assignment,
    BinOp,
    Call,
    Expr,
    LocalDecl,
    Name,
    Num,
    Pragma,
    Program,
    StencilDef,
    UnaryOp,
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(expr: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(expr, Num):
        if expr.is_int:
            return str(int(expr.value))
        text = repr(expr.value)
        return text
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, ArrayAccess):
        return str(expr)
    if isinstance(expr, Call):
        args = []
        for arg in expr.args:  # a loop: one interpreter frame per nested call
            args.append(format_expr(arg))
        return f"{expr.func}({', '.join(args)})"
    if isinstance(expr, UnaryOp):
        inner = format_expr(expr.operand, parent_prec=3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 1 else text
    assert isinstance(expr, BinOp)
    prec = _PRECEDENCE[expr.op]
    left = format_expr(expr.left, prec, right_side=False)
    right = format_expr(expr.right, prec, right_side=True)
    text = f"{left} {expr.op} {right}"
    needs_parens = prec < parent_prec or (
        prec == parent_prec and right_side and expr.op in ("-", "/", "+", "*")
    )
    return f"({text})" if needs_parens else text


def format_pragma(pragma: Pragma) -> str:
    parts: List[str] = ["#pragma"]
    if pragma.stream_dim:
        parts.append(f"stream {pragma.stream_dim}")
    if pragma.block:
        parts.append("block (" + ",".join(str(b) for b in pragma.block) + ")")
    for name, factor in pragma.unroll:
        parts.append(f"unroll {name}={factor}")
    if pragma.occupancy is not None:
        parts.append(f"occupancy {pragma.occupancy}")
    return " ".join(parts)


def format_assign(assign: AssignDirective) -> str:
    by_class: dict = {}
    for name, storage in assign.placements:
        by_class.setdefault(storage, []).append(name)
    groups = [
        f"{storage} ({', '.join(names)})" for storage, names in by_class.items()
    ]
    return "#assign " + ", ".join(groups)


def format_statement(stmt) -> str:
    if isinstance(stmt, LocalDecl):
        return f"{stmt.dtype} {stmt.name} = {format_expr(stmt.init)};"
    assert isinstance(stmt, Assignment)
    return f"{stmt.lhs} {stmt.op} {format_expr(stmt.rhs)};"


def format_stencil(stencil: StencilDef) -> str:
    lines: List[str] = []
    if stencil.pragma is not None:
        lines.append(format_pragma(stencil.pragma))
    lines.append(f"stencil {stencil.name} ({', '.join(stencil.params)}) {{")
    if stencil.assign is not None:
        lines.append("  " + format_assign(stencil.assign))
    for stmt in stencil.body:
        lines.append("  " + format_statement(stmt))
    lines.append("}")
    return "\n".join(lines)


def format_program(program: Program) -> str:
    """Render a full program as DSL source text (parseable round trip)."""
    lines: List[str] = []
    if program.parameters:
        lines.append(
            "parameter "
            + ", ".join(f"{p.name}={p.value}" for p in program.parameters)
            + ";"
        )
    if program.iterators:
        lines.append("iterator " + ", ".join(program.iterators) + ";")
    by_dtype: dict = {}
    for decl in program.decls:
        by_dtype.setdefault(decl.dtype, []).append(decl)
    for dtype, decls in by_dtype.items():
        rendered = []
        for decl in decls:
            if decl.is_array:
                dims = ",".join(str(d) for d in decl.dims)
                rendered.append(f"{decl.name}[{dims}]")
            else:
                rendered.append(decl.name)
        lines.append(f"{dtype} " + ", ".join(rendered) + ";")
    if program.copyin:
        lines.append("copyin " + ", ".join(program.copyin) + ";")
    if program.time_iterations != 1:
        lines.append(f"iterate {program.time_iterations};")
    for stencil in program.stencils:
        lines.append(format_stencil(stencil))
    for call in program.calls:
        lines.append(f"{call.name} ({', '.join(call.args)});")
    if program.copyout:
        lines.append("copyout " + ", ".join(program.copyout) + ";")
    return "\n".join(lines) + "\n"
