"""Storage and computation folding (paper Section III-B4).

A common motif in spatial stencils is an element-wise operation between
two or more arrays: if *all* accesses to arrays ``A0..An`` are of the
form ``A0[i] ⊙ A1[i] ⊙ ... ⊙ An[i]`` (same point-wise operator, same
offsets within each occurrence), the combined value can be stored once in
shared memory or a register instead of buffering each array separately.
This reduces resource usage and removes recomputation at source level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..dsl.ast import (
    ArrayAccess,
    BinOp,
    Call,
    Expr,
    Name,
    Num,
    UnaryOp,
)
from .memo import OwnerMemo
from .stencil import Statement, StencilInstance

#: Associative chain operators, plus binary subtraction (the SW4
#: dissipation motif ``u - um``, always combined point-wise).
_FOLDABLE_OPS = ("*", "+")
_BINARY_OPS = ("-",)


@dataclass(frozen=True)
class FoldGroup:
    """A set of arrays always combined point-wise with one operator."""

    members: Tuple[str, ...]  # sorted array names, len >= 2
    op: str  # '*' or '+'

    @property
    def folded_name(self) -> str:
        return "_fold_" + "_".join(self.members)


@dataclass(frozen=True)
class FoldedArray:
    """Definition of a virtual array produced by folding."""

    name: str
    members: Tuple[str, ...]
    op: str


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


#: Each instance's fold groups (every tuning unit of a program asks).
_FOLDS = OwnerMemo()


def find_fold_groups(instance: StencilInstance) -> Tuple[FoldGroup, ...]:
    """Find maximal array groups eligible for folding in this kernel.

    A group is eligible when every read of each member array in the whole
    kernel occurs inside an associative ``op`` chain together with *all*
    other members at identical subscripts.  Written arrays are excluded.
    Memoized per instance.
    """
    return _FOLDS.get(
        instance, "groups", "fold_groups", lambda: _fold_groups(instance)
    )


def _fold_groups(instance: StencilInstance) -> Tuple[FoldGroup, ...]:
    written = set(instance.arrays_written())
    occurrences: Dict[str, List[Optional[Tuple[Tuple[str, ...], str]]]] = {}
    for stmt in instance.statements:
        _scan(stmt.rhs, None, occurrences)
    groups: Dict[Tuple[Tuple[str, ...], str], Set[str]] = {}
    for array, contexts in occurrences.items():
        if array in written:
            continue
        first = contexts[0]
        if first is None:
            continue
        if any(ctx != first for ctx in contexts):
            continue
        members, op = first
        if array not in members or len(members) < 2:
            continue
        groups.setdefault((members, op), set()).add(array)
    result: List[FoldGroup] = []
    for (members, op), covered in sorted(groups.items()):
        # Every member must itself have consistent occurrences.
        if set(members) == covered and not (set(members) & written):
            result.append(FoldGroup(members=members, op=op))
    return tuple(result)


def _scan(
    expr: Expr,
    context: Optional[Tuple[Tuple[str, ...], str]],
    occurrences: Dict[str, List[Optional[Tuple[Tuple[str, ...], str]]]],
) -> None:
    """Record, for each array read, the fold context it appears in."""
    chain = _pointwise_chain(expr)
    if chain is not None:
        members, op, accesses, others = chain
        ctx = (members, op)
        for access in accesses:
            occurrences.setdefault(access.name, []).append(ctx)
        for other in others:
            _scan(other, None, occurrences)
        return
    if isinstance(expr, ArrayAccess):
        occurrences.setdefault(expr.name, []).append(None)
        return
    if isinstance(expr, BinOp):
        _scan(expr.left, None, occurrences)
        _scan(expr.right, None, occurrences)
    elif isinstance(expr, UnaryOp):
        _scan(expr.operand, None, occurrences)
    elif isinstance(expr, Call):
        for arg in expr.args:
            _scan(arg, None, occurrences)


def _pointwise_chain(expr: Expr):
    """If ``expr`` is an associative chain combining >=2 distinct arrays
    at identical subscripts, return (members, op, accesses, other_factors).

    Binary subtraction of two same-subscript accesses also qualifies
    (non-associative, so never flattened further).
    """
    if isinstance(expr, BinOp) and expr.op in _BINARY_OPS:
        left, right = expr.left, expr.right
        if (
            isinstance(left, ArrayAccess)
            and isinstance(right, ArrayAccess)
            and left.indices == right.indices
            and left.name != right.name
        ):
            # Member order is semantic for '-': keep (minuend,
            # subtrahend) rather than sorting.
            return (left.name, right.name), expr.op, [left, right], []
        return None
    if not (isinstance(expr, BinOp) and expr.op in _FOLDABLE_OPS):
        return None
    op = expr.op
    leaves: List[Expr] = []
    _flatten(expr, op, leaves)
    accesses = [leaf for leaf in leaves if isinstance(leaf, ArrayAccess)]
    others = [leaf for leaf in leaves if not isinstance(leaf, ArrayAccess)]
    if len(accesses) < 2:
        return None
    indices = accesses[0].indices
    names = []
    for access in accesses:
        if access.indices != indices or access.name in names:
            return None
        names.append(access.name)
    return tuple(sorted(names)), op, accesses, others


def _flatten(expr: Expr, op: str, out: List[Expr]) -> None:
    if isinstance(expr, BinOp) and expr.op == op:
        _flatten(expr.left, op, out)
        _flatten(expr.right, op, out)
    else:
        out.append(expr)


# ---------------------------------------------------------------------------
# transformation
# ---------------------------------------------------------------------------


def apply_folding(
    instance: StencilInstance, groups: Tuple[FoldGroup, ...]
) -> Tuple[StencilInstance, Tuple[FoldedArray, ...]]:
    """Rewrite the kernel to read folded virtual arrays.

    Each occurrence of a group's chain is replaced by one access to the
    group's virtual array (subscripted with the occurrence's offsets);
    leftover non-array factors of the chain are preserved.
    """
    if not groups:
        return instance, ()
    by_members = {(g.members, g.op): g for g in groups}
    new_statements: List[Statement] = []
    for stmt in instance.statements:
        new_rhs = _rewrite(stmt.rhs, by_members)
        new_statements.append(stmt.with_rhs(new_rhs))
    folded = tuple(
        FoldedArray(name=g.folded_name, members=g.members, op=g.op) for g in groups
    )
    return instance.replace(statements=tuple(new_statements)), folded


def _rewrite(expr: Expr, by_members) -> Expr:
    chain = _pointwise_chain(expr)
    if chain is not None:
        members, op, accesses, others = chain
        group = by_members.get((members, op))
        if group is not None:
            folded_access: Expr = ArrayAccess(group.folded_name, accesses[0].indices)
            result = folded_access
            for other in others:
                result = BinOp(op, result, _rewrite(other, by_members))
            return result
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op, _rewrite(expr.left, by_members), _rewrite(expr.right, by_members)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite(expr.operand, by_members))
    if isinstance(expr, Call):
        args = []
        for arg in expr.args:  # a loop: one interpreter frame per nested call
            args.append(_rewrite(arg, by_members))
        return Call(expr.func, tuple(args))
    return expr
