"""Statement decomposition into accumulation sub-statements (§III-B2).

Decomposition leverages operator associativity and distributivity to
split a stencil statement ``out = e1 + e2 - e3`` into the accumulation
chain ``acc = e1; acc += e2; acc += -e3; out = acc``.  Retiming then
shifts each homogenizable sub-statement independently along the
streaming dimension, balancing GPU resource usage between memory and
registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..dsl.ast import BinOp, Expr, Name, UnaryOp
from .stencil import Statement


def split_accumulation(
    expr: Expr, distribute: bool = False
) -> Tuple[Tuple[int, Expr], ...]:
    """Flatten the top-level additive chain of ``expr``.

    Returns ``((sign, term), ...)`` with sign in {+1, -1} such that
    ``expr == sum(sign * term)``.  Multiplications, divisions, calls and
    parenthesized groups are opaque terms.

    With ``distribute=True``, products over additive groups are expanded
    first — the paper's decomposition "leverages operator associativity
    and distributivity", which is what makes ``c*(A[k-1] + A[k+1])``
    retimable (each distributed term has a single stream offset).
    """
    if distribute:
        expr = distribute_products(expr)
    terms: List[Tuple[int, Expr]] = []
    _collect(expr, +1, terms)
    return tuple(terms)


def distribute_products(expr: Expr) -> Expr:
    """Expand products/quotients over additive sub-expressions.

    ``c * (x + y) -> c*x + c*y`` and ``(x - y) / d -> x/d - y/d``.
    Applied recursively until fixpoint; call arguments are left intact
    (distribution inside ``sqrt`` would not help retiming).
    """
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        return BinOp(
            expr.op,
            distribute_products(expr.left),
            distribute_products(expr.right),
        )
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return UnaryOp("-", distribute_products(expr.operand))
    if isinstance(expr, BinOp) and expr.op == "*":
        left = distribute_products(expr.left)
        right = distribute_products(expr.right)
        left_terms = _additive_terms(left)
        right_terms = _additive_terms(right)
        if len(left_terms) == 1 and len(right_terms) == 1:
            return BinOp("*", left, right)
        products: List[Tuple[int, Expr]] = []
        for ls, lt in left_terms:
            for rs, rt in right_terms:
                products.append((ls * rs, BinOp("*", lt, rt)))
        return join_accumulation(tuple(products))
    if isinstance(expr, BinOp) and expr.op == "/":
        left = distribute_products(expr.left)
        right = distribute_products(expr.right)
        left_terms = _additive_terms(left)
        if len(left_terms) == 1:
            return BinOp("/", left, right)
        quotients = tuple(
            (sign, BinOp("/", term, right)) for sign, term in left_terms
        )
        return join_accumulation(quotients)
    return expr


def _additive_terms(expr: Expr) -> Tuple[Tuple[int, Expr], ...]:
    terms: List[Tuple[int, Expr]] = []
    _collect(expr, +1, terms)
    return tuple(terms)


def _collect(expr: Expr, sign: int, terms: List[Tuple[int, Expr]]) -> None:
    if isinstance(expr, BinOp) and expr.op == "+":
        _collect(expr.left, sign, terms)
        _collect(expr.right, sign, terms)
    elif isinstance(expr, BinOp) and expr.op == "-":
        _collect(expr.left, sign, terms)
        _collect(expr.right, -sign, terms)
    elif isinstance(expr, UnaryOp) and expr.op == "-":
        _collect(expr.operand, -sign, terms)
    else:
        terms.append((sign, expr))


def join_accumulation(terms: Tuple[Tuple[int, Expr], ...]) -> Expr:
    """Inverse of :func:`split_accumulation` (up to associativity)."""
    if not terms:
        raise ValueError("cannot join zero terms")
    sign, first = terms[0]
    expr: Expr = UnaryOp("-", first) if sign < 0 else first
    for sign, term in terms[1:]:
        expr = BinOp("+" if sign > 0 else "-", expr, term)
    return expr


@dataclass(frozen=True)
class DecomposedStatement:
    """A grid statement rewritten as an accumulation chain."""

    original: Statement
    accumulator: str
    sub_statements: Tuple[Statement, ...]


def decompose_statement(stmt: Statement, accumulator: str) -> DecomposedStatement:
    """Rewrite a grid statement into accumulation sub-statements.

    ``out[k][j][i] = e1 + e2`` becomes::

        acc  = e1;
        acc += e2;
        out[k][j][i] = acc;

    Statements whose RHS is a single term decompose into an assignment
    plus the final store (still useful: retiming treats the lone term as
    one accumulation).
    """
    if stmt.is_local:
        raise ValueError("only grid statements are decomposed")
    terms = split_accumulation(stmt.rhs)
    subs: List[Statement] = []
    for index, (sign, term) in enumerate(terms):
        rhs: Expr = UnaryOp("-", term) if sign < 0 else term
        subs.append(
            Statement(
                lhs=Name(accumulator),
                rhs=rhs,
                op="=" if index == 0 else "+=",
                dtype=stmt.dtype,
            )
        )
    subs.append(Statement(lhs=stmt.lhs, rhs=Name(accumulator), op=stmt.op))
    return DecomposedStatement(
        original=stmt, accumulator=accumulator, sub_statements=tuple(subs)
    )
