"""Parser for the restricted-C expression language of stencil statements.

Expressions consist of numeric literals, scalar references, array
accesses with affine index expressions, the four arithmetic operators,
unary plus/minus, parentheses, and calls to a small set of math
intrinsics.  Index expressions are parsed as general expressions and then
lowered to :class:`~repro.dsl.ast.AffineIndex`; a non-affine subscript is
a parse error, mirroring the affine-access restriction stated in
Section II of the paper.  So is an expression nested past
:data:`MAX_EXPR_DEPTH` or :data:`MAX_NESTING`.

The stencil subscripts ``[it]``, ``[it+c]``, ``[it-c]`` and ``[c]`` make
up nearly every subscript of a real program, and the lexer fuses a run
of them into one ``SUBSCRIPTS`` token (:func:`repro.dsl.lexer.scan`).
Each distinct chain is lowered once per parse to a tuple of
:class:`~repro.dsl.ast.AffineIndex`; later occurrences reuse the tuple.
A reader that expects no chain (a declaration's dimensions, or an error
report) first splits it back into its tokens in place
(:meth:`TokenStream.expand`), so it reads what a token-at-a-time scan
gives.  Every index lowered in one parse, from a chain or a general
subscript, is one object per distinct value, and so is every immutable
leaf the parse builds often: a chain access and a scalar name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import lexer
from .ast import AffineIndex, ArrayAccess, BinOp, Call, Expr, Name, Num, UnaryOp
from .errors import ParseError
from .lexer import Token

#: Math intrinsics accepted in stencil bodies, with their arity.
INTRINSICS = {
    "sqrt": 1,
    "cbrt": 1,
    "fabs": 1,
    "abs": 1,
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "tanh": 1,
    "fmin": 2,
    "fmax": 2,
    "min": 2,
    "max": 2,
    "pow": 2,
}


#: Deepest expression tree a statement may build, counted in nodes on
#: the longest root-to-leaf path: a sum of ``n`` terms is ``n`` deep, and
#: each unary minus or call adds a level.  The IR passes and the code
#: generators recurse over expression trees, so a deeper tree would end
#: in the interpreter's recursion limit instead of a diagnostic.
MAX_EXPR_DEPTH = 900

#: Deepest nesting of parentheses, call argument lists and array
#: subscripts: the constructs the expression parser recurses on.
MAX_NESTING = 256

# Token kinds, bound once: the hot paths compare against them per token.
_ID, _INT, _FLOAT, _PUNCT, _SUBSCRIPTS, _EOF = (
    lexer.ID,
    lexer.INT,
    lexer.FLOAT,
    lexer.PUNCT,
    lexer.SUBSCRIPTS,
    lexer.EOF,
)

# Operator sets for the one-lookahead decisions below.  Only PUNCT tokens
# carry these values (an ID, number or directive never does), so testing
# the current token's value alone decides.
_ADDITIVE = frozenset(("+", "-"))
_MULTIPLICATIVE = frozenset(("*", "/"))


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers.

    The list may hold ``SUBSCRIPTS`` chains (:func:`lexer.scan`).  Only
    :func:`_parse_array_access` reads a chain whole; :meth:`at` and
    :meth:`expect` expand a chain they do not match, and error reports
    expand before they read the token, so positions and messages are
    those of the expanded tokens.
    """

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        #: The token at the cursor: a plain attribute, as the expression
        #: parser reads it several times per token.
        self.current: Token = tokens[0]
        #: Lowered chains of this parse, keyed by the chain text.
        self.chains: Dict[str, Tuple[AffineIndex, ...]] = {}
        #: Every index lowered in this parse, one object per value.
        self.indices: Dict[AffineIndex, AffineIndex] = {}
        #: The leaves of this parse, which are immutable and so shared:
        #: an access whose subscripts are one chain, keyed by its text
        #: (``u[k][j][i+1]``), and every scalar reference, by name.
        self.accesses: Dict[str, ArrayAccess] = {}
        self.names: Dict[str, Name] = {}

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.current
        if tok.kind == _SUBSCRIPTS:
            tok = self.expand()
        return tok.kind == kind and (value is None or tok.value == value)

    def at_punct(self, value: str) -> bool:
        return self.at(_PUNCT, value)

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != _EOF:
            self._pos += 1
            self.current = self._tokens[self._pos]
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.current
        if tok.kind != kind or (value is not None and tok.value != value):
            if tok.kind == _SUBSCRIPTS:
                self.expand()
                return self.expect(kind, value)
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.value or tok.kind!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        return self.expect(_PUNCT, value)

    def expand(self) -> Token:
        """Split a chain at the cursor into its tokens; the current token."""
        tok = self.current
        if tok.kind == _SUBSCRIPTS:
            pos = self._pos
            self._tokens[pos : pos + 1] = lexer.expand(tok)
            tok = self.current = self._tokens[pos]
        return tok

    def lower_chain(self, text: str) -> Tuple[AffineIndex, ...]:
        """The indices of chain ``text``, lowered once per parse."""
        lowered = self.chains.get(text)
        if lowered is None:
            interned = self.indices
            out = []
            for name, sign, offset, const in lexer.SUBSCRIPT.findall(text):
                if name:
                    value = int(offset) if offset else 0
                    index = AffineIndex(
                        ((name, 1),), -value if sign == "-" else value
                    )
                else:
                    index = AffineIndex((), int(const))
                out.append(interned.setdefault(index, index))
            lowered = self.chains[text] = tuple(out)
        return lowered


def token_int(tok: Token) -> int:
    """The value of an INT token, or ParseError at the token.

    The lexer reads digits with ``str.isdigit`` and exponents without
    checking for digits, so it accepts number text that ``int`` and
    ``float`` cannot convert (``2²``, ``1e+``).
    """
    try:
        return int(tok.value)
    except ValueError:
        raise _malformed(tok) from None


def token_float(tok: Token) -> float:
    """The value of an INT or FLOAT token, or ParseError at the token."""
    try:
        return float(tok.value)
    except ValueError:
        raise _malformed(tok) from None


def _malformed(tok: Token) -> ParseError:
    return ParseError(f"malformed number {tok.value!r}", tok.line, tok.col)


class _TooDeep(Exception):
    """An expression passed a nesting limit; reported at its statement."""


def parse_expression(stream: TokenStream, where: Optional[Token] = None) -> Expr:
    """Parse an additive expression from the stream.

    An expression past :data:`MAX_EXPR_DEPTH` or :data:`MAX_NESTING`
    raises :class:`ParseError` at ``where`` (the enclosing statement's
    first token), or at the expression's first token when omitted.
    """
    where = where or stream.current
    try:
        return _parse_sum(stream, 0)[0]
    except _TooDeep as exc:
        raise ParseError(str(exc), where.line, where.col) from None


def parse_array_access(stream: TokenStream, name_tok: Token) -> ArrayAccess:
    """Parse the subscripts following ``name_tok`` (an assignment target).

    Nesting-limit errors are reported at ``name_tok``.
    """
    try:
        return _parse_array_access(stream, name_tok, 0)
    except _TooDeep as exc:
        raise ParseError(str(exc), name_tok.line, name_tok.col) from None


def parse_expr_text(text: str) -> Expr:
    """Parse ``text`` as a standalone expression (testing convenience)."""
    stream = TokenStream(lexer.scan(text))
    expr = parse_expression(stream)
    stream.expect(_EOF)
    return expr


# The recursive-descent functions return ``(tree, depth)`` so the depth
# limit is enforced as nodes are built, without another pass; ``nest``
# counts the enclosing parentheses, calls and subscripts.


def _too_deep() -> _TooDeep:
    return _TooDeep(f"expression is nested more than {MAX_EXPR_DEPTH} levels deep")


def _nested(nest: int) -> int:
    if nest >= MAX_NESTING:
        raise _nesting_error()
    return nest + 1


def _nesting_error() -> _TooDeep:
    return _TooDeep(
        f"more than {MAX_NESTING} nested parentheses, calls or subscripts"
    )


def _join(
    op: str, left: Expr, left_depth: int, right: Expr, right_depth: int
) -> Tuple[Expr, int]:
    depth = 1 + (left_depth if left_depth > right_depth else right_depth)
    if depth > MAX_EXPR_DEPTH:
        raise _too_deep()
    return BinOp(op, left, right), depth


def _parse_sum(stream: TokenStream, nest: int) -> Tuple[Expr, int]:
    """``product (('+'|'-') product)*`` with ``product`` being
    ``operand (('*'|'/') operand)*``.

    Both precedence levels share one loop, so a nested parenthesis costs
    two interpreter frames (this and :func:`_parse_operand`), not four.
    """
    total: Optional[Expr] = None
    total_depth = 0
    add_op = ""
    while True:
        term, depth = _parse_operand(stream, nest)
        op = stream.current.value
        while op in _MULTIPLICATIVE:
            stream.advance()
            right, right_depth = _parse_operand(stream, nest)
            term, depth = _join(op, term, depth, right, right_depth)
            op = stream.current.value
        if total is not None:
            term, depth = _join(add_op, total, total_depth, term, depth)
        if op not in _ADDITIVE:
            return term, depth
        stream.advance()
        total, total_depth, add_op = term, depth, op


def _parse_operand(stream: TokenStream, nest: int) -> Tuple[Expr, int]:
    """Leading unary signs (a ``+`` is dropped), then a primary."""
    tok = stream.current
    negations = 0
    while tok.value in _ADDITIVE:
        if tok.value == "-":
            negations += 1
        stream.advance()
        tok = stream.current
    kind = tok.kind
    if kind == _ID:
        stream.advance()
        follow = stream.current
        if follow.kind == _SUBSCRIPTS:
            if nest >= MAX_NESTING:
                raise _nesting_error()
            expr, depth = _parse_array_access(stream, tok, nest + 1), 1
        elif follow.value == "(":
            expr, depth = _parse_call(stream, tok, _nested(nest))
        elif follow.value == "[":
            expr, depth = _parse_array_access(stream, tok, _nested(nest)), 1
        else:
            expr = stream.names.get(tok.value)
            if expr is None:
                expr = stream.names[tok.value] = Name(tok.value)
            depth = 1
    elif kind == _INT or kind == _FLOAT:
        stream.advance()
        try:
            if kind == _INT:
                value = float(int(tok.value))
            else:
                value = float(tok.value)
        except ValueError:
            raise _malformed(tok) from None
        except OverflowError:  # an integer past the largest float
            raise ParseError(
                f"number {tok.value!r} is too large", tok.line, tok.col
            ) from None
        expr, depth = Num(value, is_int=kind == _INT), 1
    elif tok.value == "(":
        nest = _nested(nest)
        stream.advance()
        expr, depth = _parse_sum(stream, nest)
        stream.expect_punct(")")
    else:
        tok = stream.expand()
        raise ParseError(
            f"unexpected token {tok.value or tok.kind!r}", tok.line, tok.col
        )
    if negations:
        depth += negations
        if depth > MAX_EXPR_DEPTH:
            raise _too_deep()
        for _ in range(negations):
            expr = UnaryOp("-", expr)
    return expr, depth


def _parse_call(stream: TokenStream, name_tok: Token, nest: int) -> Tuple[Expr, int]:
    func = name_tok.value
    if func not in INTRINSICS:
        raise ParseError(f"unknown function {func!r}", name_tok.line, name_tok.col)
    stream.advance()  # '('
    args: List[Expr] = []
    depth = 0
    if stream.current.value != ")":
        while True:
            arg, arg_depth = _parse_sum(stream, nest)
            args.append(arg)
            if arg_depth > depth:
                depth = arg_depth
            if stream.current.value != ",":
                break
            stream.advance()
    stream.expect_punct(")")
    arity = INTRINSICS[func]
    if len(args) != arity:
        raise ParseError(
            f"{func} expects {arity} argument(s), got {len(args)}",
            name_tok.line,
            name_tok.col,
        )
    if depth >= MAX_EXPR_DEPTH:
        raise _too_deep()
    return Call(func, tuple(args)), depth + 1


def _parse_array_access(
    stream: TokenStream, name_tok: Token, nest: int
) -> ArrayAccess:
    tok = stream.current
    if tok.kind == _SUBSCRIPTS:
        chain = tok.value
        stream.advance()
        follow = stream.current
        if follow.value != "[" and follow.kind != _SUBSCRIPTS:
            key = name_tok.value + chain
            access = stream.accesses.get(key)
            if access is None:
                access = stream.accesses[key] = ArrayAccess(
                    name_tok.value, stream.lower_chain(chain)
                )
            return access
        indices = list(stream.lower_chain(chain))
    else:
        indices = []
    interned = stream.indices
    while True:
        tok = stream.current
        if tok.kind == _SUBSCRIPTS:
            indices.extend(stream.lower_chain(tok.value))
            stream.advance()
        elif tok.value == "[":
            stream.advance()
            idx_expr = _parse_sum(stream, nest)[0]
            stream.expect_punct("]")
            index = lower_affine(idx_expr, tok)
            indices.append(interned.setdefault(index, index))
        else:
            return ArrayAccess(name_tok.value, tuple(indices))


def lower_affine(expr: Expr, where: Token) -> AffineIndex:
    """Lower an index expression to affine form or raise ParseError."""
    try:
        coeffs, const = _affine_of(expr)
    except _NotAffine as exc:
        raise ParseError(
            f"array subscript is not an affine function of iterators: {exc}",
            where.line,
            where.col,
        ) from None
    return AffineIndex.of(coeffs, const)


class _NotAffine(Exception):
    pass


def _affine_of(expr: Expr) -> Tuple[dict, int]:
    """Return (coeffs, const) of an affine expression; raise _NotAffine."""
    if isinstance(expr, Num):
        if not expr.is_int:
            raise _NotAffine("non-integer constant in subscript")
        return {}, int(expr.value)
    if isinstance(expr, Name):
        return {expr.id: 1}, 0
    if isinstance(expr, UnaryOp) and expr.op == "-":
        coeffs, const = _affine_of(expr.operand)
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            lc, lk = _affine_of(expr.left)
            rc, rk = _affine_of(expr.right)
            sign = 1 if expr.op == "+" else -1
            merged = dict(lc)
            for name, coeff in rc.items():
                merged[name] = merged.get(name, 0) + sign * coeff
            return merged, lk + sign * rk
        if expr.op == "*":
            lc, lk = _affine_of(expr.left)
            rc, rk = _affine_of(expr.right)
            if lc and rc:
                raise _NotAffine("product of two iterator terms")
            if lc:
                return {k: v * rk for k, v in lc.items()}, lk * rk
            return {k: v * lk for k, v in rc.items()}, lk * rk
        raise _NotAffine(f"operator {expr.op!r} in subscript")
    raise _NotAffine(type(expr).__name__)
