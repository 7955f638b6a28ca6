"""AST node definitions for the ARTEMIS stencil DSL.

Two families of nodes live here:

* **Expression nodes** — the restricted-C expression language used on the
  right-hand side of stencil statements.  All memory accesses are scalars
  or array elements, and array index expressions are affine functions of
  the declared iterators and integer constants (paper, Section II).
* **Program nodes** — declarations, pragmas, stencil definitions and
  stencil calls that make up a specification file.

All nodes are immutable; transformations build new trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

# ---------------------------------------------------------------------------
# Source spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpan:
    """A 1-based source position carried from lexer tokens to AST nodes.

    ``line``/``col`` locate the first token of the construct; the
    optional end coordinates (0 when unknown) delimit it.  Spans are
    diagnostic metadata only: they are excluded from node equality and
    hashing, so two programs that differ only in whitespace still
    compare equal (the printer round-trip tests rely on this).
    """

    line: int
    col: int
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def span_of(node) -> Optional["SourceSpan"]:
    """The node's source span, or None for synthesized nodes."""
    return getattr(node, "span", None)


# ---------------------------------------------------------------------------
# Affine index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineIndex:
    """An affine function of iterators: ``sum(coeffs[it] * it) + const``.

    Array subscripts in the DSL must reduce to this form.  The common case
    for stencils is a single iterator with coefficient 1 and a small
    constant offset (e.g. ``k-1``), but general affine forms are accepted
    by the frontend and restricted later where a transformation needs the
    simple form.
    """

    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(coeffs: Mapping[str, int], const: int = 0) -> "AffineIndex":
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return AffineIndex(items, const)

    @property
    def coeff_map(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def single_iterator(self) -> Optional[str]:
        """Return the iterator name if this is ``1*it + const``, else None."""
        if len(self.coeffs) == 1 and self.coeffs[0][1] == 1:
            return self.coeffs[0][0]
        return None

    def offset_for(self, iterator: str) -> Optional[int]:
        """Constant offset relative to ``iterator`` if of form ``it + c``."""
        if self.single_iterator() == iterator:
            return self.const
        return None

    def shifted(self, delta: int) -> "AffineIndex":
        return AffineIndex(self.coeffs, self.const + delta)

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        expr = "+".join(parts).replace("+-", "-")
        if not expr:
            return str(self.const)
        if self.const > 0:
            return f"{expr}+{self.const}"
        if self.const < 0:
            return f"{expr}{self.const}"
        return expr


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

Expr = Union["Num", "Name", "ArrayAccess", "BinOp", "UnaryOp", "Call"]


@dataclass(frozen=True)
class Num:
    """Numeric literal. ``is_int`` distinguishes ``6`` from ``6.0``."""

    value: float
    is_int: bool = False

    def __str__(self) -> str:
        if self.is_int:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Name:
    """A reference to a scalar variable (or, in index context, an iterator)."""

    id: str

    def __str__(self) -> str:
        return self.id


@dataclass(frozen=True)
class ArrayAccess:
    """``A[k-1][j][i+2]`` — an array element read or write."""

    name: str
    indices: Tuple[AffineIndex, ...]

    @property
    def ndim(self) -> int:
        return len(self.indices)

    def offsets(self, iterators: Sequence[str]) -> Optional[Tuple[int, ...]]:
        """Constant offsets per dimension when each index is ``it + c``.

        ``iterators`` gives the expected iterator for each dimension of
        this access (outermost first).  Returns None when any index is not
        in the simple shifted form (e.g. a constant subscript or a skewed
        affine index).
        """
        if len(iterators) != len(self.indices):
            return None
        out = []
        for it, idx in zip(iterators, self.indices):
            off = idx.offset_for(it)
            if off is None:
                return None
            out.append(off)
        return tuple(out)

    def shifted(self, dim: int, delta: int) -> "ArrayAccess":
        new = list(self.indices)
        new[dim] = new[dim].shifted(delta)
        return ArrayAccess(self.name, tuple(new))

    def __str__(self) -> str:
        return self.name + "".join(f"[{idx}]" for idx in self.indices)


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic: op in ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp:
    """Unary ``-`` or ``+``."""

    op: str
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Call:
    """A math intrinsic call such as ``sqrt(x)`` or ``fmax(a, b)``."""

    func: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all sub-expressions in pre-order.

    An explicit stack instead of recursion: each node is yielded once,
    not re-yielded through every ancestor, and tree depth is bounded by
    memory rather than by the interpreter's recursion limit.
    """
    stack = [expr]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        yield node
        cls = type(node)
        if cls is BinOp:
            push(node.right)
            push(node.left)
        elif cls is UnaryOp:
            push(node.operand)
        elif cls is Call:
            stack.extend(reversed(node.args))


_NO_REFS: Tuple[tuple, tuple] = ((), ())


def _refs(expr: Expr) -> Tuple[Tuple[ArrayAccess, ...], Tuple[str, ...]]:
    """``(accesses, names)`` of ``expr`` in pre-order, repeats included.

    Expression nodes are frozen, so the pair of an interior node is
    computed by one walk on first use and pinned on the node; it dies
    with its tree.  Leaves answer directly, which also keeps an
    ``ArrayAccess`` from pinning a tuple that holds itself (a reference
    cycle only the garbage collector could free).
    """
    cls = type(expr)
    if cls is ArrayAccess:
        return (expr,), ()
    if cls is Name:
        return (), (expr.id,)
    if cls is Num:
        return _NO_REFS
    refs = expr.__dict__.get("_refs")
    if refs is None:
        accesses = []
        names = []
        for node in walk(expr):
            kind = type(node)
            if kind is ArrayAccess:
                accesses.append(node)
            elif kind is Name:
                names.append(node.id)
        refs = (tuple(accesses), tuple(names))
        object.__setattr__(expr, "_refs", refs)
    return refs


def array_accesses(expr: Expr) -> Iterator[ArrayAccess]:
    """Yield every ArrayAccess in ``expr`` (with repetition)."""
    return iter(_refs(expr)[0])


def scalar_names(expr: Expr) -> Iterator[str]:
    """Yield every scalar Name referenced in ``expr`` (with repetition)."""
    return iter(_refs(expr)[1])


# ---------------------------------------------------------------------------
# Program nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parameter:
    """``parameter L=512`` — a compile-time extent constant."""

    name: str
    value: int
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class VarDecl:
    """``double in[L,M,N]`` or ``double a`` — array or scalar declaration.

    ``dims`` holds parameter names or integer literals, outermost first;
    an empty tuple declares a scalar.
    """

    name: str
    dtype: str
    dims: Tuple[Union[str, int], ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Pragma:
    """Auxiliary code-generation info attached to the next stencil def.

    Mirrors the paper's ``#pragma stream k block (32,16) unroll j=2`` with
    the Section II-B2 ``occupancy t`` extension.
    """

    stream_dim: Optional[str] = None
    block: Tuple[int, ...] = ()
    unroll: Tuple[Tuple[str, int], ...] = ()
    occupancy: Optional[float] = None
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def unroll_map(self) -> Dict[str, int]:
        return dict(self.unroll)


@dataclass(frozen=True)
class AssignDirective:
    """``#assign shmem (u0,u1,u2), gmem (mu,la)`` — Section II-B1.

    Maps array names to a storage class the generator must honour.
    Storage classes: ``shmem``, ``gmem``, ``register``, ``constant``.
    """

    placements: Tuple[Tuple[str, str], ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def placement_map(self) -> Dict[str, str]:
        return dict(self.placements)


@dataclass(frozen=True)
class LocalDecl:
    """``double c = b * h2inv;`` — a per-point temporary scalar."""

    name: str
    dtype: str
    init: Expr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Assignment:
    """``B[k][j][i] = expr;`` or ``r += expr;`` — a stencil statement."""

    lhs: Union[ArrayAccess, Name]
    rhs: Expr
    op: str = "="  # '=' or '+='
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def target(self) -> str:
        return self.lhs.name if isinstance(self.lhs, ArrayAccess) else self.lhs.id


Stmt = Union[LocalDecl, Assignment]


@dataclass(frozen=True)
class StencilDef:
    """A named stencil function with positional parameters."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]
    assign: Optional[AssignDirective] = None
    pragma: Optional[Pragma] = None
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StencilCall:
    """``jacobi(out, in, h2inv, a, b);`` — invoke a stencil definition."""

    name: str
    args: Tuple[str, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    """A complete stencil specification file."""

    parameters: Tuple[Parameter, ...] = ()
    iterators: Tuple[str, ...] = ()
    decls: Tuple[VarDecl, ...] = ()
    copyin: Tuple[str, ...] = ()
    copyout: Tuple[str, ...] = ()
    stencils: Tuple[StencilDef, ...] = ()
    calls: Tuple[StencilCall, ...] = ()
    time_iterations: int = 1

    # -- convenience lookups ------------------------------------------------

    @property
    def parameter_map(self) -> Dict[str, int]:
        return {p.name: p.value for p in self.parameters}

    @property
    def decl_map(self) -> Dict[str, VarDecl]:
        return {d.name: d for d in self.decls}

    def stencil(self, name: str) -> StencilDef:
        for s in self.stencils:
            if s.name == name:
                return s
        raise KeyError(name)

    def array_shape(self, name: str) -> Tuple[int, ...]:
        """Concrete shape of a declared array, resolving parameter names."""
        decl = self.decl_map[name]
        params = self.parameter_map
        return tuple(params[d] if isinstance(d, str) else d for d in decl.dims)

    def replace(self, **changes) -> "Program":
        from dataclasses import replace as _replace

        return _replace(self, **changes)
