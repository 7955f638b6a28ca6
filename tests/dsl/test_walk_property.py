"""Property: the iterative ``walk`` matches a recursive pre-order walk.

``repro.dsl.ast.walk`` uses an explicit stack, and ``array_accesses`` /
``scalar_names`` read a pair pinned on the node after one walk.  Both
must yield exactly what the textbook recursive pre-order walk yields:
the same nodes, in the same order, repeats included.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dsl.ast import (
    AffineIndex,
    ArrayAccess,
    BinOp,
    Call,
    Name,
    Num,
    UnaryOp,
    array_accesses,
    scalar_names,
    walk,
)


def reference_walk(expr):
    yield expr
    if isinstance(expr, BinOp):
        yield from reference_walk(expr.left)
        yield from reference_walk(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from reference_walk(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from reference_walk(arg)


_accesses = st.builds(
    lambda name, dk, di: ArrayAccess(
        name, (AffineIndex.of({"k": 1}, dk), AffineIndex.of({"i": 1}, di))
    ),
    st.sampled_from(["A", "B"]),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
_leaves = st.one_of(
    _accesses,
    st.sampled_from(["a", "b", "h2inv"]).map(Name),
    st.integers(0, 9).map(lambda v: Num(float(v), is_int=True)),
)
expressions = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(UnaryOp, st.just("-"), sub),
        st.builds(Call, st.just("sqrt"), st.tuples(sub)),
        st.builds(Call, st.just("fmax"), st.tuples(sub, sub)),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_walk_and_reference_agree(expr):
    expected = list(reference_walk(expr))
    walked = list(walk(expr))
    assert len(walked) == len(expected)
    assert all(a is b for a, b in zip(walked, expected))
    accesses = [n for n in expected if isinstance(n, ArrayAccess)]
    names = [n.id for n in expected if isinstance(n, Name)]
    # Twice each: the second read comes from the pinned pair.
    for _ in range(2):
        got = list(array_accesses(expr))
        assert len(got) == len(accesses)
        assert all(a is b for a, b in zip(got, accesses))
        assert list(scalar_names(expr)) == names


def test_ten_thousand_deep_chain_walks_without_recursion_error():
    depth = 10_000
    expr = ArrayAccess("A", (AffineIndex.of({"k": 1}),))
    for _ in range(depth):
        expr = BinOp("+", expr, Name("a"))
    nodes = list(walk(expr))
    assert len(nodes) == 2 * depth + 1
    assert sum(1 for _ in array_accesses(expr)) == 1
    assert sum(1 for _ in scalar_names(expr)) == depth
