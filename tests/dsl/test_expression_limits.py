"""Over-deep expressions end in a typed ``ParseError``, not a traceback.

The IR passes and code generators recurse over expression trees, so the
parser caps tree depth (:data:`MAX_EXPR_DEPTH`) and the nesting of
parentheses, calls and subscripts (:data:`MAX_NESTING`).  A program at
either cap tunes and emits CUDA cleanly; one step past it exits 3 with a
single ``error:`` line at the offending statement.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dsl import ParseError, parse
from repro.dsl.expr_parser import MAX_EXPR_DEPTH, MAX_NESTING

SRC = str(Path(__file__).resolve().parents[2] / "src")

TEMPLATE = """parameter L=16, M=16, N=16;
iterator k, j, i;
double a[L,M,N], b[L,M,N], c;
copyin a, c;
stencil s (B, A, c) {{
  double t = c;
  B[k][j][i] = {rhs};
}}
s (b, a, c);
copyout b;
"""
#: Where the ``B[k][j][i] = ...`` statement starts in TEMPLATE.
STATEMENT = (7, 3)


def deep_sum(terms: int) -> str:
    """A left-leaning sum ``terms`` nodes deep."""
    return TEMPLATE.format(rhs=" + ".join(["A[k][j][i]"] * terms))


def paren_nest(levels: int) -> str:
    """``levels`` nested parentheses around a scalar."""
    return TEMPLATE.format(rhs="A[k][j][i] * " + "(" * levels + "t" + ")" * levels)


def nested_calls(calls: int, terms: int) -> str:
    """``calls`` nested ``sqrt`` calls around a ``terms``-term sum."""
    sum_ = " + ".join(["A[k][j][i]"] * terms)
    return TEMPLATE.format(rhs="sqrt(" * calls + sum_ + ")" * calls)


AT_CAP = {
    "sum": deep_sum(MAX_EXPR_DEPTH),
    "paren": paren_nest(MAX_NESTING),
    # Both caps at once: the subscripts take the last nesting level, and
    # every pass must spend one interpreter frame per call, not two.
    "calls": nested_calls(MAX_NESTING - 1, MAX_EXPR_DEPTH - MAX_NESTING + 1),
}
PAST_CAP = {"sum": deep_sum(MAX_EXPR_DEPTH + 1), "paren": paren_nest(MAX_NESTING + 1)}


def test_caps_are_no_lower_than_what_always_worked():
    assert MAX_EXPR_DEPTH >= 900
    assert MAX_NESTING >= 200


@pytest.mark.parametrize("kind", sorted(PAST_CAP))
def test_one_past_the_cap_is_a_parse_error_at_the_statement(kind):
    with pytest.raises(ParseError) as info:
        parse(PAST_CAP[kind])
    assert (info.value.line, info.value.col) == STATEMENT
    assert str(MAX_EXPR_DEPTH if kind == "sum" else MAX_NESTING) in str(info.value)


def test_limit_errors_point_at_local_declarations_and_targets():
    deep = " + ".join(["c"] * (MAX_EXPR_DEPTH + 1))
    with pytest.raises(ParseError) as info:
        parse(TEMPLATE.format(rhs="t").replace("double t = c;", f"double t = {deep};"))
    assert (info.value.line, info.value.col) == (6, 3)
    nested = "(" * (MAX_NESTING + 1) + "k" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as info:
        parse(TEMPLATE.format(rhs="t").replace("B[k][j][i] =", f"B[{nested}][j][i] ="))
    assert (info.value.line, info.value.col) == STATEMENT


def test_nested_calls_count_towards_the_nesting_cap():
    # Each call and the subscript inside count towards MAX_NESTING.
    parse(nested_calls(MAX_NESTING - 1, 1))
    with pytest.raises(ParseError) as info:
        parse(nested_calls(MAX_NESTING, 1))
    assert str(MAX_NESTING) in str(info.value)


def run_cli(*args):
    """Run the CLI in a fresh interpreter, at the stack depth users get."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


@pytest.mark.parametrize("kind", sorted(AT_CAP))
def test_program_at_the_cap_optimizes_and_emits_cuda(kind, tmp_path):
    path = tmp_path / f"{kind}.stencil"
    path.write_text(AT_CAP[kind])
    tuned = run_cli("optimize", str(path))
    assert tuned.returncode == 0, tuned.stderr
    emitted = run_cli("cuda", str(path))
    assert emitted.returncode == 0, emitted.stderr
    assert "__global__" in emitted.stdout


@pytest.mark.parametrize("kind", sorted(PAST_CAP))
def test_cli_exits_3_with_one_error_line(kind, tmp_path):
    path = tmp_path / f"{kind}.stencil"
    path.write_text(PAST_CAP[kind])
    proc = run_cli("optimize", str(path))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    assert f"line={STATEMENT[0]}" in errors[0] and f"col={STATEMENT[1]}" in errors[0]
