"""Differential tests of the front end's fast paths against their references.

* The regex lexer (:mod:`repro.dsl.lexer`) against the character-loop
  lexer it replaced (``reference_lexer.py``): the same tokens, or the
  same ``LexError`` message, line and column, on strings drawn from the
  DSL's own alphabet plus comment markers, blanks and three non-ASCII
  characters whose ``str`` classification differs from the regex
  classes (``é`` is a letter, ``²`` a digit but no ``\\d``, ``٣`` a
  decimal digit).  ``tokenize`` is the expansion of the fused scan, so
  this also checks every chain's split.
* The fused scan (:func:`repro.dsl.lexer.scan`, one ``SUBSCRIPTS`` token
  per chain of simple subscripts) against its expansion, fed to the
  same parser: the same ``repr`` of the validated program, or the same
  error type, message, line and column.  The programs mix chains with
  blank-padded, general, non-affine and unclosed subscripts, 1-D
  declarations, ``+=`` targets, chains in call arguments, stray chains
  and accesses at the nesting cap.

CI runs both properties with ``--hypothesis-profile=fuzz
--hypothesis-seed=0`` for about 2,000 examples each.
"""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import DSLError, LexError, parse
from repro.dsl.expr_parser import MAX_NESTING, TokenStream
from repro.dsl.lexer import scan, tokenize
from repro.dsl.parser import _ProgramParser
from repro.dsl.validate import validate_program

from tests.dsl.reference_lexer import reference_tokenize

ATOMS = (
    list(string.ascii_letters)
    + list(string.digits)
    + list("._eEfF+-*/=<>!?:;,()[]{}#")
    + ["//", "/*", "*/", " ", "\t", "\r", "\n", "é", "²", "٣"]
    # whole simple subscripts, so that chains are common
    + ["[i]", "[j-1]", "[k+10]", "[2]"]
)


def _lex(lex, text):
    try:
        return [tuple(tok) for tok in lex(text)]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.col)


@settings(deadline=None)
@given(st.lists(st.sampled_from(ATOMS), max_size=60).map("".join))
def test_regex_lexer_matches_character_loop(text):
    assert _lex(tokenize, text) == _lex(reference_tokenize, text)


def test_differential_alphabet_reaches_every_branch():
    """Fixed inputs for the cases the fuzz must be able to hit."""
    for text in (
        "1e+ 1e+x 1.e5f .5E-3F 1..2 1ee5 x1²é ² ٣2 1² 1e² .² é_1",
        "#pragma a /* c */ b\n y // z\n/* a\nb */ c",
        "a ½ b",
        "a /* never ends",
        "a\r\n\tb   ",
        "u[k][j-1][i+10]*w[2] [i]é[j]²",
        "",
    ):
        assert _lex(tokenize, text) == _lex(reference_tokenize, text), text


# -- the fused scan against the token stream ----------------------------------

ITERATORS = ("k", "j", "i")
CONSTANTS = ("0", "1", "2", "007", "123456789012345", "1234567890123456", "1" * 400)


@st.composite
def subscripts(draw):
    it = draw(st.sampled_from(ITERATORS))
    c = draw(st.sampled_from(CONSTANTS[:3] if draw(st.integers(0, 9)) else CONSTANTS))
    simple = (f"[{it}]", f"[{it}+{c}]", f"[{it}-{c}]", f"[{c}]")
    general = (
        f"[ {it}]",
        f"[{it} + {c}]",
        f"[{c}+{it}]",
        f"[-{it}]",
        f"[2*{it}-{c}]",
        f"[({it}+{c})]",
        f"[{it}+{c}-{c}]",
    )
    bad = (
        f"[{it}*{it}]",
        f"[{it}+1.0]",
        "[1²]",
        f"[{it}é]",
        f"[a[{it}]]",
        f"[{it}",
    )
    # Mostly chains, so most programs parse and repeats share indices.
    kind = draw(st.integers(0, 19))
    forms = simple if kind < 14 else general if kind < 19 else bad
    return draw(st.sampled_from(forms))


@st.composite
def accesses(draw):
    if draw(st.integers(0, 4)) == 0:
        return f"w{draw(subscripts())}"
    return "A" + "".join(draw(subscripts()) for _ in range(3))


@st.composite
def terms(draw):
    access = draw(accesses())
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return f"sqrt({access})"
    if kind == 1:
        return f"fmax({access}, {draw(accesses())})"
    if kind == 2:
        # around the nesting cap: the access takes the last level
        depth = MAX_NESTING - draw(st.integers(0, 2))
        return "(" * depth + access + ")" * depth
    if kind <= 5:
        return draw(
            st.sampled_from(("c", "2.5", "-c", "[k]", "-[k]", "1[k]", "(c)[k]"))
        )
    return access


@st.composite
def statements(draw):
    rhs = " + ".join(draw(st.lists(terms(), min_size=1, max_size=4)))
    target = draw(
        st.sampled_from(("B[k][j][i]", "B[k][ j][i]", "B[k][j][i+1]", "t"))
    )
    op = draw(st.sampled_from(("=", "+=")))
    return f"  {target} {op} {rhs};\n"


@st.composite
def fused_programs(draw):
    decls = draw(
        st.sampled_from(
            (
                "double a[N,N,N], b[N,N,N], v[N], c;",
                "double a[N,N,N], b[N,N,N], v[ N], c;",
                "double a[N,N,N], b[N,N,N], v[16], c;",
            )
            if draw(st.integers(0, 9))
            else ("double a[N,N,N], b[N,N,N], v[N][N], c;", "double a[N][N], v[N];")
        )
    )
    body = "".join(draw(st.lists(statements(), min_size=1, max_size=4)))
    return (
        "parameter N=16;\n"
        "iterator k, j, i;\n"
        f"{decls}\n"
        "copyin a, v, c;\n"
        "stencil s (B, A, w, c) {\n"
        "  double t = c;\n"
        f"{body}"
        "}\n"
        "s (b, a, v, c);\n"
        "copyout b;\n"
    )


def _parse_from(lex, text):
    """``repr`` of the validated program the parser reads from ``lex``'s
    tokens, or the error's type, message, line and column."""
    try:
        program = _ProgramParser(TokenStream(lex(text))).parse_program()
        validate_program(program)
        return repr(program)
    except DSLError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)


@settings(deadline=None)
@given(fused_programs())
def test_fused_scan_parses_like_the_token_stream(text):
    assert _parse_from(scan, text) == _parse_from(tokenize, text)


def test_fused_routes_reach_every_reader():
    """Fixed programs for the readers the fuzz must be able to hit: a
    chain is one token, and the parse matches the token route."""
    base = (
        "parameter N=16; iterator k, j, i; double a[N,N,N], b[N,N,N], v[N];"
        "copyin a; stencil s (B, A, w) {{ {body} }} s (b, a, v); copyout b;"
    )
    chain = [tok for tok in scan("B[k][j][i+1] = v[i]") if tok.kind == "SUBSCRIPTS"]
    assert [tok.value for tok in chain] == ["[k][j][i+1]", "[i]"]
    for body in (
        "B[k][j][i] = A[k][j][i+1] * w[i-2] + A[k][j][ i];",
        "B[k][j][i] += fmax(A[k][j][i], w[3]);",
        "B[k][j][i] = [k];",
        "B[k][j][i] = 1[k];",
        "B[k][j][i] = A[k][j][i" + "+1" * 2 + "];",
        "B[k][j][i] = A[k][j][i+" + "1" * 400 + "];",
        "B[k][j][i] = A[k][j][i+1.0];",
        "B[k][j][i] = " + "(" * MAX_NESTING + "A[k][j][i]" + ")" * MAX_NESTING + ";",
    ):
        text = base.format(body=body)
        assert _parse_from(scan, text) == _parse_from(tokenize, text), body
    for decls in ("double v[N][N];", "double v[[N]];", "double [N];"):
        text = base.format(body="").replace("double a", decls + " double a")
        assert _parse_from(scan, text) == _parse_from(tokenize, text), decls
        assert isinstance(_parse_from(scan, text), tuple), decls


def test_interned_subscripts_share_one_index():
    program = parse(
        "parameter N=8; iterator k, j, i; double a[N,N,N], b[N,N,N];"
        "copyin a; stencil s (B, A) {"
        "  B[k][j][i] = A[k][j][i+1] + A[k][j][i + 1] + A[k][j][i-1];"
        "}"
        "s (b, a); copyout b;"
    )
    rhs = program.stencils[0].body[0].rhs
    first, second, third = rhs.left.left, rhs.left.right, rhs.right
    assert first.indices[2] is second.indices[2]
    assert first.indices[0] is third.indices[0]
    assert (first.indices[2].const, third.indices[2].const) == (1, -1)
