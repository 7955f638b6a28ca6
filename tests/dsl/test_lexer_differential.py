"""Differential tests of the front end's fast paths against their references.

* The regex lexer (:mod:`repro.dsl.lexer`) against the character-loop
  lexer it replaced (``reference_lexer.py``): the same tokens, or the
  same ``LexError`` message, line and column, on strings drawn from the
  DSL's own alphabet plus comment markers, blanks and three non-ASCII
  characters whose ``str`` classification differs from the regex
  classes (``é`` is a letter, ``²`` a digit but no ``\\d``, ``٣`` a
  decimal digit).
* Interned subscripts (:meth:`TokenStream.subscript_key`) against the
  full parse-and-lower route: the same ``repr(parse())``.

CI runs the first property with ``--hypothesis-profile=fuzz
--hypothesis-seed=0`` for about 2,000 examples.
"""

from __future__ import annotations

import string
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import DSLError, LexError, parse
from repro.dsl.expr_parser import TokenStream
from repro.dsl.lexer import tokenize

from tests.dsl.reference_lexer import reference_tokenize

ATOMS = (
    list(string.ascii_letters)
    + list(string.digits)
    + list("._eEfF+-*/=<>!?:;,()[]{}#")
    + ["//", "/*", "*/", " ", "\t", "\r", "\n", "é", "²", "٣"]
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
        "",
    ):
        assert _lex(tokenize, text) == _lex(reference_tokenize, text), text


# -- interned subscripts ------------------------------------------------------

ITERATORS = ("k", "j", "i")


@st.composite
def subscripts(draw):
    it = draw(st.sampled_from(ITERATORS))
    c = draw(st.integers(0, 3))  # few values, so forms often repeat
    pad = draw(st.sampled_from(("", " ")))
    forms = (
        f"{it}",
        f"{it}{pad}+{pad}{c}",
        f"{it}{pad}-{pad}{c}",
        f"{c}",
        f"{c}{pad}+{pad}{it}",
        f"-{it}",
        f"2*{it}{pad}-{pad}{c}",
        f"{it}+{c}-{c}",
        f"({it}+{c})",
        f"{it}+0{c}",
        f"{it}*{it}",
        f"{it}+{c}.0",
    )
    return f"[{pad}{draw(st.sampled_from(forms))}{pad}]"


@st.composite
def programs(draw):
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        subs = "".join(draw(subscripts()) for _ in range(3))
        terms.append(f"A{subs}")
    return (
        "parameter N=16;\n"
        "iterator k, j, i;\n"
        "double a[N,N,N], b[N,N,N];\n"
        "copyin a;\n"
        "stencil s (B, A) {\n"
        f"  B[k][j][i] = {' + '.join(terms)};\n"
        "}\n"
        "s (b, a);\n"
        "copyout b;\n"
    )


def _parse(text):
    try:
        return repr(parse(text, validate=False))
    except DSLError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)


@settings(deadline=None)
@given(programs())
def test_interned_subscripts_parse_like_the_full_route(text):
    interned = _parse(text)
    with mock.patch.object(TokenStream, "subscript_key", lambda self: None):
        full = _parse(text)
    assert interned == full


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
