"""Tokenizer for the ARTEMIS stencil DSL.

The language is the "minimal stencil language" of the paper (Section II)
plus the ARTEMIS-specific extensions (Section II-B).  The surface syntax
is a small, C-flavoured declaration language.  Two constructs are
line-oriented and handled specially:

* ``#pragma ...``  — auxiliary code-generation information (streaming
  dimension, thread block size, unroll factors, target occupancy).
* ``#assign ...``  — user-guided resource assignment inside a stencil
  function body.

The lexer turns those into a single :class:`Token` of kind ``DIRECTIVE``
whose value is the raw directive text; the directive sub-parsers in
:mod:`repro.dsl.pragmas` tokenize the payload on their own.

Scanning is one pass of a compiled master pattern (:data:`_TOKEN`) over
the comment-stripped text.  The pattern classifies ASCII exactly; a
token that starts at, or a number that touches, a non-ASCII character is
finished by ``str.isalpha``/``str.isdigit`` rules instead, because the
regex classes ``\\d`` and ``[^\\W\\d]`` are not ``isdigit`` and
``isalpha`` (``"²".isdigit()`` holds, ``"²"`` is no ``\\d``).

Nearly every token of a real program belongs to a subscript such as
``[k][j][i+1]``.  :func:`scan` emits a run of the simple subscripts
``[it]``, ``[it+c]``, ``[it-c]`` and ``[c]`` written without blanks as
one ``SUBSCRIPTS`` token whose value is the run's text; only the parser
reads that fused stream.  :func:`tokenize` is its expansion: each chain
is split back into its ``[``, identifier, sign, integer and ``]``
tokens with their own columns, so it yields exactly the tokens of a
token-at-a-time scan.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from .errors import LexError

# Token kinds.
ID = "ID"
INT = "INT"
FLOAT = "FLOAT"
PUNCT = "PUNCT"  # one of ( ) [ ] { } , ; = + - * / < > ! ? :  or += -= ...
DIRECTIVE = "DIRECTIVE"  # '#pragma ...' or '#assign ...' up to end of line
SUBSCRIPTS = "SUBSCRIPTS"  # '[k][j][i+1]': a chain of simple subscripts
EOF = "EOF"


class Token(NamedTuple):
    """A single lexical token with its source location.

    A tuple rather than a frozen dataclass: the lexer builds one per
    token of every parsed program, and a tuple is constructed and read
    several times faster.
    """

    kind: str
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


#: ``tuple.__new__(Token, fields)`` skips the NamedTuple ``__new__``
#: wrapper, halving the cost of building a token.
_new = tuple.__new__

# An exponent is taken only when a digit or a sign follows the 'e'; a
# sign is then consumed even if no digit follows it ("1e+" is a FLOAT).
_EXPONENT = r"[eE](?=[0-9+-])[+-]?[0-9]*"


def _simple_subscript(group: str) -> str:
    """The pattern of one simple subscript, ``[it]``, ``[it+c]``,
    ``[it-c]`` or ``[c]`` with no blanks, whose parts (identifier, sign,
    its constant, a lone constant) each open with ``group``.

    A constant has at most 15 digits, so it is exactly a float and lowers
    to the value the expression route gives it.
    """
    ident, const = group + r"[A-Za-z_]\w*)", group + r"[0-9]{1,15})"
    return rf"\[(?:{ident}(?:{group}[+-]){const})?|{const})\]"


#: One simple subscript.  Groups: identifier, sign, its constant, a lone
#: constant.
SUBSCRIPT = re.compile(_simple_subscript("("))
_SIMPLE = _simple_subscript("(?:")  # the same, without groups

#: One token (after optional blanks) per match.  Group numbers are the
#: dispatch keys in :func:`scan`; the most frequent kinds come first.  A
#: trailing ``f``/``F`` suffix on a number is consumed but is not part of
#: its value.  ``\w`` is exactly ``str.isalnum() or "_"``, so
#: identifiers may continue with any Unicode letter or digit.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"((?:" + _SIMPLE + r")+)"  # 1 SUBSCRIPTS
    r"|([-+*/=<>!]=|[()\[\]{},;=+\-*/<>!?:])"  # 2 PUNCT
    r"|([A-Za-z_]\w*)"  # 3 ID
    r"|(\n)"  # 4 newline
    r"|((?:[0-9]+\.[0-9]*|\.[0-9]+)(?:" + _EXPONENT + r")?"
    r"|[0-9]+" + _EXPONENT + r")[fF]?"  # 5 FLOAT
    r"|([0-9]+)[fF]?"  # 6 INT
    r"|(#[^\n]*)"  # 7 DIRECTIVE
    r"|([^ \t\r])"  # 8 anything else: non-ASCII start or an error
    r"|\Z)"  # trailing blanks
)
(
    _SUBSCRIPTS_G,
    _PUNCT_G,
    _ID_G,
    _NEWLINE_G,
    _FLOAT_G,
    _INT_G,
    _DIRECTIVE_G,
) = range(1, 8)

#: A comment; an unterminated block comment matches as the bare ``/*``.
_COMMENT = re.compile(r"//[^\n]*|/\*(?:.*?\*/)?", re.S)


def _blank_comment(match: "re.Match[str]") -> str:
    text = match.group()
    if text == "/*":
        source = match.string
        line = source.count("\n", 0, match.start()) + 1
        raise LexError("unterminated block comment", line, 1)
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _strip_comments(source: str) -> str:
    """Replace comments with spaces, preserving line/column structure."""
    return _COMMENT.sub(_blank_comment, source)


def tokenize(source: str) -> List[Token]:
    """Tokenize DSL source text into a list of tokens ending with EOF.

    The expansion of :func:`scan`: no ``SUBSCRIPTS`` token remains.
    """
    tokens: List[Token] = []
    for tok in scan(source):
        if tok.kind == SUBSCRIPTS:
            tokens.extend(expand(tok))
        else:
            tokens.append(tok)
    return tokens


def scan(source: str) -> List[Token]:
    """Tokens of ``source`` ending with EOF, each simple-subscript chain
    fused into one ``SUBSCRIPTS`` token."""
    text = _strip_comments(source)
    ascii_text = text.isascii()
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    base = -1  # index of the last newline: a token at ``pos`` has col pos - base
    pos = 0
    while pos is not None:
        resume = None
        for m in _TOKEN.finditer(text, pos):
            g = m.lastindex
            if g == _PUNCT_G:
                append(_new(Token, (PUNCT, m[g], line, m.start(g) - base)))
            elif g == _ID_G:
                append(_new(Token, (ID, m[g], line, m.start(g) - base)))
            elif g == _SUBSCRIPTS_G:
                append(_new(Token, (SUBSCRIPTS, m[g], line, m.start(g) - base)))
            elif g == _NEWLINE_G:
                line += 1
                base = m.start(g)
            elif g == _FLOAT_G or g == _INT_G:
                start = m.start(g)
                if not ascii_text and not text[start : m.end() + 2].isascii():
                    kind, value, resume = _scan_number(text, start)
                    append(_new(Token, (kind, value, line, start - base)))
                    break
                kind = FLOAT if g == _FLOAT_G else INT
                append(_new(Token, (kind, m[g], line, start - base)))
            elif g == _DIRECTIVE_G:
                value = m[g].rstrip()
                append(_new(Token, (DIRECTIVE, value, line, m.start(g) - base)))
            elif g is not None:
                start = m.start(g)
                kind, value, resume = _scan_other(text, start, line, start - base)
                append(_new(Token, (kind, value, line, start - base)))
                break
        pos = resume
    append(_new(Token, (EOF, "", line, len(text) - base)))
    return tokens


def expand(chain: Token) -> List[Token]:
    """The tokens a ``SUBSCRIPTS`` token stands for, with their columns."""
    line, col = chain.line, chain.col
    out: List[Token] = []
    append = out.append
    for m in SUBSCRIPT.finditer(chain.value):
        at = col + m.start()
        append(_new(Token, (PUNCT, "[", line, at)))
        name, sign, offset, const = m.groups()
        if name is None:
            append(_new(Token, (INT, const, line, at + 1)))
        else:
            append(_new(Token, (ID, name, line, at + 1)))
            if sign is not None:
                at += 1 + len(name)
                append(_new(Token, (PUNCT, sign, line, at)))
                append(_new(Token, (INT, offset, line, at + 1)))
        append(_new(Token, (PUNCT, "]", line, col + m.end() - 1)))
    return out


def _scan_other(text: str, i: int, line: int, col: int) -> Tuple[str, str, int]:
    """Finish a token the master pattern leaves to ``str`` methods.

    ``text[i]`` is a non-ASCII character or an ASCII character no token
    starts with.  Returns ``(kind, value, end)`` or raises LexError.
    """
    ch = text[i]
    if ch.isalpha():
        end = i + 1
        while end < len(text) and (text[end].isalnum() or text[end] == "_"):
            end += 1
        return ID, text[i:end], end
    if ch.isdigit() or (ch == "." and text[i + 1 : i + 2].isdigit()):
        return _scan_number(text, i)
    raise LexError(f"unexpected character {ch!r}", line, col)


def _scan_number(text: str, i: int) -> Tuple[str, str, int]:
    """Scan a number at ``text[i]`` with ``str.isdigit`` as the digit test.

    Same rules as the ``FLOAT``/``INT`` groups of :data:`_TOKEN`, for a
    number that touches a non-ASCII character.  Returns
    ``(kind, value, end)``; ``end`` is past any ``f`` suffix.
    """
    start, n = i, len(text)
    seen_dot = seen_exp = False
    while i < n:
        c = text[i]
        if c.isdigit():
            i += 1
        elif c == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif c in "eE" and not seen_exp and i + 1 < n and (
            text[i + 1].isdigit() or text[i + 1] in "+-"
        ):
            seen_exp = True
            i += 1
            if text[i] in "+-":
                i += 1
        else:
            break
    value = text[start:i]
    if i < n and text[i] in "fF":
        i += 1
    return (FLOAT if seen_dot or seen_exp else INT), value, i
