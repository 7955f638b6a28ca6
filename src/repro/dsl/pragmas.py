"""Parsers for the line-oriented ``#pragma`` and ``#assign`` directives.

Pragma grammar (clauses in any order, as in Listing 1 and Section II-B2)::

    #pragma [stream <iter>] [block (<n>,<m>[,<p>])]
            [unroll <iter>=<int> [, <iter>=<int>]...] [occupancy <t>]

Assign grammar (Section II-B1)::

    #assign <class> (<name>[, <name>]...) [, <class> (...)]...

where ``<class>`` is one of ``shmem``, ``gmem``, ``register``, ``constant``.
"""

from __future__ import annotations

from typing import List, Tuple

from . import lexer
from .ast import AssignDirective, Pragma, SourceSpan
from .errors import ParseError
from .expr_parser import TokenStream, token_float, token_int

STORAGE_CLASSES = ("shmem", "gmem", "register", "constant")


def _payload_stream(directive_text: str, keyword: str, line: int) -> TokenStream:
    body = directive_text[len("#") :].strip()
    if not body.startswith(keyword):
        raise ParseError(f"expected #{keyword} directive", line, 1)
    payload = body[len(keyword) :]
    tokens = lexer.tokenize(payload)
    # Re-home token line numbers onto the directive's source line.
    rehomed = [lexer.Token(t.kind, t.value, line, t.col) for t in tokens]
    return TokenStream(rehomed)


def parse_pragma(directive_text: str, line: int = 0) -> Pragma:
    """Parse a ``#pragma`` directive payload into a :class:`Pragma`."""
    stream = _payload_stream(directive_text, "pragma", line)
    stream_dim = None
    block: Tuple[int, ...] = ()
    unroll: List[Tuple[str, int]] = []
    occupancy = None
    while not stream.at(lexer.EOF):
        clause = stream.expect(lexer.ID).value
        if clause == "stream":
            stream_dim = stream.expect(lexer.ID).value
        elif clause == "block":
            stream.expect_punct("(")
            dims = [token_int(stream.expect(lexer.INT))]
            while stream.at_punct(","):
                stream.advance()
                dims.append(token_int(stream.expect(lexer.INT)))
            stream.expect_punct(")")
            if not 1 <= len(dims) <= 3:
                raise ParseError("block clause takes 1-3 sizes", line, 1)
            block = tuple(dims)
        elif clause == "unroll":
            unroll.append(_parse_unroll_item(stream))
            while stream.at_punct(","):
                stream.advance()
                unroll.append(_parse_unroll_item(stream))
        elif clause == "occupancy":
            tok = stream.current
            if tok.kind not in (lexer.FLOAT, lexer.INT):
                raise ParseError("occupancy clause expects a number", line, tok.col)
            stream.advance()
            occupancy = token_float(tok)
            if not 0.0 < occupancy <= 1.0:
                raise ParseError(
                    f"occupancy must be in (0, 1], got {occupancy}", line, tok.col
                )
        else:
            raise ParseError(f"unknown pragma clause {clause!r}", line, 1)
    return Pragma(
        stream_dim=stream_dim,
        block=block,
        unroll=tuple(unroll),
        occupancy=occupancy,
        span=SourceSpan(line, 1) if line else None,
    )


def _parse_unroll_item(stream: TokenStream) -> Tuple[str, int]:
    name = stream.expect(lexer.ID).value
    stream.expect_punct("=")
    factor = token_int(stream.expect(lexer.INT))
    if factor < 1:
        raise ParseError(f"unroll factor must be >= 1, got {factor}")
    return (name, factor)


def parse_assign(directive_text: str, line: int = 0) -> AssignDirective:
    """Parse an ``#assign`` directive payload into an AssignDirective."""
    stream = _payload_stream(directive_text, "assign", line)
    placements: List[Tuple[str, str]] = []
    seen: set = set()
    first = True
    while not stream.at(lexer.EOF):
        if not first:
            stream.expect_punct(",")
        first = False
        cls_tok = stream.expect(lexer.ID)
        storage = cls_tok.value
        if storage not in STORAGE_CLASSES:
            raise ParseError(
                f"unknown storage class {storage!r} "
                f"(expected one of {', '.join(STORAGE_CLASSES)})",
                line,
                cls_tok.col,
            )
        stream.expect_punct("(")
        names = [stream.expect(lexer.ID).value]
        while stream.at_punct(","):
            stream.advance()
            names.append(stream.expect(lexer.ID).value)
        stream.expect_punct(")")
        for name in names:
            if name in seen:
                raise ParseError(f"array {name!r} assigned twice", line, cls_tok.col)
            seen.add(name)
            placements.append((name, storage))
    if not placements:
        raise ParseError("#assign directive has no placements", line, 1)
    return AssignDirective(
        tuple(placements), span=SourceSpan(line, 1) if line else None
    )
