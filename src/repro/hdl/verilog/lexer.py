"""Tokenizer for the uVerilog subset."""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.hdl.source import HdlSyntaxError, SourceFile

#: Token kinds.
ID, NUMBER, SIZED_NUMBER, OP, STRING, EOF = (
    "ID", "NUMBER", "SIZED_NUMBER", "OP", "STRING", "EOF",
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = (
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "**", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "[", "]", "{", "}", ";", ",", ":", ".", "#", "?", "@",
)
#: Operator text -> its entry in ``_OPERATORS``: every OP token (and every
#: AST operator copied from one) shares one string object per operator.
_OP_TEXT = {op: op for op in _OPERATORS}

#: One alternative per lexical rule, in priority order.  Alternation is
#: ordered, so the first rule that matches at a position wins.  Unnamed
#: alternatives (blanks, line comments, directives) are skipped.
_TOKEN_RE = re.compile(
    r"""
      (?P<nl>\n[ \t\r]*)
    | [ \t\r]+|//[^\n]*
    | (?P<block>/\*.*?\*/)
    | (?P<open_block>/\*)
    # `(*` opens an attribute only when not immediately closed: `@(*)`
    # is a sensitivity star, not an attribute.
    | (?P<attr>\(\*(?!\s*\)).*?\*\))
    | (?P<open_attr>\(\*(?!\s*\)))
    | `[^\n]*
    | (?P<SIZED_NUMBER>(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ_]+)
    | (?P<ID>\$?[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<NUMBER>[0-9][0-9_]*)
    | (?P<STRING>"[^"\n]*")
    | (?P<OP>""" + "|".join(map(re.escape, _OPERATORS)) + r""")
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_UNTERMINATED = {"open_block": "unterminated block comment",
                 "open_attr": "unterminated attribute"}


class Token(NamedTuple):
    kind: str
    value: str
    line: int

    @property
    def int_value(self) -> int:
        if self.kind == NUMBER:
            return int(self.value.replace("_", ""))
        if self.kind == SIZED_NUMBER:
            return _sized_value(self.value)
        raise ValueError(f"token {self.value!r} is not a number")

    @property
    def width(self) -> int | None:
        """Explicit bit width of a sized literal (None when unsized)."""
        if self.kind != SIZED_NUMBER:
            return None
        head = self.value.split("'")[0].replace("_", "")
        return int(head) if head else None


def _sized_value(text: str) -> int:
    head, tail = text.split("'", 1)
    tail = tail.lstrip("sS")
    base_char = tail[0].lower()
    digits = tail[1:].replace("_", "")
    # x/z bits are not supported by the synthesizable subset; treat as 0,
    # which is what synthesis tools commonly assume for don't-cares.
    digits = re.sub(r"[xXzZ]", "0", digits)
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    try:
        return int(digits, base)
    except ValueError:
        raise ValueError(f"invalid base-{base} literal {text!r}") from None


def tokenize(source: SourceFile) -> list[Token]:
    """Tokenize uVerilog source, stripping comments and directives.

    Compiler directives (`timescale, `define-free code is assumed) and
    attribute instances ``(* ... *)`` are skipped.
    """
    text = source.text
    match = _TOKEN_RE.match
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind == "ID":
            append(Token(ID, m.group(), line))
        elif kind == "OP":
            append(Token(OP, _OP_TEXT[m.group()], line))
        elif kind is None:
            pass
        elif kind == "nl":
            line += 1
        elif kind == "NUMBER" or kind == "SIZED_NUMBER" or kind == "STRING":
            append(Token(kind, m.group(), line))
        elif kind == "block" or kind == "attr":
            line += m.group().count("\n")
        elif kind in _UNTERMINATED:
            raise HdlSyntaxError(_UNTERMINATED[kind], source.name, line)
        else:
            raise HdlSyntaxError(
                f"unexpected character {m.group()!r}", source.name, line
            )
    tokens.append(Token(EOF, "", line))
    return tokens
