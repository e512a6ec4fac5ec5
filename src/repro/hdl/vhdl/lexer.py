"""Tokenizer for the uVHDL subset.

VHDL is case-insensitive; identifiers and keywords are lowercased during
lexing (bit-string and character literals keep their spelling).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.hdl.source import HdlSyntaxError, SourceFile

ID, NUMBER, BITSTRING, CHAR, OP, EOF = (
    "ID", "NUMBER", "BITSTRING", "CHAR", "OP", "EOF",
)

#: Multi-character operators first (maximal munch).
_OPERATORS = (
    "**", ":=", "=>", "<=", ">=", "/=", "<>",
    "=", "<", ">", "&", "+", "-", "*", "/",
    "(", ")", ";", ",", ":", ".", "'", "|",
)

#: Operator text -> its entry in ``_OPERATORS``: every OP token (and every
#: AST operator copied from one) shares one string object per operator.
_OP_TEXT = {op: op for op in _OPERATORS}

_BITSTR_RE = re.compile(r'([xXbBoO]?)"([0-9a-fA-F_]*)"')

#: One alternative per lexical rule, in priority order.  Alternation is
#: ordered, so the first rule that matches at a position wins.  Unnamed
#: alternatives (blanks, comments) are skipped.
_TOKEN_RE = re.compile(
    r"""
      (?P<nl>\n[ \t\r]*)
    | [ \t\r]+|--[^\n]*
    | (?P<BITSTRING>[xXbBoO]?"[0-9a-fA-F_]*")
    # A character literal like '0', unless the tick belongs to an
    # attribute (foo'range) -- decided in the loop from the previous token.
    | (?P<CHAR>'[^\n]')
    | (?P<ID>[A-Za-z][A-Za-z0-9_]*)
    | (?P<NUMBER>[0-9][0-9_]*)
    | (?P<OP>""" + "|".join(map(re.escape, _OPERATORS)) + r""")
    | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)

#: Keywords after which a tick must be a character literal, never an
#: attribute (only *names* take attributes).
_NON_NAME_KEYWORDS = frozenset(
    """else then when and or xor nand nor not is of to downto loop generate
    map begin end if case select others in out inout buffer signal constant
    type array port entity architecture library use process elsif mod rem
    sll srl null open variable component generic range report severity
    after until while return""".split()
)


class Token(NamedTuple):
    kind: str
    value: str
    line: int

    @property
    def int_value(self) -> int:
        if self.kind == NUMBER:
            return int(self.value.replace("_", ""))
        if self.kind == CHAR:
            if self.value in ("0", "1"):
                return int(self.value)
            raise ValueError(f"character literal '{self.value}' is not a bit")
        if self.kind == BITSTRING:
            return _bitstring_value(self.value)
        raise ValueError(f"token {self.value!r} is not a number")

    @property
    def width(self) -> int | None:
        if self.kind == CHAR:
            return 1
        if self.kind == BITSTRING:
            return _bitstring_width(self.value)
        return None


def _split_bitstring(text: str) -> tuple[str, str]:
    m = _BITSTR_RE.fullmatch(text)
    assert m is not None
    base = (m.group(1) or "b").lower()
    return base, m.group(2).replace("_", "")


def _bitstring_value(text: str) -> int:
    base, digits = _split_bitstring(text)
    if not digits:
        return 0
    radix = {"b": 2, "o": 8, "x": 16}[base]
    try:
        return int(digits, radix)
    except ValueError:
        raise ValueError(f"invalid base-{radix} literal {text!r}") from None


def _bitstring_width(text: str) -> int:
    base, digits = _split_bitstring(text)
    per_digit = {"b": 1, "o": 3, "x": 4}[base]
    return len(digits) * per_digit


def tokenize(source: SourceFile) -> list[Token]:
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
            append(Token(ID, m.group().lower(), line))
        elif kind == "OP":
            append(Token(OP, _OP_TEXT[m.group()], line))
        elif kind is None:
            pass
        elif kind == "nl":
            line += 1
        elif kind == "CHAR":
            # The token before an attribute tick is a name or ')'.
            prev = tokens[-1] if tokens else None
            if prev is not None and (
                (prev.kind == ID and prev.value not in _NON_NAME_KEYWORDS)
                or (prev.kind == OP and prev.value == ")")
            ):
                append(Token(OP, _OP_TEXT["'"], line))
                pos -= 2
            else:
                append(Token(CHAR, m.group()[1], line))
        elif kind == "NUMBER" or kind == "BITSTRING":
            append(Token(kind, m.group(), line))
        else:
            raise HdlSyntaxError(
                f"unexpected character {m.group()!r}", source.name, line
            )
    tokens.append(Token(EOF, "", line))
    return tokens
