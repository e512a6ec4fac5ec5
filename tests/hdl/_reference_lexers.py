"""Reference tokenizers: the original character-loop lexers, kept as a
test-only oracle for the single-regex lexers of :mod:`repro.hdl`.

The scanning code is the original, verbatim apart from the module-level
names it uses (prefixed ``_V``/``_H`` per language so both fit in one
module).  Only the token types, the token kinds and the VHDL keyword table
are shared with the production lexers.  ``test_lexer_oracle.py`` checks
that both return equal token lists, or raise the same error, on any input.
"""

from __future__ import annotations

import re

from repro.hdl.source import HdlSyntaxError, SourceFile
from repro.hdl.verilog.lexer import EOF, ID, NUMBER, OP, SIZED_NUMBER, STRING, Token
from repro.hdl.vhdl.lexer import _NON_NAME_KEYWORDS, BITSTRING, CHAR
from repro.hdl.vhdl.lexer import Token as VhdlToken

# -- uVerilog ----------------------------------------------------------------

#: Multi-character operators, longest first so maximal munch works.
_V_OPERATORS = (
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "**", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "[", "]", "{", "}", ";", ",", ":", ".", "#", "?", "@",
)

_V_ID_RE = re.compile(r"\$?[A-Za-z_][A-Za-z0-9_$]*")
# `(*` opens an attribute only when not immediately closed: `@(*)` is a
# sensitivity star, not an attribute.
_V_ATTR_OPEN_RE = re.compile(r"\(\*(?!\s*\))")
_V_DEC_RE = re.compile(r"[0-9][0-9_]*")
_V_SIZED_RE = re.compile(r"(?:[0-9][0-9_]*)?'[sS]?([bBoOdDhH])([0-9a-fA-FxXzZ_]+)")
_V_STRING_RE = re.compile(r'"[^"\n]*"')
_V_WS_RE = re.compile(r"[ \t\r]+")


def tokenize_verilog(source: SourceFile) -> list[Token]:
    """Tokenize uVerilog source, stripping comments and directives.

    Compiler directives (`timescale, `define-free code is assumed) and
    attribute instances ``(* ... *)`` are skipped.
    """
    text = source.text
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        m = _V_WS_RE.match(text, pos)
        if m:
            pos = m.end()
            continue
        if text.startswith("//", pos):
            end = text.find("\n", pos)
            pos = n if end == -1 else end
            continue
        if text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end == -1:
                raise HdlSyntaxError("unterminated block comment", source.name, line)
            line += text.count("\n", pos, end)
            pos = end + 2
            continue
        if _V_ATTR_OPEN_RE.match(text, pos):
            end = text.find("*)", pos + 2)
            if end == -1:
                raise HdlSyntaxError("unterminated attribute", source.name, line)
            line += text.count("\n", pos, end)
            pos = end + 2
            continue
        if ch == "`":
            # Compiler directive: skip to end of line.
            end = text.find("\n", pos)
            pos = n if end == -1 else end
            continue
        m = _V_SIZED_RE.match(text, pos)
        if m:
            tokens.append(Token(SIZED_NUMBER, m.group(0), line))
            pos = m.end()
            continue
        m = _V_ID_RE.match(text, pos)
        if m:
            tokens.append(Token(ID, m.group(0), line))
            pos = m.end()
            continue
        m = _V_DEC_RE.match(text, pos)
        if m:
            tokens.append(Token(NUMBER, m.group(0), line))
            pos = m.end()
            continue
        m = _V_STRING_RE.match(text, pos)
        if m:
            tokens.append(Token(STRING, m.group(0), line))
            pos = m.end()
            continue
        for op in _V_OPERATORS:
            if text.startswith(op, pos):
                tokens.append(Token(OP, op, line))
                pos += len(op)
                break
        else:
            raise HdlSyntaxError(
                f"unexpected character {ch!r}", source.name, line
            )
    tokens.append(Token(EOF, "", line))
    return tokens


# -- uVHDL -------------------------------------------------------------------

#: Multi-character operators first (maximal munch).
_H_OPERATORS = (
    "**", ":=", "=>", "<=", ">=", "/=", "<>",
    "=", "<", ">", "&", "+", "-", "*", "/",
    "(", ")", ";", ",", ":", ".", "'", "|",
)

_H_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_H_NUM_RE = re.compile(r"[0-9][0-9_]*")
_H_BITSTR_RE = re.compile(r'([xXbBoO]?)"([0-9a-fA-F_]*)"')
_H_WS_RE = re.compile(r"[ \t\r]+")
# A character literal like '0'; must not swallow attribute ticks (foo'range),
# so require a non-identifier character before the opening quote -- handled
# in the loop by checking the previous token.
_H_CHAR_RE = re.compile(r"'(.)'")


def tokenize_vhdl(source: SourceFile) -> list[VhdlToken]:
    text = source.text
    tokens: list[VhdlToken] = []
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        m = _H_WS_RE.match(text, pos)
        if m:
            pos = m.end()
            continue
        if text.startswith("--", pos):
            end = text.find("\n", pos)
            pos = n if end == -1 else end
            continue
        m = _H_BITSTR_RE.match(text, pos)
        if m and (m.group(1) or text[pos] == '"'):
            tokens.append(VhdlToken(BITSTRING, m.group(0), line))
            pos = m.end()
            continue
        if ch == "'":
            # Character literal only when not an attribute tick: the token
            # before an attribute tick is an identifier or ')'.
            prev = tokens[-1] if tokens else None
            is_attribute = prev is not None and (
                (prev.kind == ID and prev.value not in _NON_NAME_KEYWORDS)
                or (prev.kind == OP and prev.value == ")")
            )
            m = _H_CHAR_RE.match(text, pos)
            if m and not is_attribute:
                tokens.append(VhdlToken(CHAR, m.group(1), line))
                pos = m.end()
                continue
        m = _H_ID_RE.match(text, pos)
        if m:
            tokens.append(VhdlToken(ID, m.group(0).lower(), line))
            pos = m.end()
            continue
        m = _H_NUM_RE.match(text, pos)
        if m:
            tokens.append(VhdlToken(NUMBER, m.group(0), line))
            pos = m.end()
            continue
        for op in _H_OPERATORS:
            if text.startswith(op, pos):
                tokens.append(VhdlToken(OP, op, line))
                pos += len(op)
                break
        else:
            raise HdlSyntaxError(f"unexpected character {ch!r}", source.name, line)
    tokens.append(VhdlToken(EOF, "", line))
    return tokens
