"""Differential oracle: the single-regex lexers against the reference
character-loop lexers of ``_reference_lexers.py``.

On every input both must return equal token lists, or both must raise
:class:`HdlSyntaxError` with the same message and line.
"""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import generate_corpus
from repro.hdl.source import VERILOG, VHDL, HdlSyntaxError, SourceFile
from repro.hdl.verilog.lexer import _OPERATORS as VERILOG_OPERATORS
from repro.hdl.verilog.lexer import tokenize as verilog_tokenize
from repro.hdl.vhdl.lexer import _NON_NAME_KEYWORDS
from repro.hdl.vhdl.lexer import _OPERATORS as VHDL_OPERATORS
from repro.hdl.vhdl.lexer import tokenize as vhdl_tokenize
from tests.hdl._reference_lexers import tokenize_verilog, tokenize_vhdl

RTL = Path(__file__).resolve().parents[2] / "src" / "repro" / "designs" / "rtl"

LEXERS = {
    VERILOG: (".v", verilog_tokenize, tokenize_verilog),
    VHDL: (".vhd", vhdl_tokenize, tokenize_vhdl),
}

_SHARED = [
    " ", "  ", "\t", "\r", "\n", "\n", "\"", "'", "0", "1", "42", "1_0",
    "a", "b", "o", "x", "h", "d", "s", "z", "A", "B", "O", "X", "F", "_",
    "foo", "Bar_1", "\x01", "\\", "€", "~", "$", "`", "'0'", "'1'", "'z'",
]
FRAGMENTS = {
    VERILOG: _SHARED + list(VERILOG_OPERATORS) + [
        "//", "/*", "*/", "(*", "*)", "(* keep *)", "@(*)", "(* )",
        "`timescale 1ns/1ps", "`define", "4'b1010", "8'hFF", "'d99",
        "8'sh", "16'hAB_CD", "4'bxz", "'b", "3'o7", "$signed",
        "\"str\"", "module", "endmodule", "assign", "1'",
    ],
    VHDL: _SHARED + list(VHDL_OPERATORS) + [
        "--", "-- note", "x\"AF\"", "X\"", "b\"0101\"", "o\"17\"", "\"\"",
        "B\"", "'event", "clk'event", ")'", "'range", "else", "then", "when",
        "others", "range", "Entity", "ARCHITECTURE", "signal", "'\n'",
        "then'", "When '", "others'", "range'", "is'", "sig'",
    ],
}


def _outcome(tokenize, text, name):
    try:
        return tokenize(SourceFile(name, text))
    except HdlSyntaxError as exc:
        return ("error", exc.message, exc.line)


def _assert_same(language, text):
    ext, production, reference = LEXERS[language]
    name = "t" + ext
    assert _outcome(production, text, name) == _outcome(reference, text, name)


@lru_cache(maxsize=None)
def _corpus(language):
    """Bundled and generated sources of ``language``, as texts."""
    ext = LEXERS[language][0]
    texts = [p.read_text() for p in sorted(RTL.rglob("*" + ext))]
    generated = generate_corpus(language, 12, seed=5)
    texts += [s.text for gm in generated for s in gm.sources]
    return tuple(texts)


@pytest.mark.parametrize("language", [VERILOG, VHDL])
def test_whole_corpus_agrees(language):
    for text in _corpus(language):
        _assert_same(language, text)


def test_vhdl_tick_after_every_keyword_agrees():
    for word in sorted(_NON_NAME_KEYWORDS) + ["name", "Name", ")"]:
        _assert_same(VHDL, f"{word}'0' {word} '1'\n{word.upper()}'x'")


@pytest.mark.parametrize("language", [VERILOG, VHDL])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_fragments_agree(language, data):
    parts = data.draw(st.lists(st.sampled_from(FRAGMENTS[language]), max_size=40))
    _assert_same(language, "".join(parts))


@pytest.mark.parametrize("language", [VERILOG, VHDL])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_text_agrees(language, data):
    alphabet = st.sampled_from("".join(FRAGMENTS[language]) + "\n")
    _assert_same(language, data.draw(st.text(alphabet, max_size=60)))


@pytest.mark.parametrize("language", [VERILOG, VHDL])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_sources_agree(language, data):
    text = data.draw(st.sampled_from(_corpus(language)))
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, len(text)))
    _assert_same(language, text[start:end])
