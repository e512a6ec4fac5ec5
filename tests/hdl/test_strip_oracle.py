"""Differential oracle: the single-regex comment strippers of
:mod:`repro.hdl.metrics` against the reference character scanners of
``_reference_strippers.py``.

On every input both must produce identical text, so LoC -- the count of
non-blank lines of the stripped text -- cannot move.
"""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import clean_kinds, generate_corpus
from repro.hdl.metrics import strip_comments
from repro.hdl.source import VERILOG, VHDL
from tests.hdl._reference_strippers import (
    strip_verilog_comments,
    strip_vhdl_comments,
)

RTL = Path(__file__).resolve().parents[2] / "src" / "repro" / "designs" / "rtl"

REFERENCE = {VERILOG: strip_verilog_comments, VHDL: strip_vhdl_comments}
EXTENSIONS = {VERILOG: ".v", VHDL: ".vhd"}

#: Every character the strippers branch on, the line breaks
#: ``splitlines()`` knows but the strippers do not, and the two-character
#: sequences that open, close or escape something.
ADVERSARIAL = [
    '"', "\\", "/", "*", "-", "\n", "\r", "\x0b", '""', "//", "/*", "*/",
    "--", '\\"', "\\\n", " ", "a", "\t",
]


def _assert_same(text):
    for language, reference in REFERENCE.items():
        assert strip_comments(text, language) == reference(text), language


@lru_cache(maxsize=None)
def _corpus():
    """Every bundled source and a generated corpus in each language."""
    texts = [
        p.read_text()
        for ext in EXTENSIONS.values()
        for p in sorted(RTL.rglob("*" + ext))
    ]
    for language in (VERILOG, VHDL):
        for seed in (1, 2):
            generated = generate_corpus(
                language, 30, seed=seed, kinds=clean_kinds()
            ) + generate_corpus(language, 30, seed=seed, comment_level=3.0)
            texts += [s.text for gm in generated for s in gm.sources]
    return tuple(texts)


def test_whole_corpus_agrees():
    texts = _corpus()
    assert len(texts) > 200
    for text in texts:
        _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "", '"', "\\", '"\\', '"\\"', '"\\\n"//x', "/*", "/*/", "/**/",
        "/*\n*/x", "a/*b\nc", "--", "-", '"--"', '"a""--"--x', '"\n"--x',
        "x//y\rz", "x--y\x0bz", '"/*"*/', "/*\"*/x//\"\n",
    ],
)
def test_edge_cases_agree(text):
    _assert_same(text)


@settings(max_examples=1000, deadline=None)
@given(parts=st.lists(st.sampled_from(ADVERSARIAL), max_size=40))
def test_adversarial_fragments_agree(parts):
    _assert_same("".join(parts))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_sources_agree(data):
    text = data.draw(st.sampled_from(_corpus()))
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, len(text)))
    _assert_same(text[start:end])
