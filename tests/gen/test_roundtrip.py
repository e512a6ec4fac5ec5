"""Round-trip fuzzing: parse -> print -> re-parse preserves metrics.

Seeded-random property tests over the generated corpus; if the optional
``hypothesis`` package is installed an extra property test explores the
generator's seed space more aggressively.  No new dependency is
required -- the suite is complete without it.
"""

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.gen import generate_corpus, generate_module
from repro.hdl import count_statements, parse_source
from repro.hdl.printer import PrintError, print_design, print_expr
from repro.hdl import ast
from repro.hdl.source import VERILOG, VHDL, SourceFile
from tests._measure import measure_strict

#: LoC is excluded: formatting belongs to the printer, not the AST.
_NETLIST_KEYS = ("Stmts", "Nets", "Cells", "FFs", "FanInLC")


@pytest.mark.parametrize("language", [VERILOG, VHDL])
def test_generated_modules_parse_without_crashing(language):
    # Aggressive comment fuzz (triple density) must never break the
    # lexer/parser: every generated module is well-formed by contract.
    for gm in generate_corpus(language, 25, seed=99, comment_level=3.0):
        design = parse_source(gm.sources[0])
        assert gm.name in design.modules


@pytest.mark.parametrize("language", [VERILOG, VHDL])
def test_roundtrip_preserves_metrics(language):
    for gm in generate_corpus(language, 15, seed=42):
        design = parse_source(gm.sources[0])
        printed = print_design(design)
        reparsed = parse_source(SourceFile(f"{gm.name}_rt.v", printed))
        # Statement counts survive the round trip module by module.
        for name, module in design.modules.items():
            assert count_statements(module) == \
                count_statements(reparsed.modules[name])
        # And the synthesized netlist still matches the ground truth.
        m = measure_strict(
            Engine(), (SourceFile(f"{gm.name}_rt.v", printed),), gm.name,
            name=gm.name, policy=gm.spec.policy)
        for key in _NETLIST_KEYS:
            assert m.metrics[key] == pytest.approx(gm.truth[key]), (
                f"{gm.name} {key} diverged after round trip")


def test_roundtrip_is_idempotent():
    # Printing the re-parsed design again must give identical text:
    # the printer's output is a fixed point of parse . print.
    gm = generate_module(VERILOG, "fixpoint", np.random.default_rng(8),
                         n_tiles=5)
    once = print_design(parse_source(gm.sources[0]))
    twice = print_design(parse_source(SourceFile("fp.v", once)))
    assert once == twice


def test_printer_rejects_unprintable_nodes():
    with pytest.raises(PrintError):
        print_expr(ast.Others(ast.Number(0, width=1)))
    with pytest.raises(PrintError):
        print_expr(ast.Resize(ast.Ident("x"), 8))


def test_printer_repeat_reparses_as_repeat():
    text = "module r (input [1:0] a, output [5:0] y);\n" \
           f"  assign y = {{3{{a}}}};\nendmodule\n"
    design = parse_source(SourceFile("r.v", text))
    printed = print_design(design)
    again = parse_source(SourceFile("r2.v", printed))
    assert count_statements(design.modules["r"]) == \
        count_statements(again.modules["r"])


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           language=st.sampled_from([VERILOG, VHDL]))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_roundtrip_stmts(seed, language):
        gm = generate_module(language, "hyp",
                             np.random.default_rng(seed))
        design = parse_source(gm.sources[0])
        printed = print_design(design)
        reparsed = parse_source(SourceFile("hyp.v", printed))
        for name, module in design.modules.items():
            assert count_statements(module) == \
                count_statements(reparsed.modules[name])
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


def test_selftest_roundtrip_counts_a_degraded_measure_as_bad():
    # The self-test re-measures without strict mode: a degraded result
    # must fail the check, as a raised exception does.
    from dataclasses import replace

    from repro.gen.selftest import _roundtrip_check

    good = generate_corpus(VERILOG, 2, seed=5)
    assert _roundtrip_check(good).ok
    ghost = replace(good[0], name="ghost")  # no module "ghost" in its source
    check = _roundtrip_check([good[1], ghost])
    assert not check.ok
    assert check.detail.startswith("ghost: error[elaborate]"), check.detail
