"""Differential oracle for the minimal-parameter search.

``minimal_parameters`` skips every candidate whose module header already
proves it degenerate; ``_linear_search.linear_search`` is the original
scan that elaborates every candidate.  Both must return equal ``values``
and ``blockers`` (or raise the same error) on the bundled components,
on generated parameterized tiles and on composed parent/child Verilog.
Separately, the header proof must be sound: wherever it says
"degenerate", a full ``degeneracy_events`` trial reports events.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources
from repro.elab import minimal_parameters
from repro.elab.consteval import eval_const
from repro.elab.degeneracy import _header_degenerate, degeneracy_events
from repro.gen.hdlgen import generate_module
from repro.hdl import ast, parse_source
from repro.hdl.source import VERILOG, VHDL, SourceFile
from repro.obs import metrics as obs_metrics
from tests.elab._linear_search import linear_search


def _parse(sources) -> ast.Design:
    design = ast.Design()
    for source in sources:
        design = design.merge(parse_source(source))
    return design


def _outcome(search, design: ast.Design, module: str):
    try:
        result = search(design, module)
    except Exception as exc:  # noqa: BLE001 -- compared, not hidden
        return ("raised", type(exc).__name__, str(exc))
    return dict(result.values), result.blockers


def _fast(design, module):
    return minimal_parameters(design, module)


def _slow(design, module):
    return linear_search(design, module, 3)


def _trials() -> float:
    return obs_metrics.counter("account.trials").value


def _assert_same(sources, modules=None) -> tuple[float, float]:
    """Compare both searches on fresh designs; return their trial counts."""
    fast, slow = _parse(sources), _parse(sources)
    fast_trials = slow_trials = 0.0
    for module in modules or list(fast.modules):
        before = _trials()
        got = _outcome(_fast, fast, module)
        middle = _trials()
        want = _outcome(_slow, slow, module)
        fast_trials += middle - before
        slow_trials += _trials() - middle
        assert got == want, module
    return fast_trials, slow_trials


def _bundled():
    """(sources, modules) per component, each module checked once."""
    seen: set[tuple[str, str]] = set()
    for spec in component_specs():
        sources = load_sources(spec)
        design = _parse(sources)
        modules = [
            name for name, module in design.modules.items()
            if (module.source_name, name) not in seen
        ]
        seen.update((design.modules[m].source_name, m) for m in modules)
        if modules:
            yield sources, modules


def test_bundled_modules_match_the_linear_search():
    fast = slow = 0.0
    for sources, modules in _bundled():
        f, s = _assert_same(sources, modules)
        fast, slow = fast + f, slow + s
    # The header proof must carry its weight: at most half the trials.
    assert 0 < fast * 2 <= slow


@settings(max_examples=12, deadline=None)
@given(
    language=st.sampled_from([VERILOG, VHDL]),
    seed=st.integers(0, 2**16),
    mixed=st.booleans(),
)
def test_generated_param_tiles_match_the_linear_search(language, seed, mixed):
    kinds = (
        ("param_width", "genloop_and", "child_instance") if mixed
        else ("param_width",)
    )
    gm = generate_module(
        language, "pw", np.random.default_rng(seed), n_tiles=3, kinds=kinds
    )
    _assert_same(gm.sources)


# -- composed parent/child Verilog -------------------------------------------

_K = st.integers(0, 5)


@st.composite
def _child(draw) -> str:
    """A child module whose degeneracy depends on P and Q in many ways."""
    k = lambda: draw(_K)  # noqa: E731
    local = draw(st.sampled_from(
        ["P - {k}", "P + {k}", "P / 2", "Q * 2 - {k}", "P - Q"]
    )).format(k=k())
    uses = draw(st.lists(st.sampled_from([
        f"assign w0 = a[P-{k()}:0];",
        f"assign w0 = a[L:{k()}];",
        "assign w1 = a[L];",
        f"assign w1 = w0[{k()}];",
        f"assign w1 = mem[Q + {k()}];",
        f"assign w1 = mem[L][P-{k()}];",
        f"assign w0 = {{(P-{k()}){{1'b0}}}};",
        f"assign w0 = a[s:{k()}];",
    ]), max_size=3))
    body = draw(st.lists(st.sampled_from([
        f"if (P > {k()}) r <= a; else r <= 0;",
        f"if (L > {k()}) r <= a;",
        f"if (s > {k()}) r <= a; else r <= 0;",
        f"case (s) {k()}: r <= a; default: r <= ~a; endcase",
        f"for (j = 0; j < P - {k()} && j < 4; j = j + 1) case (s) {k()}: "
        "r <= a; "
        "default: if (Q > 2) r <= ~a; endcase",
        f"for (j = 0; j < P - {k()} && j < 4; j = j + 1) begin if (Q > {k()}) "
        "r[0] <= a[0]; end",
        f"for (j = 0; j < s; j = j + 1) begin if (P > {k()}) "
        "r[0] <= a[0]; end",
        "for (j = 0; j < L && j < 4; j = j + 1) r[0] <= a[j];",
    ]), max_size=3))
    gens = draw(st.lists(st.sampled_from([
        f"if (P > {k()}) begin : g0 wire t0; assign t0 = a[0]; end",
        f"if (L < {k()}) begin : g1 wire t1; assign t1 = a[0]; end "
        "else begin : g2 end",
        f"for (i = 0; i < P - {k()} && i < 4; i = i + 1) begin : g3 wire t3; "
        "assign t3 = a[i]; end",
        # Rebinds L in the module env, unprefixed.
        f"if (P > {k()}) begin : g4 localparam L = {k()}; end",
    ]), max_size=2, unique=True))
    memory = draw(st.booleans())
    early = draw(st.booleans())  # localparam declared after its uses
    decls = [
        f"wire [P-{k()}:0] w0;",
        "wire w1;",
        "reg [P-1:0] r;",
        "integer j;",
        "genvar i;",
    ]
    if memory:
        decls.append("reg [P-1:0] mem [0:Q-1];")
    else:
        decls.append("wire [P-1:0] mem;")
    lines = decls + ([] if early else [f"localparam L = {local};"]) + uses
    lines += gens + ["always @(posedge clk) begin"] + body + ["end"]
    if early:
        lines.append(f"localparam L = {local};")
    p, q = draw(st.integers(2, 9)), draw(st.integers(1, 5))
    return (
        f"module c #(parameter P = {p}, parameter Q = {q})"
        "(input clk, input [P-1:0] a, input [3:0] s, output [P-1:0] y);\n  "
        + "\n  ".join(lines)
        + "\nendmodule\n"
    )


@st.composite
def _parent(draw) -> str:
    k = lambda: draw(st.integers(0, 3))  # noqa: E731
    overrides = draw(st.lists(st.sampled_from([
        f"#(.P(W + {k()}))",
        f"#(.P(W - {k()}), .Q({k()} + 1))",
        f"#(.Q(W - {k()}))",
        f"#({k()} + 2)",
        f"#(W - {k()}, {k()} + 1)",
        "",
    ]), min_size=1, max_size=2))
    insts = "\n  ".join(
        f"c {o} u{n} (.clk(clk), .a(a), .s(s), .y(y{n}));"
        for n, o in enumerate(overrides)
    )
    outs = ", ".join(f"output [W-1:0] y{n}" for n in range(len(overrides)))
    extra = draw(st.sampled_from(
        ["", f"wire [W-{k()}:0] pw;", f"assign y0[0] = a[W-{k() + 1}];"]
    ))
    w = draw(st.integers(2, 9))
    return (
        f"module t #(parameter W = {w})"
        f"(input clk, input [W-1:0] a, input [3:0] s, {outs});\n"
        f"  {extra}\n  {insts}\nendmodule\n"
    )


@settings(max_examples=50, deadline=None)
@given(child=_child(), parent=_parent())
def test_composed_verilog_matches_the_linear_search(child, parent):
    sources = [SourceFile("c.v", child), SourceFile("t.v", parent)]
    _assert_same(sources)
    design = _parse(sources)
    for module in design.modules:
        _assert_sound(design, module, range(1, 13))


# -- soundness ------------------------------------------------------------


def _assert_sound(design: ast.Design, module: str, values) -> int:
    """Check proof => events over one-parameter sweeps; count the proofs."""
    defaults: dict[str, int] = {}
    for p in design.module(module).params:
        defaults[p.name] = eval_const(p.default, defaults)
    proven = 0
    for name in defaults:
        for value in values:
            binding = dict(defaults, **{name: value})
            if _header_degenerate(design, module, binding, ()):
                proven += 1
                assert degeneracy_events(design, module, binding), (
                    module, binding,
                )
    return proven


def test_header_proofs_are_sound_on_bundled_modules():
    proven = 0
    for sources, modules in _bundled():
        design = _parse(sources)
        for module in modules:
            proven += _assert_sound(design, module, range(1, 33))
    # A proof that decides nothing would pass trivially (284 proven now).
    assert proven >= 250


# -- the proof itself -----------------------------------------------------

_CHILD_SELECT = SourceFile("alu.v", """
module alu #(parameter WIDTH = 32)(input [WIDTH-1:0] b, output [15:0] y);
  assign y = {b[WIDTH-17:0], 16'h0000};
endmodule
module ex #(parameter WIDTH = 32)(input [WIDTH-1:0] b, output [15:0] y);
  alu #(.WIDTH(WIDTH)) u (.b(b), .y(y));
endmodule
""")


def test_a_child_select_proves_the_parent_degenerate():
    design = _parse([_CHILD_SELECT])
    for width in range(1, 17):
        assert _header_degenerate(design, "ex", {"WIDTH": width}, ())
    assert not _header_degenerate(design, "ex", {"WIDTH": 17}, ())
    skipped = obs_metrics.counter("account.trials_skipped")
    before, trials = skipped.value, _trials()
    result = minimal_parameters(design, "ex")
    assert result == {"WIDTH": 17}
    # Two rounds (the second confirms the fixpoint), each skipping 1..16
    # and trying 17; then one trial at 16 for the blocker's events.
    assert skipped.value - before == 2 * 16
    assert _trials() - trials == 2 + 1
    (blocker,) = result.blockers
    assert blocker.rejected_value == 16
    assert [e.kind for e in blocker.events] == ["collapsed-select"]


@pytest.mark.parametrize("text", [
    # An `if` in a loop whose trip count does not evaluate never folds.
    "for (j = 0; j < s; j = j + 1) if (P > 3) r <= a;",
    # A memory word index is not range-checked.
    "r <= mem[P + 3];",
    # A select inside a range operand is folded, never walked.
    "r <= a[s[P + 3]:0];",
], ids=["if-in-signal-bound-loop", "memory-word", "select-in-range-operand"])
def test_constructs_the_full_trial_ignores_prove_nothing(text):
    design = _parse([SourceFile("m.v", f"""
module m #(parameter P = 4)(input clk, input [3:0] s, input [P-1:0] a);
  reg [P-1:0] r;
  reg [P-1:0] mem [0:3];
  integer j;
  always @(posedge clk) begin {text} end
endmodule
""")])
    for value in range(1, 9):
        assert not degeneracy_events(design, "m", {"P": value})
        assert not _header_degenerate(design, "m", {"P": value}, ())


def test_localparams_see_the_trial_binding():
    design = _parse([SourceFile("m.v", """
module m #(parameter P = 8)(input [P-1:0] a, output y);
  localparam H = P / 2;
  assign y = a[H-2];
endmodule
""")])
    assert [
        v for v in range(1, 9) if _header_degenerate(design, "m", {"P": v}, ())
    ] == [1, 2, 3]
    assert minimal_parameters(design, "m") == {"P": 4}


@pytest.mark.parametrize("rebind", [
    # A generate if binds its localparams without a prefix.
    "localparam L = P + 4;\n  if (P > 0) begin : g localparam L = 0; end",
    # A generate for binds `g_0__L` for its localparam L at i = 0.
    "localparam g_0__L = P + 4;\n  genvar i;\n"
    "  for (i = 0; i < 1; i = i + 1) begin : g localparam L = 0; end\n"
    "  localparam L = g_0__L;",
], ids=["generate-if", "generate-for"])
def test_names_a_generate_rebinds_are_left_out_of_the_header(rebind):
    # Elaboration ends with L = 0, so a[L] is in range; a header holding
    # L = P + 4 would call every binding degenerate.
    design = _parse([SourceFile("m.v", f"""
module m #(parameter P = 8)(input [P-1:0] a, output y);
  {rebind}
  assign y = a[L];
endmodule
""")])
    for value in range(1, 9):
        assert not degeneracy_events(design, "m", {"P": value})
        assert not _header_degenerate(design, "m", {"P": value}, ())
    assert minimal_parameters(design, "m") == {"P": 1}
