"""The per-design analysis memo behind elaboration and accounting.

``elaborate`` reuses fully elaborated subtrees and ``minimal_parameters``
/ ``degeneracy_events`` reuse their answers across calls on one
:class:`~repro.hdl.ast.Design`.  These tests hold the memoized answers to
a memo-free reference (``Design.memo`` patched to hand out a fresh, empty
table on every call, so nothing is ever reused), and pin the memo's
failure policy, invalidation and pickling contract.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources
from repro.elab import ElaborationError, elaborate, minimal_parameters
from repro.elab.degeneracy import degeneracy_events
from repro.gen.hdlgen import generate_module
from repro.hdl import ast, parse_source, parse_verilog
from repro.hdl.source import VERILOG, VHDL, SourceFile
from repro.obs import metrics as obs_metrics


def _design(text: str) -> ast.Design:
    return parse_verilog(SourceFile("t.v", text))


def _parse(sources) -> ast.Design:
    """One merged design from a component's files, as measurement builds it."""
    design = ast.Design()
    for source in sources:
        design = design.merge(parse_source(source))
    return design


def _no_memo(patch) -> None:
    """Hand out a fresh, empty table on every ``Design.memo`` call."""
    patch.setattr(ast.Design, "memo", lambda self, namespace: {})


def _answer(design: ast.Design, module: str):
    result = minimal_parameters(design, module)
    return dict(result), result.blockers


def _reference_answers(sources, modules, monkeypatch):
    with monkeypatch.context() as patch:
        _no_memo(patch)
        fresh = _parse(sources)
        return {m: _answer(fresh, m) for m in modules}


def test_bundled_minimal_parameters_match_memo_free_reference(monkeypatch):
    checked: set[tuple[str, str]] = set()
    parameterized = 0
    for spec in component_specs():
        sources = load_sources(spec)
        design = _parse(sources)
        # Warm the memo the way measurement does: the top elaboration
        # first, then every module's search sharing one design.
        elaborate(design, spec.top)
        modules = [
            m for m, mod in design.modules.items()
            if (mod.source_name, m) not in checked
        ]
        if not modules:
            continue
        memoized = {m: _answer(design, m) for m in modules}
        again = {m: _answer(design, m) for m in modules}
        reference = _reference_answers(sources, modules, monkeypatch)
        assert memoized == reference, spec.label
        assert again == reference, spec.label
        for m in modules:
            checked.add((design.modules[m].source_name, m))
            parameterized += bool(design.modules[m].params)
    assert parameterized >= 20


@pytest.mark.parametrize("language", [VERILOG, VHDL])
def test_generated_param_tiles_match_memo_free_reference(
    language, monkeypatch
):
    rng = np.random.default_rng(7)
    pools = [("param_width",),
             ("param_width", "genloop_and", "child_instance")] * 3
    parameterized = 0
    for i, kinds in enumerate(pools):
        gm = generate_module(language, f"pw{i}", rng, n_tiles=3, kinds=kinds)
        design = _parse(gm.sources)
        parameterized += any(m.params for m in design.modules.values())
        memoized = {m: _answer(design, m) for m in design.modules}
        reference = _reference_answers(
            gm.sources, list(design.modules), monkeypatch
        )
        assert memoized == reference
    assert parameterized >= 4


_FAILING_CHILD = """
module leaf #(parameter W = 2)(input [W-1:0] a, output [W-1:0] y);
  assign y = a;
endmodule
module top #(parameter W = 2)(input [W-1:0] a, output [W-1:0] y,
                              output [1:0] z);
  leaf #(.W(2)) ok (.a(a[1:0]), .y(z));
  leaf #(.W(W - 2)) bad (.a(a), .y(y));
endmodule
"""


def test_failing_child_is_never_served_from_the_memo():
    design = _design(_FAILING_CHILD)
    elaborate(design, "top", {"W": 4})  # healthy: leaf at W=2 and W=2
    for _ in range(3):
        with pytest.raises(ElaborationError, match="non-positive width"):
            elaborate(design, "top", {"W": 2})  # leaf at W=0 fails
    subtrees = design.memo("elab.subtrees")
    assert ("top", (("W", 2),)) not in subtrees
    assert ("leaf", (("W", 0),)) not in subtrees
    # The degeneracy trial reports the failure every time, identically.
    first = degeneracy_events(design, "top", {"W": 2})
    assert [e.kind for e in first] == ["elaboration-failure"]
    assert degeneracy_events(design, "top", {"W": 2}) == first


_RECURSIVE = """
module k #(parameter N = 1)(input a, output y);
  if (N > 0) begin
    x u (.a(a), .y(y));
  end else begin
    assign y = a;
  end
endmodule
module x(input a, output y);
  k #(.N(0)) u (.a(a), .y(y));
endmodule
module t(input a, output y, output z);
  x u0 (.a(a), .y(y));
  k #(.N(1)) u1 (.a(a), .y(z));
endmodule
"""


def test_memo_never_hides_a_recursion_error():
    # Elaborating t succeeds because x is expanded before k(N=1) reaches
    # it; elaborating k alone walks k -> x -> k and must still fail, as
    # it does on a fresh design.
    fresh = _design(_RECURSIVE)
    with pytest.raises(ElaborationError, match="recursive instantiation"):
        elaborate(fresh, "k")
    design = _design(_RECURSIVE)
    elaborate(design, "t")
    with pytest.raises(ElaborationError, match="recursive instantiation"):
        elaborate(design, "k")


def test_reuse_preserves_specialization_order(monkeypatch):
    design = _design(_FAILING_CHILD)
    warm = [list(elaborate(design, "top", {"W": w}).specializations)
            for w in (4, 3, 4)]
    _no_memo(monkeypatch)
    cold = [list(elaborate(_design(_FAILING_CHILD), "top", {"W": w})
                 .specializations) for w in (4, 3, 4)]
    assert warm == cold


def test_counters_report_reuse():
    before = obs_metrics.snapshot()["counters"]
    design = _design(_FAILING_CHILD)
    elaborate(design, "top", {"W": 4})
    elaborate(design, "top", {"W": 5})  # reuses the leaf(W=2) subtree
    degeneracy_events(design, "top", {"W": 4})
    degeneracy_events(design, "top", {"W": 4})
    after = obs_metrics.snapshot()["counters"]

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    assert delta("elab.subtree_reuse") >= 1
    assert delta("account.trials") == 2
    assert delta("account.trial_memo_hits") == 1


def test_design_add_invalidates_the_memo():
    design = _design(_FAILING_CHILD)
    assert minimal_parameters(design, "leaf") == {"W": 1}
    assert design.memo("elab.subtrees")
    design.add(_design("module other(input a); endmodule").modules["other"])
    assert design.memo("elab.subtrees") == {}
    assert design.memo("degeneracy.minimal") == {}


def test_merge_starts_with_an_empty_memo():
    design = _design(_FAILING_CHILD)
    elaborate(design, "top", {"W": 4})
    merged = design.merge(_design("module other(input a); endmodule"))
    assert merged.memo("elab.subtrees") == {}


def test_memo_stays_out_of_pickles():
    cold = _design(_FAILING_CHILD)
    warm = _design(_FAILING_CHILD)
    elaborate(warm, "top", {"W": 4})
    minimal_parameters(warm, "top")
    assert warm.memo("degeneracy.minimal")
    blob = pickle.dumps(warm)
    assert len(blob) == len(pickle.dumps(cold))
    assert blob == pickle.dumps(cold)
    restored = pickle.loads(blob)
    assert restored == warm
    assert restored.memo("degeneracy.minimal") == {}
    assert minimal_parameters(restored, "top") == minimal_parameters(
        warm, "top"
    )
