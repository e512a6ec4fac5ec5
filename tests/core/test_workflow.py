"""Tests for the end-to-end measurement workflow."""

import pytest

from repro.core.accounting import AccountingPolicy
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.hdl.source import HdlSyntaxError, SourceFile
from repro.runtime.diagnostics import Severity
from tests._measure import measure_one, measure_strict

ENGINE = Engine()

_HIER = SourceFile(
    "hier.v",
    """
    module leaf #(parameter W = 8)(input clk, input [W-1:0] d,
                                   output reg [W-1:0] q);
      genvar i;
      generate
        for (i = 1; i < W; i = i + 1) begin : g
          wire t;
          assign t = d[i] ^ d[i-1];
        end
      endgenerate
      always @(posedge clk) q <= d;
    endmodule

    module top(input clk, input [7:0] x, output [7:0] y0, y1, y2);
      leaf #(.W(8)) u0 (.clk(clk), .d(x), .q(y0));
      leaf #(.W(8)) u1 (.clk(clk), .d(~x), .q(y1));
      leaf #(.W(8)) u2 (.clk(clk), .d(x ^ 8'h55), .q(y2));
    endmodule
    """,
)


class TestMeasureComponent:
    def test_metrics_complete(self):
        from repro.flow.metrics import FLOW_METRIC_NAMES

        m = measure_strict(ENGINE, [_HIER], "top")
        expected = {
            "LoC", "Stmts", "FanInLC", "Nets", "Cells", "AreaL", "AreaS",
            "PowerD", "PowerS", "Freq", "FFs",
        } | set(FLOW_METRIC_NAMES)
        assert set(m.metrics) == expected

    def test_accounting_counts_leaf_once(self):
        m = measure_strict(ENGINE, [_HIER], "top")
        modules = [name for name, _ in m.specializations]
        assert modules.count("leaf") == 1
        assert modules.count("top") == 1

    def test_accounting_minimizes_parameters(self):
        m = measure_strict(ENGINE, [_HIER], "top")
        leaf_params = next(
            dict(params) for name, params in m.specializations if name == "leaf"
        )
        assert leaf_params["W"] == 2  # the i=1..W-1 chain needs W >= 2

    def test_disabled_policy_counts_every_instance(self):
        m = measure_strict(
            ENGINE, [_HIER], "top", policy=AccountingPolicy.disabled()
        )
        modules = [name for name, _ in m.specializations]
        assert modules.count("leaf") == 3
        leaf_params = [
            dict(params) for name, params in m.specializations if name == "leaf"
        ]
        assert all(p["W"] == 8 for p in leaf_params)

    def test_ffs_multiply_without_accounting(self):
        with_acct = measure_strict(ENGINE, [_HIER], "top")
        without = measure_strict(
            ENGINE, [_HIER], "top", policy=AccountingPolicy.disabled()
        )
        # 3 instances x 8 FFs vs 1 instance x 2 FFs (minimized width).
        assert without.metrics["FFs"] == 24
        assert with_acct.metrics["FFs"] == 2

    def test_software_metrics_policy_independent(self):
        a = measure_strict(ENGINE, [_HIER], "top")
        b = measure_strict(
            ENGINE, [_HIER], "top", policy=AccountingPolicy.disabled()
        )
        assert a.metrics["LoC"] == b.metrics["LoC"]
        assert a.metrics["Stmts"] == b.metrics["Stmts"]

    def test_identical_specs_synthesized_once(self):
        m = measure_strict(
            ENGINE, [_HIER], "top", policy=AccountingPolicy.disabled()
        )
        # Three identical leaf instances share one synthesis report.
        assert len(m.reports) == 2  # top + leaf(W=8)

    def test_parse_component_merges_files(self):
        a = SourceFile("a.v", "module a(input x); endmodule")
        b = SourceFile("b.v", "module b(input x); a u0 (.x(x)); endmodule")
        m = measure_strict(ENGINE, [a, b], "b")
        assert {name for name, _ in m.specializations} == {"a", "b"}

    def test_freq_is_minimum_across_modules(self):
        m = measure_strict(ENGINE, [_HIER], "top")
        freqs = [rep.metrics()["Freq"] for rep in m.reports.values()]
        assert m.metrics["Freq"] == min(freqs)


_BROKEN = SourceFile("broken.v", "module broken(input x; garbage !!")

_GHOST_TOP = SourceFile(
    "ghost.v",
    """
    module ghost_top(input clk, output y);
      ghost u0 (.clk(clk), .y(y));
    endmodule
    """,
)


_SPIN = SourceFile(
    "spin.v",
    """module spin #(parameter W = 4)(input clk, input [W-1:0] d,
                                 output reg [W-1:0] q);
  integer i;
  always @(posedge clk) begin
    for (i = 0; i < W; i = i) q[i] <= d[i];
  end
endmodule
""",
)


class TestMeasureComponentSafe:
    def test_clean_matches_fail_fast_path(self):
        safe = measure_one(ENGINE, [_HIER], "top")
        assert safe.ok and not safe.diagnostics
        assert safe.value.metrics == measure_strict(ENGINE, [_HIER], "top").metrics

    def test_broken_file_quarantined(self):
        result = measure_one(ENGINE, [_HIER, _BROKEN], "top")
        assert result.degraded
        assert result.value.metrics["FFs"] == 2  # synthesis still ran
        (diag,) = result.diagnostics
        assert diag.stage == "parse"
        assert diag.severity is Severity.ERROR
        assert diag.span is not None and diag.span.file == "broken.v"
        assert diag.hint

    def test_nothing_parseable_is_fatal(self):
        result = measure_one(ENGINE, [_BROKEN], "top")
        assert result.failed
        assert result.severity is Severity.FATAL
        assert any("no source file parsed" in d.message for d in result.diagnostics)

    def test_elaboration_failure_keeps_software_metrics(self):
        result = measure_one(ENGINE, [_GHOST_TOP], "ghost_top")
        assert result.degraded
        assert "LoC" in result.value.metrics
        assert "Cells" not in result.value.metrics
        assert result.value.specializations == []
        assert any(d.stage == "elaborate" for d in result.diagnostics)

    def test_strict_reraises(self):
        with pytest.raises(HdlSyntaxError):
            measure_one(ENGINE, [_BROKEN], "top", strict=True)

    def test_nonterminating_loop_is_located(self):
        result = measure_one(ENGINE, [_SPIN], "spin")
        (diag,) = [d for d in result.diagnostics if d.stage == "account"]
        assert diag.message == "spin: loop 'i' does not terminate"
        assert diag.span is not None
        assert (diag.span.file, diag.span.line) == ("spin.v", 5)
        assert "step" in diag.hint


class TestMeasureComponents:
    def test_batch_isolates_faulty_component(self):
        batch = ENGINE.measure_components(
            [
                ComponentSpec("good", (_HIER,), "top"),
                ComponentSpec("bad", (_BROKEN,), "broken"),
            ]
        )
        assert batch.degraded and not batch.ok
        assert set(batch.measurements) == {"good"}
        assert set(batch.failures) == {"bad"}
        assert batch.results["good"].ok
        assert "fatal" in batch.report()

    def test_all_clean_batch_is_ok(self):
        batch = ENGINE.measure_components(
            [ComponentSpec("good", (_HIER,), "top")]
        )
        assert batch.ok and not batch.degraded
        assert batch.report() == "no diagnostics"
