"""Tier-2 fault injection: corrupted HDL sources (``pytest -m faultinject``).

Each test corrupts one input deterministically and asserts the measurement
pipeline *isolates* the fault (the batch completes, only the faulty unit is
quarantined), *degrades* (partial metrics survive), and *reports* (a
structured diagnostic names the stage and source location).
"""

import pytest

from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.hdl.source import SourceFile
from repro.runtime.diagnostics import Severity
from repro.runtime.faultinject import (
    corrupt_generate_bound,
    swap_tokens,
    truncate_source,
)
from tests._measure import measure_one

pytestmark = pytest.mark.faultinject

_GOOD = SourceFile(
    "good.v",
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

    module top(input clk, input [7:0] x, output [7:0] y0, y1);
      leaf #(.W(8)) u0 (.clk(clk), .d(x), .q(y0));
      leaf #(.W(8)) u1 (.clk(clk), .d(~x), .q(y1));
    endmodule
    """,
)


class TestTruncation:
    def test_truncated_source_fails_parse_with_location(self):
        bad = truncate_source(_GOOD, keep_fraction=0.5)
        result = measure_one(Engine(), [bad], "top")
        assert result.failed
        parse = [d for d in result.diagnostics if d.stage == "parse"]
        assert parse
        assert parse[0].span is not None and parse[0].span.file == "good.v"
        assert parse[0].hint

    def test_truncation_is_deterministic(self):
        a = truncate_source(_GOOD, keep_fraction=0.5)
        b = truncate_source(_GOOD, keep_fraction=0.5)
        assert a.text == b.text and len(a.text) < len(_GOOD.text)

    def test_batch_quarantines_only_truncated_component(self):
        batch = Engine().measure_components(
            [
                ComponentSpec("clean", (_GOOD,), "top"),
                ComponentSpec(
                    "corrupt", (truncate_source(_GOOD, 0.5),), "top"
                ),
            ]
        )
        assert set(batch.measurements) == {"clean"}
        assert set(batch.failures) == {"corrupt"}
        assert batch.results["clean"].ok
        assert batch.degraded  # batch completed, with failure reports


class TestTokenSwap:
    def test_swapped_tokens_are_deterministic(self):
        a = swap_tokens(_GOOD, n_swaps=6, seed=3)
        b = swap_tokens(_GOOD, n_swaps=6, seed=3)
        assert a.text == b.text and a.text != _GOOD.text

    def test_swapped_source_degrades_not_crashes(self):
        bad = swap_tokens(_GOOD, n_swaps=6, seed=3)
        result = measure_one(Engine(), [bad], "top")
        # Scrambled identifiers must never escape as a raw traceback:
        # whatever stage trips reports a structured diagnostic, and a
        # clean sibling in the same batch is unaffected.
        batch = Engine().measure_components(
            [
                ComponentSpec("clean", (_GOOD,), "top"),
                ComponentSpec("swapped", (bad,), "top"),
            ]
        )
        assert batch.results["clean"].ok
        if not result.ok:
            assert result.diagnostics
            assert all(d.stage for d in result.diagnostics)


class TestSynthesisLowering:
    # Division by a non-power-of-two constant parses and elaborates but is
    # outside the synthesizable subset -- it trips in synth lowering only.
    _MIXED = SourceFile(
        "mixed.v",
        """
        module divider(input [7:0] a, output [7:0] y);
          assign y = a / 3;
        endmodule

        module doubler(input [7:0] a, output [7:0] y);
          assign y = a + a;
        endmodule

        module mixed_top(input [7:0] x, output [7:0] y0, y1);
          divider u0 (.a(x), .y(y0));
          doubler u1 (.a(x), .y(y1));
        endmodule
        """,
    )

    def test_unsupported_spec_quarantined_others_aggregated(self):
        result = measure_one(Engine(), [self._MIXED], "mixed_top")
        assert result.degraded
        measured = [name for name, _ in result.value.specializations]
        assert "doubler" in measured and "divider" not in measured
        assert "Cells" in result.value.metrics  # aggregated from survivors
        synth = [d for d in result.diagnostics if d.stage == "synthesize"]
        assert any("power-of-two" in d.message for d in synth)
        assert any(
            "divider" in d.message and d.severity is Severity.WARNING
            for d in synth
        )


class TestGenerateBound:
    def test_runaway_generate_quarantined_at_elaborate(self):
        bad = corrupt_generate_bound(_GOOD)
        result = measure_one(Engine(), [bad], "top")
        assert result.degraded  # software metrics survive
        assert "LoC" in result.value.metrics
        assert "Cells" not in result.value.metrics
        elab = [d for d in result.diagnostics if d.stage == "elaborate"]
        assert elab and elab[0].severity is Severity.ERROR
        assert elab[0].span is not None
        assert elab[0].span.file == "good.v"
        assert elab[0].span.line > 0

    def test_no_loop_to_corrupt_raises(self):
        flat = SourceFile("flat.v", "module flat(input x); endmodule")
        with pytest.raises(ValueError, match="no for-loop bound"):
            corrupt_generate_bound(flat)
