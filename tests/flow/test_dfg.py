"""Unit tests for the signal-level dataflow-graph builder."""

from repro.elab import elaborate
from repro.flow import INSTANCE_PREFIX, build_dfg
from repro.hdl import parse_verilog
from repro.hdl.source import SourceFile


def _dfg(text, top, params=None):
    design = parse_verilog(SourceFile("t.v", text))
    hierarchy = elaborate(design, top, params)
    return build_dfg(hierarchy.top, design)


CDC = """
module cdc(input clka, input clkb, input d, output y);
  reg src;
  reg dst;
  always @(posedge clka) begin
    src <= d;
  end
  always @(posedge clkb) begin
    dst <= src;
  end
  assign y = dst;
endmodule
"""


class TestNodes:
    def test_kinds_and_widths(self):
        dfg = _dfg("""
module kinds(input clk, input [3:0] a, output [3:0] y);
  wire [3:0] t;
  reg [3:0] q;
  assign t = ~a;
  always @(posedge clk) begin
    q <= t;
  end
  assign y = q;
endmodule
""", "kinds")
        assert dfg.nodes["a"].kind == "input"
        assert dfg.nodes["y"].kind == "output"
        assert dfg.nodes["t"].kind == "wire"
        assert dfg.nodes["q"].kind == "reg"
        assert dfg.nodes["q"].width == 4
        assert dfg.nodes["q"].is_register
        assert not dfg.nodes["t"].is_register

    def test_clock_domains(self):
        dfg = _dfg(CDC, "cdc")
        assert dfg.nodes["src"].clocks == ("clka",)
        assert dfg.nodes["dst"].clocks == ("clkb",)
        assert dfg.clock_signals == {"clka", "clkb"}

    def test_reset_inference(self):
        dfg = _dfg("""
module rst_reg(input clk, input rst, input d, output q);
  reg state;
  always @(posedge clk) begin
    if (rst) begin
      state <= 1'b0;
    end else begin
      state <= d;
    end
  end
  assign q = state;
endmodule
""", "rst_reg")
        assert dfg.nodes["state"].resets == ("rst",)
        assert "rst" in dfg.reset_signals


class TestEdges:
    def test_seq_edges_carry_clock(self):
        dfg = _dfg(CDC, "cdc")
        (edge,) = [e for e in dfg.pred("dst") if e.src == "src"]
        assert edge.kind == "seq"
        assert edge.clock == "clkb"
        assert edge.direct  # bare `dst <= src;`

    def test_logic_is_not_direct(self):
        dfg = _dfg("""
module nd(input clk, input a, input b, output reg q);
  always @(posedge clk) begin
    q <= a ^ b;
  end
endmodule
""", "nd")
        assert all(not e.direct for e in dfg.pred("q"))

    def test_same_process_reread_is_not_feedback(self):
        # `y = a; y = y ^ b;` reads the freshly computed value -- the DFG
        # must not contain a y -> y edge (mirrors the interpreter).
        dfg = _dfg("""
module seqflow(input a, input b, output reg y);
  always @(*) begin
    y = a;
    y = y ^ b;
  end
endmodule
""", "seqflow")
        assert not [e for e in dfg.pred("y") if e.src == "y"]
        assert {e.src for e in dfg.pred("y")} == {"a", "b"}

    def test_condition_reads_are_dependencies(self):
        dfg = _dfg("""
module mux(input s, input a, input b, output reg y);
  always @(*) begin
    if (s) begin
      y = a;
    end else begin
      y = b;
    end
  end
endmodule
""", "mux")
        assert {e.src for e in dfg.pred("y")} == {"s", "a", "b"}

    def test_addr_edges_flagged_and_out_of_comb_graph(self):
        dfg = _dfg("""
module idx(input [1:0] sel, input d, output reg [3:0] y);
  always @(*) begin
    y = 4'b0;
    y[sel] = d;
  end
endmodule
""", "idx")
        addr = [e for e in dfg.pred("y") if e.src == "sel"]
        assert addr and all(e.addr for e in addr)
        assert "y" not in dfg.comb_graph().get("sel", {})
        assert "y" in dfg.comb_graph()["d"]


class TestDriveSites:
    def test_two_assigns_two_sites(self):
        dfg = _dfg("""
module dd(input a, input b, output y);
  wire t;
  assign t = a;
  assign t = b;
  assign y = t;
endmodule
""", "dd")
        sites = dfg.drive_sites["t"]
        assert len(sites) == 2
        assert sites[0].overlaps(sites[1])

    def test_disjoint_ranges_do_not_overlap(self):
        dfg = _dfg("""
module split(input [3:0] a, input [3:0] b, output [7:0] y);
  wire [7:0] t;
  assign t[3:0] = a;
  assign t[7:4] = b;
  assign y = t;
endmodule
""", "split")
        lo, hi = dfg.drive_sites["t"]
        assert lo.ranges == ((3, 0),)
        assert hi.ranges == ((7, 4),)
        assert not lo.overlaps(hi)

    def test_one_process_is_one_site(self):
        dfg = _dfg("""
module p1(input clk, input a, output reg q);
  always @(posedge clk) begin
    q <= 1'b0;
    q <= a;
  end
endmodule
""", "p1")
        assert len(dfg.drive_sites["q"]) == 1


class TestTraversal:
    def test_comb_origins_stop_at_registers(self):
        dfg = _dfg("""
module chain(input clk, input a, output y);
  reg r;
  wire m1;
  wire m2;
  always @(posedge clk) begin
    r <= a;
  end
  assign m1 = r ^ a;
  assign m2 = m1 & r;
  assign y = m2;
endmodule
""", "chain")
        origins = dfg.comb_origins("m2")
        assert set(origins) == {"r", "a"}
        # Witness paths run origin -> ... -> start.
        assert origins["a"][0] == "a" and origins["a"][-1] == "m2"

    def test_terminal_start_is_its_own_origin(self):
        dfg = _dfg(CDC, "cdc")
        assert dfg.comb_origins("src") == {"src": ("src",)}

    def test_alive_excludes_self_feeding_dead_pair(self):
        dfg = _dfg("""
module dead(input clk, input a, output y);
  reg acc;
  wire nxt;
  assign nxt = acc ^ a;
  always @(posedge clk) begin
    acc <= nxt;
  end
  assign y = a;
endmodule
""", "dead")
        alive = dfg.alive()
        assert "acc" not in alive and "nxt" not in alive
        assert {"a", "y"} <= alive


class TestInstances:
    SRC = """
module leaf(input i, output o);
  assign o = ~i;
endmodule

module top(input x, output z);
  wire t;
  leaf u0 (.i(x), .o(t));
  assign z = t;
endmodule
"""

    def test_pseudo_node_and_directions(self):
        design = parse_verilog(SourceFile("t.v", self.SRC))
        hierarchy = elaborate(design, "top", None)
        dfg = build_dfg(hierarchy.top, design)
        node = f"{INSTANCE_PREFIX}u0"
        assert dfg.nodes[node].kind == "instance"
        assert any(e.src == "x" and e.dst == node for e in dfg.edges)
        assert any(e.src == node and e.dst == "t" for e in dfg.edges)
        (site,) = dfg.drive_sites["t"]
        assert site.kind == "instance"

    def test_without_design_connections_are_sinks(self):
        design = parse_verilog(SourceFile("t.v", self.SRC))
        hierarchy = elaborate(design, "top", None)
        dfg = build_dfg(hierarchy.top, design=None)
        node = f"{INSTANCE_PREFIX}u0"
        # Conservative: every connection feeds the child; nothing drives t.
        assert any(e.src == "t" and e.dst == node for e in dfg.edges)
        assert "t" not in dfg.drive_sites

    SLICED = """
module leaf2(input i, output [3:0] o);
  assign o = {4{i}};
endmodule

module banked(input x, output [7:0] bus);
  leaf2 u0 (.i(x), .o(bus[3:0]));
  leaf2 u1 (.i(x), .o(bus[7:4]));
endmodule
"""

    def test_sliced_output_connections_record_ranges(self):
        design = parse_verilog(SourceFile("t.v", self.SLICED))
        hierarchy = elaborate(design, "banked", None)
        dfg = build_dfg(hierarchy.top, design)
        lo, hi = dfg.drive_sites["bus"]
        assert lo.ranges == ((3, 0),)
        assert hi.ranges == ((7, 4),)
        assert not lo.overlaps(hi)
