"""Tests for the uVerilog parser."""

import pytest

from repro.hdl import ast
from repro.hdl.source import HdlSyntaxError, SourceFile
from repro.hdl.verilog import parse_verilog


def _parse(text):
    return parse_verilog(SourceFile("t.v", text))


def _module(text, name=None):
    design = _parse(text)
    if name is None:
        (name,) = design.modules
    return design.modules[name]


class TestModuleHeaders:
    def test_ansi_module_is_verilog2001(self):
        m = _module("module m(input a, output b); assign b = a; endmodule")
        assert m.language == "verilog2001"
        assert m.port_names == ("a", "b")
        assert m.port("a").direction == "input"

    def test_non_ansi_module_is_verilog95(self):
        m = _module(
            """
            module m(a, b);
              input  [3:0] a;
              output [3:0] b;
              assign b = a;
            endmodule
            """
        )
        assert m.language == "verilog95"
        assert m.port_names == ("a", "b")
        assert m.port("b").is_vector

    def test_ansi_parameters(self):
        m = _module(
            "module m #(parameter W = 4, D = 2)(input [W-1:0] a); endmodule"
        )
        assert [p.name for p in m.params] == ["W", "D"]

    def test_body_parameters_and_localparam(self):
        m = _module(
            """
            module m(a); input a;
              parameter W = 8;
              localparam HALF = W / 2;
            endmodule
            """
        )
        assert [p.name for p in m.params] == ["W"]
        locals_ = [
            i for i in m.items if isinstance(i, ast.ParamDecl) and i.local
        ]
        assert [p.name for p in locals_] == ["HALF"]

    def test_missing_direction_rejected(self):
        with pytest.raises(HdlSyntaxError, match="lack direction"):
            _parse("module m(a); endmodule")

    def test_empty_port_list(self):
        m = _module("module m(); endmodule")
        assert m.ports == ()

    def test_duplicate_modules_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _parse("module m(); endmodule module m(); endmodule")

    def test_vector_port_direction_groups(self):
        m = _module(
            "module m(input [7:0] a, b, output c); endmodule"
        )
        assert m.port("b").is_vector
        assert not m.port("c").is_vector
        assert m.port("c").direction == "output"


class TestDeclarations:
    def test_wire_with_init(self):
        m = _module(
            "module m(input a, output y); wire w = ~a; assign y = w; endmodule"
        )
        assigns = [i for i in m.items if isinstance(i, ast.ContinuousAssign)]
        assert len(assigns) == 2

    def test_memory_array(self):
        m = _module(
            "module m(input clk); reg [7:0] mem [0:63]; endmodule"
        )
        decl = next(i for i in m.items if isinstance(i, ast.SignalDecl))
        assert decl.is_memory
        assert decl.name == "mem"

    def test_integer_becomes_32bit(self):
        m = _module("module m(input clk); integer i; endmodule")
        decl = next(i for i in m.items if isinstance(i, ast.SignalDecl))
        assert decl.msb == ast.Number(31)

    def test_output_reg_not_redeclared(self):
        m = _module(
            """
            module m(q); output [3:0] q; reg [3:0] q;
            endmodule
            """
        )
        assert not any(isinstance(i, ast.SignalDecl) for i in m.items)


class TestAlwaysBlocks:
    def test_posedge_clock(self):
        m = _module(
            "module m(input clk, d, output reg q);"
            " always @(posedge clk) q <= d; endmodule"
        )
        proc = next(i for i in m.items if isinstance(i, ast.ProcessBlock))
        assert proc.kind == "seq"
        assert proc.clock == "clk"
        assert isinstance(proc.body[0], ast.Assign)
        assert not proc.body[0].blocking

    def test_star_sensitivity_is_comb(self):
        m = _module(
            "module m(input a, output reg y); always @(*) y = a; endmodule"
        )
        proc = next(i for i in m.items if isinstance(i, ast.ProcessBlock))
        assert proc.kind == "comb"
        assert proc.body[0].blocking

    def test_explicit_sensitivity_is_comb(self):
        m = _module(
            "module m(input a, b, output reg y);"
            " always @(a or b) y = a & b; endmodule"
        )
        proc = next(i for i in m.items if isinstance(i, ast.ProcessBlock))
        assert proc.kind == "comb"

    def test_async_reset_edge_list_takes_first_clock(self):
        m = _module(
            "module m(input clk, rst, d, output reg q);"
            " always @(posedge clk or posedge rst)"
            "   if (rst) q <= 1'b0; else q <= d;"
            " endmodule"
        )
        proc = next(i for i in m.items if isinstance(i, ast.ProcessBlock))
        assert proc.kind == "seq"
        assert proc.clock == "clk"

    def test_if_else_and_case(self):
        m = _module(
            """
            module m(input [1:0] s, input a, b, output reg y);
              always @(*) begin
                if (s == 2'b00) y = a;
                else begin
                  case (s)
                    2'b01: y = b;
                    2'b10, 2'b11: y = a ^ b;
                    default: y = 1'b0;
                  endcase
                end
              end
            endmodule
            """
        )
        proc = next(i for i in m.items if isinstance(i, ast.ProcessBlock))
        top = proc.body[0]
        assert isinstance(top, ast.If)
        case = top.else_body[0]
        assert isinstance(case, ast.Case)
        assert len(case.items) == 3
        assert case.items[1].choices and len(case.items[1].choices) == 2
        assert case.items[2].choices == ()  # default

    def test_procedural_for(self):
        m = _module(
            """
            module m(input [3:0] a, output reg p);
              integer i;
              always @(*) begin
                p = 1'b0;
                for (i = 0; i < 4; i = i + 1) p = p ^ a[i];
              end
            endmodule
            """
        )
        proc = next(i for i in m.items if isinstance(i, ast.ProcessBlock))
        loop = proc.body[1]
        assert isinstance(loop, ast.For)
        assert loop.var == "i"

    def test_initial_block_skipped(self):
        m = _module(
            """
            module m(input clk);
              reg r;
              initial begin r = 0; end
            endmodule
            """
        )
        assert not any(isinstance(i, ast.ProcessBlock) for i in m.items)


class TestInstancesAndGenerate:
    def test_named_connections_and_params(self):
        m = _module(
            """
            module m(input clk, output [3:0] q);
              sub #(.W(4)) u0 (.clk(clk), .q(q));
            endmodule
            """
        )
        inst = next(i for i in m.items if isinstance(i, ast.Instance))
        assert inst.module_name == "sub"
        assert inst.name == "u0"
        assert dict(inst.param_overrides).keys() == {"W"}
        assert dict(inst.connections).keys() == {"clk", "q"}

    def test_positional_connections(self):
        m = _module(
            "module m(input a, output y); buf_cell u0 (a, y); endmodule"
        )
        inst = next(i for i in m.items if isinstance(i, ast.Instance))
        assert [name for name, _ in inst.connections] == ["", ""]

    def test_unconnected_port_skipped(self):
        m = _module(
            "module m(input a); sub u0 (.x(a), .y()); endmodule"
        )
        inst = next(i for i in m.items if isinstance(i, ast.Instance))
        assert dict(inst.connections).keys() == {"x"}

    def test_generate_for(self):
        m = _module(
            """
            module m(input [3:0] a, output [3:0] y);
              genvar g;
              generate
                for (g = 0; g < 4; g = g + 1) begin : lane
                  assign y[g] = ~a[g];
                end
              endgenerate
            endmodule
            """
        )
        gen = next(i for i in m.items if isinstance(i, ast.GenerateFor))
        assert gen.var == "g"
        assert gen.label == "lane"
        assert len(gen.body) == 1

    def test_generate_if_else(self):
        m = _module(
            """
            module m #(parameter FAST = 1)(input a, output y);
              if (FAST) begin
                assign y = a;
              end else begin
                assign y = ~a;
              end
            endmodule
            """
        )
        gen = next(i for i in m.items if isinstance(i, ast.GenerateIf))
        assert len(gen.then_body) == 1
        assert len(gen.else_body) == 1

    def test_generate_for_must_step_own_genvar(self):
        with pytest.raises(HdlSyntaxError, match="genvar"):
            _parse(
                """
                module m(input a);
                  genvar g, h;
                  for (g = 0; g < 2; h = h + 1) begin assign x = a; end
                endmodule
                """
            )


class TestExpressions:
    def _rhs(self, expr_text, header="input [7:0] a, b, input c,"):
        m = _module(
            f"module m({header} output [7:0] y); assign y = {expr_text}; endmodule"
        )
        assign = next(i for i in m.items if isinstance(i, ast.ContinuousAssign))
        return assign.value

    def test_precedence_ternary_lowest(self):
        e = self._rhs("c ? a + b : a & b")
        assert isinstance(e, ast.Ternary)
        assert isinstance(e.then, ast.Binary) and e.then.op == "+"

    def test_precedence_arith_over_compare(self):
        e = self._rhs("a + b == a")
        assert e.op == "=="
        assert isinstance(e.lhs, ast.Binary) and e.lhs.op == "+"

    def test_left_associativity(self):
        e = self._rhs("a - b - a")
        assert e.op == "-"
        assert isinstance(e.lhs, ast.Binary) and e.lhs.op == "-"

    def test_all_binary_levels_with_unary_and_ternary(self):
        e = self._rhs(
            "c || a && b | a ^ b & a == b != c < a >= b << 2 >> c"
            " + -a * b % 2 - ~b / a ? a : !c"
        )
        a, b, c = ast.Ident("a"), ast.Ident("b"), ast.Ident("c")
        B = ast.Binary
        arith = B(
            "-",
            B("+", c, B("%", B("*", ast.Unary("-", a), b), ast.Number(2))),
            B("/", ast.Unary("~", b), a),
        )
        shift = B(">>", B("<<", b, ast.Number(2)), arith)
        compare = B(">=", B("<", c, a), shift)
        equality = B("!=", B("==", a, b), compare)
        cond = B("||", c, B("&&", a, B("|", b, B("^", a, B("&", b, equality)))))
        assert e == ast.Ternary(cond, a, ast.Unary("!", c))

    def test_unary_reduce(self):
        e = self._rhs("&a | ^b")
        assert e.op == "|"
        assert isinstance(e.lhs, ast.Unary) and e.lhs.op == "&"

    def test_concat_and_repeat(self):
        e = self._rhs("{a[3:0], {4{c}}}")
        assert isinstance(e, ast.Concat)
        assert isinstance(e.parts[0], ast.PartSelect)
        assert isinstance(e.parts[1], ast.Repeat)

    def test_parameterized_repeat_count(self):
        m = _module(
            "module m #(parameter W=4)(input c, output [W-1:0] y);"
            " assign y = {W{c}}; endmodule"
        )
        assign = next(i for i in m.items if isinstance(i, ast.ContinuousAssign))
        assert isinstance(assign.value, ast.Repeat)
        assert assign.value.count == ast.Ident("W")

    def test_bit_and_part_select(self):
        e = self._rhs("{a[0], b[7:4]}")
        assert isinstance(e.parts[0], ast.Select)
        assert isinstance(e.parts[1], ast.PartSelect)

    def test_indexed_part_select_plus(self):
        e = self._rhs("a[c +: 4]")
        assert isinstance(e, ast.PartSelect)

    def test_signed_wrapper_transparent(self):
        e = self._rhs("$signed(a) + b")
        assert e.op == "+"
        assert isinstance(e.lhs, ast.Ident)

    def test_concat_lvalue(self):
        m = _module(
            "module m(input [1:0] s, output a, b);"
            " assign {a, b} = s; endmodule"
        )
        assign = next(i for i in m.items if isinstance(i, ast.ContinuousAssign))
        assert isinstance(assign.target, ast.Concat)

    def test_syntax_error_position(self):
        with pytest.raises(HdlSyntaxError, match="t.v:3"):
            _parse("module m(input a);\n\nassign = 1;\nendmodule")
