"""Tests for language dispatch and frontend error paths."""

import pytest

from repro.hdl import parse_source
from repro.hdl.source import HdlError, HdlIoError, HdlSyntaxError, SourceFile
from tests._measure import measure_one


class TestFromPath:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "m.v"
        path.write_text("module m(input x); endmodule")
        src = SourceFile.from_path(path)
        assert src.name == "m.v"
        assert "module m" in src.text

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(HdlIoError, match="no such file") as info:
            SourceFile.from_path(tmp_path / "nope.v")
        assert info.value.file.endswith("nope.v")
        assert "check the path" in info.value.hint

    def test_directory_wrapped(self, tmp_path):
        with pytest.raises(HdlIoError, match="directory"):
            SourceFile.from_path(tmp_path)

    def test_non_utf8_wrapped(self, tmp_path):
        path = tmp_path / "bin.v"
        path.write_bytes(b"module \xff\xfe garbage")
        with pytest.raises(HdlIoError, match="UTF-8") as info:
            SourceFile.from_path(path)
        assert "re-encode" in info.value.hint

    def test_io_error_is_hdl_error(self):
        assert issubclass(HdlIoError, HdlError)


class TestDispatch:
    def test_verilog_extension(self):
        design = parse_source(SourceFile("a.v", "module m(input x); endmodule"))
        assert "m" in design.modules

    def test_vhdl_extension(self):
        design = parse_source(
            SourceFile(
                "a.vhd",
                "entity e is port ( x : in std_logic ); end e;"
                "architecture r of e is begin end r;",
            )
        )
        assert "e" in design.modules

    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError, match="extension"):
            parse_source(SourceFile("a.txt", ""))


class TestVhdlErrorPaths:
    def _parse(self, text):
        return parse_source(SourceFile("t.vhd", text))

    def test_process_variables_rejected(self):
        with pytest.raises(HdlSyntaxError, match="variable"):
            self._parse(
                "entity e is port ( x : in std_logic ); end e;"
                "architecture r of e is begin"
                " process (x) variable v : std_logic; begin end process;"
                " end r;"
            )

    def test_bad_port_direction(self):
        with pytest.raises(HdlSyntaxError, match="direction"):
            self._parse("entity e is port ( x : sideways std_logic ); end e;")

    def test_unknown_type(self):
        with pytest.raises(HdlSyntaxError, match="unknown type"):
            self._parse("entity e is port ( x : in my_record_t ); end e;")

    def test_array_port_rejected(self):
        with pytest.raises(HdlSyntaxError):
            self._parse(
                "entity e is port ( x : in mem_t ); end e;"
            )

    def test_nested_array_type_rejected(self):
        with pytest.raises(HdlSyntaxError, match="nested array"):
            self._parse(
                "entity e is port ( x : in std_logic ); end e;"
                "architecture r of e is"
                " type row is array (0 to 3) of std_logic_vector(7 downto 0);"
                " type grid is array (0 to 3) of row;"
                " begin end r;"
            )

    def test_unsupported_attribute(self):
        with pytest.raises(HdlSyntaxError, match="attribute"):
            self._parse(
                "entity e is port ( x : in std_logic_vector(3 downto 0);"
                " y : out std_logic ); end e;"
                "architecture r of e is begin y <= x'left; end r;"
            )

    def test_source_file_line_lookup(self):
        src = SourceFile("t.vhd", "one\ntwo\nthree")
        assert src.line(2) == "two"
        with pytest.raises(IndexError):
            src.line(9)


class TestVerilogErrorPaths:
    def _parse(self, text):
        return parse_source(SourceFile("t.v", text))

    def test_unterminated_module(self):
        with pytest.raises(HdlSyntaxError, match="unterminated"):
            self._parse("module m(input a);")

    def test_mixed_ansi_and_body_directions(self):
        with pytest.raises(HdlSyntaxError, match="mixes"):
            self._parse(
                "module m(input a); input b; endmodule"
            )

    def test_expression_error_has_location(self):
        with pytest.raises(HdlSyntaxError, match="t.v:2"):
            self._parse("module m(input a);\nassign y = ~;\nendmodule")


_BAD_LITERALS = [
    ("bad.v", "module m(output [3:0] y);\n  assign y = 4'b1021;\nendmodule\n",
     "4'b1021", 2),
    ("bad.v", "module m(output [7:0] y);\n\n  assign y = 8'o9;\nendmodule\n",
     "8'o9", 3),
    ("bad.vhd", "entity m is port (y : out std_logic_vector(3 downto 0));\n"
     "end entity;\narchitecture rtl of m is\nbegin\n  y <= b\"1021\";\n"
     "end architecture;\n", 'b"1021"', 5),
    ("bad.vhd", "entity m is port (y : out std_logic_vector(2 downto 0));\n"
     "end entity;\narchitecture rtl of m is\nbegin\n\n  y <= o\"8\";\n"
     "end architecture;\n", 'o"8"', 6),
]


class TestInvalidLiteralDigits:
    """A digit outside a literal's base is a located syntax error."""

    @pytest.mark.parametrize("name, text, literal, line", _BAD_LITERALS)
    def test_parse_raises_syntax_error(self, name, text, literal, line):
        with pytest.raises(HdlSyntaxError) as info:
            parse_source(SourceFile(name, text))
        assert info.value.line == line
        assert info.value.file == name
        assert literal in info.value.message

    @pytest.mark.parametrize("name, text, literal, line", _BAD_LITERALS)
    def test_lint_reports_parse_stage(self, name, text, literal, line):
        from repro.lint import lint_sources

        report = lint_sources([SourceFile(name, text)])
        (diag,) = report.errors
        assert diag.stage == "parse"
        assert (diag.span.file, diag.span.line) == (name, line)
        assert literal in diag.message
        assert "defined twice" not in (diag.hint or "")

    @pytest.mark.parametrize("name, text, literal, line", _BAD_LITERALS)
    def test_measure_reports_parse_stage(self, name, text, literal, line):
        from repro.core.engine import Engine

        result = measure_one(Engine(), [SourceFile(name, text)], top="m")
        located = [d for d in result.diagnostics if d.span is not None]
        assert len(located) == 1
        (diag,) = located
        assert diag.stage == "parse"
        assert (diag.span.file, diag.span.line) == (name, line)
        assert literal in diag.message
