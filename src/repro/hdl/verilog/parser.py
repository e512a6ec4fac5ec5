"""Recursive-descent parser for the uVerilog subset.

Produces the language-neutral AST of :mod:`repro.hdl.ast`.  Both Verilog-95
non-ANSI modules and Verilog-2001 ANSI-header modules are accepted; the
style found is recorded in ``Module.language`` (the distinction matters for
the LoC/Stmts productivity discussion in Section 5.2 of the paper).
"""

from __future__ import annotations

from repro.hdl import ast
from repro.hdl.source import HdlSyntaxError, SourceFile
from repro.hdl.verilog.lexer import EOF, ID, NUMBER, OP, SIZED_NUMBER, Token, tokenize
from repro.versions import VERILOG_PARSER_VERSION as PARSER_VERSION  # noqa: F401

_KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "integer", "genvar", "parameter", "localparam", "assign", "always",
    "begin", "end", "if", "else", "case", "casez", "casex", "endcase",
    "default", "for", "generate", "endgenerate", "initial", "posedge",
    "negedge", "or",
}

_UNARY_OPS = ("~", "!", "-", "&", "|", "^")

#: Binary operators, loosest-binding level first (all left-associative).
_PRECEDENCE: tuple[tuple[str, ...], ...] = (
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", "<=", ">", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
)
_BINARY_LEVELS = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}


class _Parser:
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        # Set per module while parsing:
        self._uses_ansi_header = False

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # ``pos`` never passes the trailing EOF token; a lookahead may.
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def check(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == value and tok.kind in (ID, OP)

    def accept(self, value: str) -> bool:
        if self.check(value):
            self.advance()
            return True
        return False

    def expect(self, value: str) -> Token:
        if not self.check(value):
            tok = self.peek()
            raise HdlSyntaxError(
                f"expected {value!r}, found {tok.value or 'end of file'!r}",
                self.source.name, tok.line,
            )
        return self.advance()

    def expect_id(self) -> Token:
        tok = self.peek()
        if tok.kind != ID or tok.value in _KEYWORDS:
            raise HdlSyntaxError(
                f"expected identifier, found {tok.value or 'end of file'!r}",
                self.source.name, tok.line,
            )
        return self.advance()

    def fail(self, message: str) -> HdlSyntaxError:
        return HdlSyntaxError(message, self.source.name, self.peek().line)

    # -- top level ----------------------------------------------------------

    def parse_design(self) -> ast.Design:
        design = ast.Design()
        while self.peek().kind != EOF:
            design.add(self.parse_module())
        return design

    def parse_module(self) -> ast.Module:
        self.expect("module")
        name = self.expect_id().value
        self._uses_ansi_header = False
        items: list[ast.Item] = []
        ports: list[ast.PortDecl] = []
        port_order: list[str] = []
        port_table: dict[str, ast.PortDecl] = {}

        if self.accept("#"):
            self._uses_ansi_header = True
            self.expect("(")
            while True:
                self.accept("parameter")
                pname = self.expect_id().value
                self.expect("=")
                items.append(ast.ParamDecl(pname, self.parse_expr()))
                if not self.accept(","):
                    break
            self.expect(")")

        if self.accept("("):
            if not self.check(")"):
                if self.peek().value in ("input", "output", "inout"):
                    self._uses_ansi_header = True
                    ports.extend(self._parse_ansi_ports())
                else:
                    port_order.append(self.expect_id().value)
                    while self.accept(","):
                        port_order.append(self.expect_id().value)
            self.expect(")")
        self.expect(";")

        while not self.check("endmodule"):
            if self.peek().kind == EOF:
                raise self.fail(f"unterminated module {name!r}")
            self._parse_item(items, port_table)
        self.expect("endmodule")

        if port_order:  # non-ANSI: assemble ports in header order
            missing = [p for p in port_order if p not in port_table]
            if missing:
                raise self.fail(
                    f"module {name!r}: ports {missing} lack direction declarations"
                )
            ports = [port_table[p] for p in port_order]
        elif port_table:
            raise self.fail(
                f"module {name!r} mixes ANSI ports with body direction "
                "declarations"
            )
        language = "verilog2001" if self._uses_ansi_header else "verilog95"
        return ast.Module(
            name=name,
            ports=tuple(ports),
            items=tuple(items),
            language=language,
            source_name=self.source.name,
        )

    def _parse_ansi_ports(self) -> list[ast.PortDecl]:
        ports: list[ast.PortDecl] = []
        direction = "input"
        msb = lsb = None
        while True:
            tok = self.peek()
            if tok.value in ("input", "output", "inout"):
                direction = self.advance().value
                self.accept("reg")
                self.accept("wire")
                msb = lsb = None
                if self.accept("["):
                    msb = self.parse_expr()
                    self.expect(":")
                    lsb = self.parse_expr()
                    self.expect("]")
            pname = self.expect_id().value
            ports.append(ast.PortDecl(pname, direction, msb, lsb))
            if not self.accept(","):
                break
        return ports

    # -- module items ---------------------------------------------------------

    def _parse_item(
        self,
        items: list[ast.Item],
        port_table: dict[str, ast.PortDecl],
    ) -> None:
        tok = self.peek()
        value = tok.value
        if value in ("input", "output", "inout"):
            self._parse_direction_decl(port_table)
        elif value in ("parameter", "localparam"):
            self._parse_param_decl(items)
        elif value in ("wire", "reg", "integer"):
            self._parse_signal_decl(items, port_table)
        elif value == "genvar":
            self.advance()
            # Genvar names need no representation; loops bind them directly.
            self.expect_id()
            while self.accept(","):
                self.expect_id()
            self.expect(";")
        elif value == "assign":
            self.advance()
            line = tok.line
            target = self.parse_lvalue()
            self.expect("=")
            items.append(ast.ContinuousAssign(target, self.parse_expr(), line))
            self.expect(";")
        elif value == "always":
            items.append(self._parse_always())
        elif value == "generate":
            self.advance()
            while not self.check("endgenerate"):
                self._parse_generate_item(items)
            self.expect("endgenerate")
        elif value in ("for", "if"):
            # Verilog-2001 allows generate constructs without the
            # generate/endgenerate keywords.
            self._parse_generate_item(items)
        elif value == "initial":
            self.advance()
            self._skip_statement()
        elif tok.kind == ID and value not in _KEYWORDS:
            items.append(self._parse_instance())
        else:
            raise self.fail(f"unexpected token {value!r} in module body")

    def _parse_range(self) -> tuple[ast.Expr | None, ast.Expr | None]:
        if not self.accept("["):
            return None, None
        msb = self.parse_expr()
        self.expect(":")
        lsb = self.parse_expr()
        self.expect("]")
        return msb, lsb

    def _parse_direction_decl(self, port_table: dict[str, ast.PortDecl]) -> None:
        direction = self.advance().value
        self.accept("reg")
        self.accept("wire")
        msb, lsb = self._parse_range()
        while True:
            name = self.expect_id().value
            port_table[name] = ast.PortDecl(name, direction, msb, lsb)
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_param_decl(self, items: list[ast.Item]) -> None:
        local = self.advance().value == "localparam"
        while True:
            name = self.expect_id().value
            self.expect("=")
            items.append(ast.ParamDecl(name, self.parse_expr(), local=local))
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_signal_decl(
        self,
        items: list[ast.Item],
        port_table: dict[str, ast.PortDecl],
    ) -> None:
        kind = self.advance().value
        if kind == "integer":
            msb: ast.Expr | None = ast.Number(31)
            lsb: ast.Expr | None = ast.Number(0)
        else:
            msb, lsb = self._parse_range()
        while True:
            name = self.expect_id().value
            depth: ast.Expr | None = None
            if self.check("["):  # memory array dimension
                self.advance()
                lo = self.parse_expr()
                self.expect(":")
                hi = self.parse_expr()
                self.expect("]")
                depth = ast.Binary("+", ast.Binary("-", hi, lo), ast.Number(1))
            if name not in port_table:
                # 'reg' re-declaration of an output port only marks
                # registered-ness; the port declaration already carries it.
                items.append(ast.SignalDecl(name, msb, lsb, depth))
            if self.accept("="):
                # Net declaration assignment: wire x = expr;
                items.append(
                    ast.ContinuousAssign(
                        ast.Ident(name), self.parse_expr(), self.peek().line
                    )
                )
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_always(self) -> ast.ProcessBlock:
        line = self.expect("always").line
        self.expect("@")
        clock: str | None = None
        if self.accept("*"):
            kind = "comb"
        else:
            self.expect("(")
            if self.accept("*"):
                kind = "comb"
            elif self.peek().value in ("posedge", "negedge"):
                kind = "seq"
                self.advance()
                clock = self.expect_id().value
                # Extra edges (e.g. asynchronous reset) are accepted but the
                # subset treats the process as clocked by the first edge.
                while self.accept("or") or self.accept(","):
                    if self.peek().value in ("posedge", "negedge"):
                        self.advance()
                    self.expect_id()
            else:
                kind = "comb"
                self.expect_id()
                while self.accept("or") or self.accept(","):
                    self.expect_id()
            self.expect(")")
        body = self._parse_statement_block()
        return ast.ProcessBlock(kind=kind, body=body, clock=clock, line=line)

    def _parse_generate_item(self, items: list[ast.Item]) -> None:
        tok = self.peek()
        if tok.value == "for":
            self.advance()
            self.expect("(")
            var = self.expect_id().value
            self.expect("=")
            start = self.parse_expr()
            self.expect(";")
            cond = self.parse_expr()
            self.expect(";")
            step_var = self.expect_id().value
            if step_var != var:
                raise self.fail(
                    f"generate loop must step its own genvar ({var!r})"
                )
            self.expect("=")
            step = self.parse_expr()
            self.expect(")")
            label = ""
            body: list[ast.Item] = []
            if self.accept("begin"):
                if self.accept(":"):
                    label = self.expect_id().value
                dummy_ports: dict[str, ast.PortDecl] = {}
                while not self.check("end"):
                    self._parse_item(body, dummy_ports)
                self.expect("end")
            else:
                dummy_ports = {}
                self._parse_item(body, dummy_ports)
            items.append(
                ast.GenerateFor(var, start, cond, step, tuple(body), label, tok.line)
            )
        elif tok.value == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self._parse_generate_block()
            else_body: tuple[ast.Item, ...] = ()
            if self.accept("else"):
                else_body = self._parse_generate_block()
            items.append(ast.GenerateIf(cond, then_body, else_body, tok.line))
        else:
            dummy_ports = {}
            self._parse_item(items, dummy_ports)

    def _parse_generate_block(self) -> tuple[ast.Item, ...]:
        body: list[ast.Item] = []
        dummy_ports: dict[str, ast.PortDecl] = {}
        if self.accept("begin"):
            if self.accept(":"):
                self.expect_id()
            while not self.check("end"):
                self._parse_item(body, dummy_ports)
            self.expect("end")
        else:
            self._parse_item(body, dummy_ports)
        return tuple(body)

    def _parse_instance(self) -> ast.Instance:
        tok = self.peek()
        module_name = self.expect_id().value
        param_overrides: list[tuple[str, ast.Expr]] = []
        if self.accept("#"):
            self.expect("(")
            param_overrides = self._parse_connection_list()
            self.expect(")")
        inst_name = self.expect_id().value
        self.expect("(")
        connections = self._parse_connection_list() if not self.check(")") else []
        self.expect(")")
        self.expect(";")
        return ast.Instance(
            module_name=module_name,
            name=inst_name,
            connections=tuple(connections),
            param_overrides=tuple(param_overrides),
            line=tok.line,
        )

    def _parse_connection_list(self) -> list[tuple[str, ast.Expr]]:
        """Named ``.port(expr)`` or positional ``expr`` lists.

        Positional entries use an empty-string name; the elaborator resolves
        them against the instantiated module's declaration order.
        """
        connections: list[tuple[str, ast.Expr]] = []
        while True:
            if self.accept("."):
                pname = self.expect_id().value
                self.expect("(")
                expr = self.parse_expr() if not self.check(")") else None
                self.expect(")")
                if expr is not None:
                    connections.append((pname, expr))
            else:
                connections.append(("", self.parse_expr()))
            if not self.accept(","):
                break
        return connections

    # -- statements -----------------------------------------------------------

    def _parse_statement_block(self) -> tuple[ast.Stmt, ...]:
        if self.accept("begin"):
            if self.accept(":"):
                self.expect_id()
            stmts: list[ast.Stmt] = []
            while not self.check("end"):
                stmt = self._parse_statement()
                if stmt is not None:
                    stmts.append(stmt)
            self.expect("end")
            return tuple(stmts)
        stmt = self._parse_statement()
        return (stmt,) if stmt is not None else ()

    def _parse_statement(self) -> ast.Stmt | None:
        tok = self.peek()
        if tok.value == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self._parse_statement_block()
            else_body: tuple[ast.Stmt, ...] = ()
            if self.accept("else"):
                else_body = self._parse_statement_block()
            return ast.If(cond, then_body, else_body, tok.line)
        if tok.value in ("case", "casez", "casex"):
            self.advance()
            self.expect("(")
            subject = self.parse_expr()
            self.expect(")")
            arms: list[ast.CaseItem] = []
            while not self.check("endcase"):
                choices: tuple[ast.Expr, ...] = ()
                if self.accept("default"):
                    self.accept(":")
                else:
                    choice_list = [self.parse_expr()]
                    while self.accept(","):
                        choice_list.append(self.parse_expr())
                    self.expect(":")
                    choices = tuple(choice_list)
                arms.append(ast.CaseItem(choices, self._parse_statement_block()))
            self.expect("endcase")
            return ast.Case(subject, tuple(arms), tok.line)
        if tok.value == "for":
            self.advance()
            self.expect("(")
            var = self.expect_id().value
            self.expect("=")
            start = self.parse_expr()
            self.expect(";")
            cond = self.parse_expr()
            self.expect(";")
            step_var = self.expect_id().value
            if step_var != var:
                raise self.fail("for loop must step its own variable")
            self.expect("=")
            step = self.parse_expr()
            self.expect(")")
            body = self._parse_statement_block()
            return ast.For(var, start, cond, step, body, tok.line)
        if self.accept(";"):
            return None
        line = tok.line
        target = self.parse_lvalue()
        if self.accept("<="):
            blocking = False
        else:
            self.expect("=")
            blocking = True
        value = self.parse_expr()
        self.expect(";")
        return ast.Assign(target, value, blocking, line)

    def _skip_statement(self) -> None:
        """Skip an initial-block statement (not synthesized)."""
        if self.accept("begin"):
            depth = 1
            while depth:
                tok = self.advance()
                if tok.kind == EOF:
                    raise self.fail("unterminated initial block")
                if tok.value == "begin":
                    depth += 1
                elif tok.value == "end":
                    depth -= 1
            return
        while True:
            tok = self.advance()
            if tok.kind == EOF:
                raise self.fail("unterminated initial statement")
            if tok.value == ";":
                return

    # -- expressions ------------------------------------------------------------

    def parse_lvalue(self) -> ast.Expr:
        if self.check("{"):
            return self._parse_concat()
        name = self.expect_id().value
        expr: ast.Expr = ast.Ident(name)
        return self._parse_selects(expr)

    def _parse_selects(self, expr: ast.Expr) -> ast.Expr:
        while self.check("["):
            self.advance()
            first = self.parse_expr()
            if self.accept(":"):
                lsb = self.parse_expr()
                self.expect("]")
                expr = ast.PartSelect(expr, first, lsb)
            elif self.accept("+:"):
                width = self.parse_expr()
                self.expect("]")
                msb = ast.Binary(
                    "+", first, ast.Binary("-", width, ast.Number(1))
                )
                expr = ast.PartSelect(expr, msb, first)
            elif self.accept("-:"):
                width = self.parse_expr()
                self.expect("]")
                lsb = ast.Binary(
                    "-", first, ast.Binary("-", width, ast.Number(1))
                )
                expr = ast.PartSelect(expr, first, lsb)
            else:
                self.expect("]")
                expr = ast.Select(expr, first)
        return expr

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            other = self.parse_expr()
            return ast.Ternary(cond, then, other)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over ``_BINARY_LEVELS``."""
        lhs = self._parse_unary()
        while True:
            tok = self.peek()
            level = _BINARY_LEVELS.get(tok.value, -1) if tok.kind == OP else -1
            if level < min_level:
                return lhs
            self.advance()
            lhs = ast.Binary(tok.value, lhs, self._parse_binary(level + 1))

    def _parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == OP and tok.value in _UNARY_OPS:
            self.advance()
            return ast.Unary(tok.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == NUMBER or tok.kind == SIZED_NUMBER:
            self.advance()
            try:
                return ast.Number(tok.int_value, tok.width)
            except ValueError as exc:  # a digit outside the literal's base
                raise HdlSyntaxError(str(exc), self.source.name, tok.line) from None
        if tok.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return self._parse_selects(expr)
        if tok.value == "{":
            return self._parse_concat()
        if tok.kind == ID and tok.value not in _KEYWORDS:
            name = self.advance().value
            if name == "$signed" or name == "$unsigned":
                self.expect("(")
                inner = self.parse_expr()
                self.expect(")")
                return inner
            return self._parse_selects(ast.Ident(name))
        raise self.fail(f"unexpected token {tok.value!r} in expression")

    def _parse_concat(self) -> ast.Expr:
        self.expect("{")
        first = self.parse_expr()
        if self.check("{"):
            # Replication {N{expr}}; N may be any constant expression.
            inner = self._parse_concat_inner()
            self.expect("}")
            return ast.Repeat(first, inner)
        parts = [first]
        while self.accept(","):
            parts.append(self.parse_expr())
        self.expect("}")
        return ast.Concat(tuple(parts))

    def _parse_concat_inner(self) -> ast.Expr:
        self.expect("{")
        parts = [self.parse_expr()]
        while self.accept(","):
            parts.append(self.parse_expr())
        self.expect("}")
        if len(parts) == 1:
            return parts[0]
        return ast.Concat(tuple(parts))


def parse_verilog(source: SourceFile) -> ast.Design:
    """Parse a uVerilog source file into a design."""
    from repro.obs import metrics as obs_metrics

    parser = _Parser(source)
    design = parser.parse_design()
    obs_metrics.counter("hdl.tokens_lexed").inc(len(parser.tokens))
    return design
