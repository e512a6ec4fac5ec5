"""Recursive-descent parser for the uVHDL subset.

Entity/architecture pairs become :class:`repro.hdl.ast.Module` instances
(named after the entity).  VHDL constructs map onto the shared AST:

===============================  =====================================
VHDL                             shared AST
===============================  =====================================
generic                          ParamDecl
constant                         ParamDecl(local=True)
signal                           SignalDecl
array type + signal              SignalDecl(depth=...)
concurrent assignment            ContinuousAssign
conditional/selected assignment  ContinuousAssign of nested Ternary
process (clocked)                ProcessBlock(kind="seq")
process (combinational)          ProcessBlock(kind="comb")
component / entity instantiation Instance
for ... generate                 GenerateFor
if ... generate                  GenerateIf
===============================  =====================================

Clock-edge detection understands both ``rising_edge(clk)`` and
``clk'event and clk = '1'``.  A process with an asynchronous reset branch
(`if rst then ... elsif rising_edge(clk)`) is accepted and treated as a
synchronously-reset register, which is metric-equivalent for this
package's purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdl import ast
from repro.hdl.source import HdlSyntaxError, SourceFile
from repro.hdl.vhdl.lexer import BITSTRING, CHAR, EOF, ID, NUMBER, OP, Token, tokenize
from repro.versions import VHDL_PARSER_VERSION as PARSER_VERSION  # noqa: F401

#: Function names stripped as bit-level identities.
_TRANSPARENT_FUNCTIONS = {
    "to_integer", "unsigned", "signed", "std_logic_vector",
    "to_stdlogicvector", "conv_integer", "to_01", "std_ulogic_vector",
}
#: Functions whose second argument is a target width.
_RESIZE_FUNCTIONS = {"to_unsigned", "to_signed", "resize", "conv_std_logic_vector"}

_VHDL_BINARY_TO_AST = {
    "and": "&", "or": "|", "xor": "^", "nand": "~&", "nor": "~|",
    "=": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "sll": "<<", "srl": ">>", "+": "+", "-": "-", "*": "*",
    "/": "/", "mod": "%", "rem": "%",
}


@dataclass
class _Type:
    kind: str  # "scalar" | "vector" | "array"
    msb: ast.Expr | None = None
    lsb: ast.Expr | None = None
    depth: ast.Expr | None = None  # for arrays: number of words


class _Parser:
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.entities: dict[str, tuple[tuple[ast.PortDecl, ...], tuple[ast.ParamDecl, ...]]] = {}
        self.array_types: dict[str, _Type] = {}

    # -- token plumbing ------------------------------------------------------

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
        if tok.kind != ID:
            raise HdlSyntaxError(
                f"expected identifier, found {tok.value or 'end of file'!r}",
                self.source.name, tok.line,
            )
        return self.advance()

    def fail(self, message: str) -> HdlSyntaxError:
        return HdlSyntaxError(message, self.source.name, self.peek().line)

    def _skip_to_semicolon(self) -> None:
        while not self.accept(";"):
            if self.peek().kind == EOF:
                raise self.fail("unexpected end of file")
            self.advance()

    # -- top level ------------------------------------------------------------

    def parse_design(self) -> ast.Design:
        design = ast.Design()
        while self.peek().kind != EOF:
            tok = self.peek()
            if tok.value in ("library", "use"):
                self._skip_to_semicolon()
            elif tok.value == "entity":
                self._parse_entity()
            elif tok.value == "architecture":
                design.add(self._parse_architecture())
            elif tok.value == "package":
                self._skip_package()
            else:
                raise self.fail(f"unexpected token {tok.value!r} at design level")
        return design

    def _skip_package(self) -> None:
        self.expect("package")
        while not (self.check("end")):
            if self.peek().kind == EOF:
                raise self.fail("unterminated package")
            self.advance()
        self.expect("end")
        self._skip_to_semicolon()

    def _parse_entity(self) -> None:
        self.expect("entity")
        name = self.expect_id().value
        self.expect("is")
        params: list[ast.ParamDecl] = []
        ports: list[ast.PortDecl] = []
        if self.accept("generic"):
            self.expect("(")
            params.extend(self._parse_generic_decls())
            self.expect(")")
            self.expect(";")
        if self.accept("port"):
            self.expect("(")
            ports.extend(self._parse_port_decls())
            self.expect(")")
            self.expect(";")
        self.expect("end")
        self.accept("entity")
        if self.peek().kind == ID:
            self.advance()
        self.expect(";")
        self.entities[name] = (tuple(ports), tuple(params))

    def _parse_generic_decls(self) -> list[ast.ParamDecl]:
        decls: list[ast.ParamDecl] = []
        while True:
            names = [self.expect_id().value]
            while self.accept(","):
                names.append(self.expect_id().value)
            self.expect(":")
            self._parse_type()  # generic type (integer/natural/positive)
            default: ast.Expr = ast.Number(1)
            if self.accept(":="):
                default = self.parse_expr()
            decls.extend(ast.ParamDecl(n, default) for n in names)
            if not self.accept(";"):
                break
        return decls

    def _parse_port_decls(self) -> list[ast.PortDecl]:
        ports: list[ast.PortDecl] = []
        while True:
            names = [self.expect_id().value]
            while self.accept(","):
                names.append(self.expect_id().value)
            self.expect(":")
            direction = self.expect_id().value
            if direction == "buffer":
                direction = "out"
            if direction not in ("in", "out", "inout"):
                raise self.fail(f"bad port direction {direction!r}")
            direction = {"in": "input", "out": "output", "inout": "inout"}[direction]
            ptype = self._parse_type()
            if ptype.kind == "array":
                raise self.fail("array types are not allowed on ports")
            for n in names:
                ports.append(ast.PortDecl(n, direction, ptype.msb, ptype.lsb))
            if not self.accept(";"):
                break
        return ports

    def _parse_type(self) -> _Type:
        name = self.expect_id().value
        if name in ("std_logic", "std_ulogic", "bit", "boolean"):
            return _Type("scalar")
        if name in ("std_logic_vector", "std_ulogic_vector", "unsigned", "signed",
                    "bit_vector"):
            self.expect("(")
            first = self.parse_expr()
            direction = self.expect_id().value
            second = self.parse_expr()
            self.expect(")")
            if direction == "downto":
                msb, lsb = first, second
            elif direction == "to":
                msb, lsb = second, first
            else:
                raise self.fail(f"expected downto/to, found {direction!r}")
            return _Type("vector", msb, lsb)
        if name in ("integer", "natural", "positive"):
            if self.accept("range"):
                self.parse_expr()
                self.expect_id()  # to / downto
                self.parse_expr()
            return _Type("vector", ast.Number(31), ast.Number(0))
        if name in self.array_types:
            return self.array_types[name]
        raise self.fail(f"unknown type {name!r}")

    def _parse_architecture(self) -> ast.Module:
        self.expect("architecture")
        self.expect_id()  # architecture name
        self.expect("of")
        entity_name = self.expect_id().value
        self.expect("is")
        if entity_name not in self.entities:
            raise self.fail(
                f"architecture references unknown entity {entity_name!r}"
            )
        ports, params = self.entities[entity_name]
        items: list[ast.Item] = list(params)
        self._parse_declarations(items)
        self.expect("begin")
        while not self.check("end"):
            self._parse_concurrent(items)
        self.expect("end")
        self.accept("architecture")
        if self.peek().kind == ID:
            self.advance()
        self.expect(";")
        return ast.Module(
            name=entity_name,
            ports=ports,
            items=tuple(items),
            language="vhdl",
            source_name=self.source.name,
        )

    def _parse_declarations(self, items: list[ast.Item]) -> None:
        while True:
            tok = self.peek()
            if tok.value == "signal":
                self.advance()
                names = [self.expect_id().value]
                while self.accept(","):
                    names.append(self.expect_id().value)
                self.expect(":")
                stype = self._parse_type()
                if self.accept(":="):
                    self.parse_expr()  # initial value: ignored for synthesis
                self.expect(";")
                for n in names:
                    if stype.kind == "array":
                        items.append(
                            ast.SignalDecl(n, stype.msb, stype.lsb, stype.depth)
                        )
                    else:
                        items.append(ast.SignalDecl(n, stype.msb, stype.lsb))
            elif tok.value == "constant":
                self.advance()
                name = self.expect_id().value
                self.expect(":")
                self._parse_type()
                self.expect(":=")
                items.append(ast.ParamDecl(name, self.parse_expr(), local=True))
                self.expect(";")
            elif tok.value == "type":
                self._parse_type_decl()
            elif tok.value == "component":
                self._skip_component_decl()
            elif tok.value in ("attribute", "subtype"):
                self._skip_to_semicolon()
            else:
                return

    def _parse_type_decl(self) -> None:
        self.expect("type")
        name = self.expect_id().value
        self.expect("is")
        self.expect("array")
        self.expect("(")
        first = self.parse_expr()
        direction = self.expect_id().value
        second = self.parse_expr()
        self.expect(")")
        self.expect("of")
        elem = self._parse_type()
        self.expect(";")
        if elem.kind == "array":
            raise self.fail("nested array types are not supported")
        if direction == "to":
            lo, hi = first, second
        elif direction == "downto":
            lo, hi = second, first
        else:
            raise self.fail(f"expected to/downto, found {direction!r}")
        depth = ast.Binary("+", ast.Binary("-", hi, lo), ast.Number(1))
        self.array_types[name] = _Type("array", elem.msb, elem.lsb, depth)

    def _skip_component_decl(self) -> None:
        self.expect("component")
        while not self.check("end"):
            if self.peek().kind == EOF:
                raise self.fail("unterminated component declaration")
            self.advance()
        self.expect("end")
        self.expect("component")
        if self.peek().kind == ID:
            self.advance()
        self.expect(";")

    # -- concurrent statements --------------------------------------------------

    def _parse_concurrent(self, items: list[ast.Item]) -> None:
        tok = self.peek()
        if tok.value == "process":
            items.append(self._parse_process())
            return
        if tok.value == "with":
            items.append(self._parse_selected_assign())
            return
        # Labeled statement?
        if tok.kind == ID and self.peek(1).kind == OP and self.peek(1).value == ":":
            label = self.advance().value
            self.expect(":")
            nxt = self.peek()
            if nxt.value == "process":
                items.append(self._parse_process())
            elif nxt.value == "for":
                items.append(self._parse_generate_for(label))
            elif nxt.value == "if":
                items.append(self._parse_generate_if())
            else:
                items.append(self._parse_instance(label))
            return
        # Plain concurrent signal assignment.
        line = tok.line
        target = self._parse_name()
        self.expect("<=")
        value = self._parse_waveform()
        self.expect(";")
        items.append(ast.ContinuousAssign(target, value, line))

    def _parse_waveform(self) -> ast.Expr:
        """``e1 [when c1 else e2 [when c2 else e3 ...]]`` -> nested Ternary."""
        value = self.parse_expr()
        if self.accept("when"):
            cond = self.parse_expr()
            self.expect("else")
            other = self._parse_waveform()
            return ast.Ternary(cond, value, other)
        return value

    def _parse_selected_assign(self) -> ast.ContinuousAssign:
        line = self.expect("with").line
        subject = self.parse_expr()
        self.expect("select")
        target = self._parse_name()
        self.expect("<=")
        arms: list[tuple[list[ast.Expr], ast.Expr]] = []
        default: ast.Expr | None = None
        while True:
            value = self.parse_expr()
            self.expect("when")
            if self.accept("others"):
                default = value
            else:
                choices = [self.parse_expr()]
                while self.accept("|"):
                    choices.append(self.parse_expr())
                arms.append((choices, value))
            if not self.accept(","):
                break
        self.expect(";")
        if default is None:
            raise self.fail("selected assignment needs a 'when others' arm")
        result = default
        for choices, value in reversed(arms):
            cond: ast.Expr | None = None
            for choice in choices:
                eq = ast.Binary("==", subject, choice)
                cond = eq if cond is None else ast.Binary("|", cond, eq)
            assert cond is not None
            result = ast.Ternary(cond, value, result)
        return ast.ContinuousAssign(target, result, line)

    def _parse_instance(self, label: str) -> ast.Instance:
        line = self.peek().line
        if self.accept("entity"):
            # direct instantiation: entity work.name
            self.expect_id()  # library (work)
            self.expect(".")
            module_name = self.expect_id().value
        else:
            self.accept("component")
            module_name = self.expect_id().value
        param_overrides: list[tuple[str, ast.Expr]] = []
        connections: list[tuple[str, ast.Expr]] = []
        if self.accept("generic"):
            self.expect("map")
            self.expect("(")
            param_overrides = self._parse_association_list()
            self.expect(")")
        if self.accept("port"):
            self.expect("map")
            self.expect("(")
            connections = self._parse_association_list()
            self.expect(")")
        self.expect(";")
        return ast.Instance(
            module_name=module_name,
            name=label,
            connections=tuple(connections),
            param_overrides=tuple(param_overrides),
            line=line,
        )

    def _parse_association_list(self) -> list[tuple[str, ast.Expr]]:
        assocs: list[tuple[str, ast.Expr]] = []
        while True:
            if (
                self.peek().kind == ID
                and self.peek(1).kind == OP
                and self.peek(1).value == "=>"
            ):
                name = self.advance().value
                self.expect("=>")
                if self.accept("open"):
                    pass  # unconnected output
                else:
                    assocs.append((name, self.parse_expr()))
            else:
                if self.accept("open"):
                    raise self.fail("positional 'open' association is ambiguous")
                assocs.append(("", self.parse_expr()))
            if not self.accept(","):
                break
        return assocs

    def _parse_generate_for(self, label: str) -> ast.GenerateFor:
        line = self.expect("for").line
        var = self.expect_id().value
        self.expect("in")
        start = self.parse_expr()
        self.expect("to")
        stop = self.parse_expr()
        self.expect("generate")
        body: list[ast.Item] = []
        self._parse_declarations(body)
        self.accept("begin")
        while not self.check("end"):
            self._parse_concurrent(body)
        self.expect("end")
        self.expect("generate")
        if self.peek().kind == ID:
            self.advance()
        self.expect(";")
        return ast.GenerateFor(
            var=var,
            start=start,
            cond=ast.Binary("<=", ast.Ident(var), stop),
            step=ast.Binary("+", ast.Ident(var), ast.Number(1)),
            body=tuple(body),
            label=label,
            line=line,
        )

    def _parse_generate_if(self) -> ast.GenerateIf:
        line = self.expect("if").line
        cond = self.parse_expr()
        self.expect("generate")
        body: list[ast.Item] = []
        self._parse_declarations(body)
        self.accept("begin")
        while not self.check("end"):
            self._parse_concurrent(body)
        self.expect("end")
        self.expect("generate")
        if self.peek().kind == ID:
            self.advance()
        self.expect(";")
        return ast.GenerateIf(cond, tuple(body), (), line)

    # -- processes ----------------------------------------------------------------

    def _parse_process(self) -> ast.ProcessBlock:
        line = self.expect("process").line
        if self.accept("("):
            if not self.check(")"):
                self.expect_id()
                while self.accept(","):
                    self.expect_id()
            self.expect(")")
        if self.check("variable"):
            raise self.fail("process variables are outside the uVHDL subset")
        self.expect("begin")
        stmts: list[ast.Stmt] = []
        while not self.check("end"):
            stmt = self._parse_statement()
            if stmt is not None:
                stmts.append(stmt)
        self.expect("end")
        self.expect("process")
        if self.peek().kind == ID:
            self.advance()
        self.expect(";")
        return self._classify_process(tuple(stmts), line)

    def _classify_process(
        self, stmts: tuple[ast.Stmt, ...], line: int
    ) -> ast.ProcessBlock:
        """Detect the clocked-process idioms and strip the edge test."""
        if len(stmts) == 1 and isinstance(stmts[0], ast.If):
            top = stmts[0]
            clock = _clock_of(top.cond)
            if clock is not None and not top.else_body:
                return ast.ProcessBlock("seq", top.then_body, clock, line)
            # Async-reset idiom: if reset then ... elsif rising_edge(clk) ...
            if (
                not _mentions_clock(top.cond)
                and len(top.else_body) == 1
                and isinstance(top.else_body[0], ast.If)
            ):
                inner = top.else_body[0]
                clock = _clock_of(inner.cond)
                if clock is not None and not inner.else_body:
                    body: tuple[ast.Stmt, ...] = (
                        ast.If(top.cond, top.then_body, inner.then_body, top.line),
                    )
                    return ast.ProcessBlock("seq", body, clock, line)
        return ast.ProcessBlock("comb", stmts, None, line)

    # -- sequential statements -------------------------------------------------------

    def _parse_statement(self) -> ast.Stmt | None:
        tok = self.peek()
        if tok.value == "if":
            return self._parse_if()
        if tok.value == "case":
            return self._parse_case()
        if tok.value == "for":
            return self._parse_for()
        if tok.value == "null":
            self.advance()
            self.expect(";")
            return None
        line = tok.line
        target = self._parse_name()
        self.expect("<=")
        value = self.parse_expr()
        self.expect(";")
        return ast.Assign(target, value, blocking=False, line=line)

    def _parse_if(self) -> ast.If:
        line = self.expect("if").line
        cond = self.parse_expr()
        self.expect("then")
        then_body: list[ast.Stmt] = []
        while not (self.check("elsif") or self.check("else") or self.check("end")):
            stmt = self._parse_statement()
            if stmt is not None:
                then_body.append(stmt)
        else_body: tuple[ast.Stmt, ...] = ()
        if self.check("elsif"):
            self.advance()
            # Re-enter as a nested if sharing the same 'end if'.
            nested = self._parse_elsif_chain()
            else_body = (nested,)
        elif self.accept("else"):
            body: list[ast.Stmt] = []
            while not self.check("end"):
                stmt = self._parse_statement()
                if stmt is not None:
                    body.append(stmt)
            else_body = tuple(body)
            self.expect("end")
            self.expect("if")
            self.expect(";")
            return ast.If(cond, tuple(then_body), else_body, line)
        if not else_body:
            self.expect("end")
            self.expect("if")
            self.expect(";")
        return ast.If(cond, tuple(then_body), else_body, line)

    def _parse_elsif_chain(self) -> ast.If:
        line = self.peek().line
        cond = self.parse_expr()
        self.expect("then")
        then_body: list[ast.Stmt] = []
        while not (self.check("elsif") or self.check("else") or self.check("end")):
            stmt = self._parse_statement()
            if stmt is not None:
                then_body.append(stmt)
        else_body: tuple[ast.Stmt, ...] = ()
        if self.accept("elsif"):
            else_body = (self._parse_elsif_chain(),)
            return ast.If(cond, tuple(then_body), else_body, line)
        if self.accept("else"):
            body: list[ast.Stmt] = []
            while not self.check("end"):
                stmt = self._parse_statement()
                if stmt is not None:
                    body.append(stmt)
            else_body = tuple(body)
        self.expect("end")
        self.expect("if")
        self.expect(";")
        return ast.If(cond, tuple(then_body), else_body, line)

    def _parse_case(self) -> ast.Case:
        line = self.expect("case").line
        subject = self.parse_expr()
        self.expect("is")
        arms: list[ast.CaseItem] = []
        while self.check("when"):
            self.advance()
            choices: tuple[ast.Expr, ...] = ()
            if not self.accept("others"):
                choice_list = [self.parse_expr()]
                while self.accept("|"):
                    choice_list.append(self.parse_expr())
                choices = tuple(choice_list)
            self.expect("=>")
            body: list[ast.Stmt] = []
            while not (self.check("when") or self.check("end")):
                stmt = self._parse_statement()
                if stmt is not None:
                    body.append(stmt)
            arms.append(ast.CaseItem(choices, tuple(body)))
        self.expect("end")
        self.expect("case")
        self.expect(";")
        return ast.Case(subject, tuple(arms), line)

    def _parse_for(self) -> ast.For:
        line = self.expect("for").line
        var = self.expect_id().value
        self.expect("in")
        start = self.parse_expr()
        self.expect("to")
        stop = self.parse_expr()
        self.expect("loop")
        body: list[ast.Stmt] = []
        while not self.check("end"):
            stmt = self._parse_statement()
            if stmt is not None:
                body.append(stmt)
        self.expect("end")
        self.expect("loop")
        self.expect(";")
        return ast.For(
            var=var,
            start=start,
            cond=ast.Binary("<=", ast.Ident(var), stop),
            step=ast.Binary("+", ast.Ident(var), ast.Number(1)),
            body=tuple(body),
            line=line,
        )

    # -- expressions ---------------------------------------------------------------

    def _parse_name(self) -> ast.Expr:
        """A signal name with optional index/slice, as an lvalue."""
        name = self.expect_id().value
        expr: ast.Expr = ast.Ident(name)
        while self.check("("):
            self.advance()
            first = self.parse_expr()
            if self.check("downto") or self.check("to"):
                direction = self.advance().value
                second = self.parse_expr()
                self.expect(")")
                if direction == "downto":
                    expr = ast.PartSelect(expr, first, second)
                else:
                    expr = ast.PartSelect(expr, second, first)
            else:
                self.expect(")")
                expr = ast.Select(expr, first)
        return expr

    def parse_expr(self) -> ast.Expr:
        return self._parse_logical()

    def _parse_logical(self) -> ast.Expr:
        lhs = self._parse_relational()
        while self.peek().kind == ID and self.peek().value in (
            "and", "or", "xor", "nand", "nor",
        ):
            op = self.advance().value
            rhs = self._parse_relational()
            mapped = _VHDL_BINARY_TO_AST[op]
            if mapped.startswith("~"):
                lhs = ast.Unary("~", ast.Binary(mapped[1:], lhs, rhs))
            else:
                lhs = ast.Binary(mapped, lhs, rhs)
        return lhs

    def _parse_relational(self) -> ast.Expr:
        lhs = self._parse_shift()
        while self.peek().kind == OP and self.peek().value in (
            "=", "/=", "<", "<=", ">", ">=",
        ):
            op = self.advance().value
            rhs = self._parse_shift()
            lhs = ast.Binary(_VHDL_BINARY_TO_AST[op], lhs, rhs)
        return lhs

    def _parse_shift(self) -> ast.Expr:
        lhs = self._parse_adding()
        while self.peek().kind == ID and self.peek().value in ("sll", "srl"):
            op = self.advance().value
            rhs = self._parse_adding()
            lhs = ast.Binary(_VHDL_BINARY_TO_AST[op], lhs, rhs)
        return lhs

    def _parse_adding(self) -> ast.Expr:
        lhs = self._parse_multiplying()
        while True:
            tok = self.peek()
            if tok.kind == OP and tok.value in ("+", "-"):
                op = self.advance().value
                lhs = ast.Binary(op, lhs, self._parse_multiplying())
            elif tok.kind == OP and tok.value == "&":
                self.advance()
                rhs = self._parse_multiplying()
                # VHDL & is concatenation (left part is more significant).
                if isinstance(lhs, ast.Concat):
                    lhs = ast.Concat(lhs.parts + (rhs,))
                else:
                    lhs = ast.Concat((lhs, rhs))
            else:
                return lhs

    def _parse_multiplying(self) -> ast.Expr:
        lhs = self._parse_unary()
        while (
            self.peek().kind == OP and self.peek().value in ("*", "/")
        ) or (
            self.peek().kind == ID and self.peek().value in ("mod", "rem")
        ):
            op = self.advance().value
            lhs = ast.Binary(_VHDL_BINARY_TO_AST[op], lhs, self._parse_unary())
        return lhs

    def _parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == ID and tok.value == "not":
            self.advance()
            return ast.Unary("~", self._parse_unary())
        if tok.kind == OP and tok.value == "-":
            self.advance()
            return ast.Unary("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind in (NUMBER, BITSTRING, CHAR):
            self.advance()
            try:
                return ast.Number(tok.int_value, tok.width)
            except ValueError as exc:  # a bad digit, or a non-bit character
                raise HdlSyntaxError(str(exc), self.source.name, tok.line) from None
        if tok.kind == OP and tok.value == "(":
            self.advance()
            if self.check("others"):
                self.advance()
                self.expect("=>")
                value = self.parse_expr()
                self.expect(")")
                return ast.Others(value)
            expr = self.parse_expr()
            self.expect(")")
            return self._parse_index_suffix(expr)
        if tok.kind == ID:
            return self._parse_name_or_call()
        raise self.fail(f"unexpected token {tok.value!r} in expression")

    def _parse_name_or_call(self) -> ast.Expr:
        name = self.expect_id().value
        # Attribute: clk'event
        if self.check("'"):
            self.advance()
            attr = self.expect_id().value
            if attr == "event":
                return ast.Unary("@event", ast.Ident(name))
            raise self.fail(f"unsupported attribute '{attr}")
        if name == "rising_edge" and self.check("("):
            self.advance()
            clock = self.expect_id().value
            self.expect(")")
            return ast.Unary("@rising", ast.Ident(clock))
        if name in _RESIZE_FUNCTIONS and self.check("("):
            self.advance()
            value = self.parse_expr()
            self.expect(",")
            width = self.parse_expr()
            self.expect(")")
            return ast.Resize(value, width)
        if name in _TRANSPARENT_FUNCTIONS and self.check("("):
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return self._parse_index_suffix(inner)
        expr: ast.Expr = ast.Ident(name)
        return self._parse_index_suffix(expr)

    def _parse_index_suffix(self, expr: ast.Expr) -> ast.Expr:
        while self.check("("):
            self.advance()
            first = self.parse_expr()
            if self.check("downto") or self.check("to"):
                direction = self.advance().value
                second = self.parse_expr()
                self.expect(")")
                if direction == "downto":
                    expr = ast.PartSelect(expr, first, second)
                else:
                    expr = ast.PartSelect(expr, second, first)
            else:
                self.expect(")")
                expr = ast.Select(expr, first)
        return expr


def _clock_of(cond: ast.Expr) -> str | None:
    """The clock name if ``cond`` is a clock-edge test, else None.

    Recognizes ``rising_edge(clk)`` and ``clk'event and clk = '1'``.
    """
    if isinstance(cond, ast.Unary) and cond.op == "@rising":
        operand = cond.operand
        assert isinstance(operand, ast.Ident)
        return operand.name
    if isinstance(cond, ast.Binary) and cond.op == "&":
        for side, other in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            if isinstance(side, ast.Unary) and side.op == "@event":
                operand = side.operand
                assert isinstance(operand, ast.Ident)
                return operand.name
    return None


def _mentions_clock(cond: ast.Expr) -> bool:
    return _clock_of(cond) is not None


def parse_vhdl(source: SourceFile) -> ast.Design:
    """Parse a uVHDL source file into a design."""
    from repro.obs import metrics as obs_metrics

    parser = _Parser(source)
    design = parser.parse_design()
    obs_metrics.counter("hdl.tokens_lexed").inc(len(parser.tokens))
    return design
