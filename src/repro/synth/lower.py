"""Lowering: elaborated RTL -> gate-level netlist.

This is the synthesis core that stands in for Design Compiler's translation
step.  Word-level RTL constructs are decomposed into library cells:

* bitwise logic -> AND2/OR2/XOR2/INV (with constant folding and structural
  CSE, i.e. the basic optimizations any synthesis tool performs);
* addition/subtraction -> ripple carry out of XOR/AND/OR cells;
* equality/magnitude comparison -> XOR trees and borrow chains;
* multiplexing (``?:``, if/else, case) -> MUX2 trees;
* multiplication -> shift-and-add partial-product array;
* shifts by non-constant amounts -> barrel stages;
* registers -> one DFF per bit, with procedural control flow turned into
  D-input mux trees by symbolic execution of the process body;
* memories (2-D arrays) -> RAM macros with read/write ports.

Child instances are kept as black boxes: their pins become cone boundaries
(the paper measures each component's own logic; sub-components are measured
separately, which is what the accounting procedure requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.elab.consteval import ConstEvalError, eval_const, substitute
from repro.elab.elaborator import (
    DesignHierarchy,
    ElaboratedModule,
    SignalInfo,
)
from repro.hdl import ast
from repro.hdl.source import HdlError
from repro.synth.netlist import CONST0, CONST1, Memory, Netlist, ReadPort, WritePort
from repro.versions import SYNTH_VERSION  # noqa: F401 -- re-exported

Bits = list[int]


class SynthesisError(HdlError):
    """Raised when a module cannot be lowered to gates."""


@dataclass
class _MemWrite:
    memory: str
    addr: ast.Expr
    data: ast.Expr
    cond: ast.Expr | None


def synthesize_module(
    hierarchy: DesignHierarchy,
    key: tuple | None = None,
) -> Netlist:
    """Lower one specialization (default: the top) to a gate-level netlist."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    spec = hierarchy.specializations[key or hierarchy.top_key]
    with obs_trace.span("synthesize", module=spec.module.name) as sp:
        netlist = _Lowerer(spec, hierarchy).run()
        obs_metrics.counter("synth.specializations").inc()
        sp.set_attr("cells", len(netlist.cells))
        return netlist


class _Lowerer:
    def __init__(self, spec: ElaboratedModule, hierarchy: DesignHierarchy) -> None:
        self.spec = spec
        self.hierarchy = hierarchy
        self.nl = Netlist(spec.name)
        self.values: dict[str, Bits] = {}
        self.memories: dict[str, Memory] = {}
        self._read_ports: dict[tuple, tuple[int, ...]] = {}
        # signal -> list of (target lvalue, value expr or pre-lowered bits)
        self.drivers: dict[str, list[tuple[ast.Expr, ast.Expr | Bits]]] = {}
        self._resolving: set[str] = set()
        self.lints: list[str] = []
        # Expression lowering memo, keyed by AST node identity and width
        # hint.  Symbolic execution builds heavily *shared* expression DAGs
        # (e.g. successive dynamic bit-writes each referencing the previous
        # whole-register expression); without the memo those DAGs would be
        # re-lowered exponentially.
        self._expr_memo: dict[tuple[int, int | None], Bits] = {}
        # Keep memoized nodes alive so ids stay unique.
        self._memo_pins: list[ast.Expr] = []

    # ------------------------------------------------------------------ run

    def run(self) -> Netlist:
        spec = self.spec
        # Ports.
        output_ports: list[SignalInfo] = []
        for sig in spec.signals.values():
            if sig.direction == "inout":
                raise SynthesisError(
                    f"{spec.name}: inout port {sig.name!r} is outside the subset"
                )
            if sig.direction == "input":
                bits = [self.nl.new_net(f"{sig.name}[{i}]") for i in range(sig.width)]
                for b in bits:
                    self.nl.mark_input(b)
                self.values[sig.name] = bits
                self.nl.port_bits[sig.name] = bits
            elif sig.is_memory:
                mem = Memory(sig.name, sig.width, sig.depth or 1)
                self.memories[sig.name] = mem
                self.nl.memories.append(mem)
            if sig.direction == "output":
                output_ports.append(sig)

        # Continuous assignments drive their target signals.
        for assign in spec.assigns:
            self._add_driver(assign.target, assign.value, assign.line)

        # Combinational processes: symbolic execution yields one expression
        # per assigned signal.
        seq_next: dict[str, ast.Expr] = {}
        mem_writes: list[_MemWrite] = []
        for proc in spec.processes:
            env: dict[str, ast.Expr] = {}
            writes: list[_MemWrite] = []
            self._exec_stmts(proc.body, env, None, writes, comb=proc.kind == "comb")
            if proc.kind == "comb":
                if writes:
                    raise SynthesisError(
                        f"{spec.name}: memory written from a combinational "
                        "process"
                    )
                for name, expr in env.items():
                    self._add_driver(ast.Ident(name), expr, proc.line)
            else:
                for name, expr in env.items():
                    if name in seq_next:
                        raise SynthesisError(
                            f"{spec.name}: {name!r} assigned in two clocked "
                            "processes"
                        )
                    seq_next[name] = expr
                mem_writes.extend(writes)

        # Pre-allocate register outputs so next-state logic can read them.
        for name in seq_next:
            sig = self._signal(name)
            self.values[name] = [
                self.nl.new_net(f"{name}[{i}]") for i in range(sig.width)
            ]

        # Child instances: outputs become sources, inputs become sinks.
        deferred_sinks: list[tuple[ast.Expr, int]] = []  # (expr, width)
        for inst in spec.instances:
            child_key = (inst.module_name, tuple(sorted(inst.parameters.items())))
            child = self.hierarchy.specializations[child_key]
            for port_name, expr in inst.connections:
                port = child.signal(port_name)
                if port.direction == "input":
                    deferred_sinks.append((expr, port.width))
                elif port.direction == "output":
                    bits = [
                        self.nl.new_net(f"{inst.name}.{port_name}[{i}]")
                        for i in range(port.width)
                    ]
                    self.nl.blackbox_sources.extend(bits)
                    self._add_driver(expr, bits, inst.line)
                else:
                    raise SynthesisError(
                        f"{spec.name}: inout connection on {inst.name}"
                    )

        # Primary outputs.
        for sig in output_ports:
            bits = self._signal_bits(sig.name)
            self.nl.port_bits[sig.name] = list(bits)
            for bit in bits:
                self.nl.mark_output(bit)

        # Blackbox input pins.
        for expr, width in deferred_sinks:
            bits = self._adapt(self._lower(expr, width), width)
            self.nl.blackbox_sinks.extend(bits)

        # Registers.
        for name, expr in seq_next.items():
            sig = self._signal(name)
            d_bits = self._adapt(self._lower(expr, sig.width), sig.width)
            q_bits = self.values[name]
            for d, q in zip(d_bits, q_bits):
                self.nl.add_dff(d, q)

        # Memory write ports.
        for write in mem_writes:
            mem = self.memories[write.memory]
            addr_w = max(1, (mem.depth - 1).bit_length())
            addr = tuple(self._adapt(self._lower(write.addr, addr_w), addr_w))
            data = tuple(self._adapt(self._lower(write.data, mem.width), mem.width))
            enable = (
                CONST1 if write.cond is None else self._as_bool(self._lower(write.cond, 1))
            )
            mem.write_ports.append(WritePort(addr, data, enable))

        self.nl.validate()
        return self.nl

    # -------------------------------------------------------------- helpers

    def _signal(self, name: str) -> SignalInfo:
        try:
            return self.spec.signals[name]
        except KeyError:
            raise SynthesisError(
                f"{self.spec.name}: unknown signal {name!r}"
            ) from None

    def _add_driver(
        self, target: ast.Expr, value: ast.Expr | Bits, line: int
    ) -> None:
        if isinstance(target, ast.Concat):
            if not isinstance(value, list):
                # Split {a, b} = expr by lowering the RHS once.
                widths = [self._lvalue_width(p) for p in target.parts]
                bits = self._adapt(self._lower(value, sum(widths)), sum(widths))
                offset = 0
                for part in reversed(target.parts):
                    w = self._lvalue_width(part)
                    self._add_driver(part, bits[offset:offset + w], line)
                    offset += w
                return
            raise SynthesisError(
                f"{self.spec.name}:{line}: cannot connect bits to a "
                "concatenated lvalue"
            )
        base = _base_name(target)
        self.drivers.setdefault(base, []).append((target, value))

    def _lvalue_width(self, target: ast.Expr) -> int:
        if isinstance(target, ast.Ident):
            return self._signal(target.name).width
        if isinstance(target, ast.Select):
            return 1
        if isinstance(target, ast.PartSelect):
            msb = self._const(target.msb)
            lsb = self._const(target.lsb)
            return msb - lsb + 1
        raise SynthesisError(
            f"{self.spec.name}: unsupported lvalue {type(target).__name__}"
        )

    def _const(self, expr: ast.Expr) -> int:
        try:
            return eval_const(expr, self.spec.env)
        except ConstEvalError as exc:
            raise SynthesisError(f"{self.spec.name}: {exc}") from None

    def _try_const(self, expr: ast.Expr) -> int | None:
        try:
            return eval_const(expr, self.spec.env)
        except ConstEvalError:
            return None

    # ------------------------------------------------------- signal resolve

    def _signal_bits(self, name: str) -> Bits:
        if name in self.values:
            return self.values[name]
        if name in self.memories:
            raise SynthesisError(
                f"{self.spec.name}: memory {name!r} read without an index"
            )
        if name in self._resolving:
            raise SynthesisError(
                f"{self.spec.name}: combinational loop through {name!r}"
            )
        sig = self._signal(name)
        entries = self.drivers.get(name)
        if not entries:
            self.lints.append(f"{name}: undriven signal tied to 0")
            bits = [CONST0] * sig.width
            self.values[name] = bits
            return bits
        self._resolving.add(name)
        try:
            bits = self._materialize(sig, entries)
        finally:
            self._resolving.discard(name)
        self.values[name] = bits
        return bits

    def _materialize(
        self, sig: SignalInfo, entries: list[tuple[ast.Expr, ast.Expr | Bits]]
    ) -> Bits:
        bits: list[int | None] = [None] * sig.width
        for target, value in entries:
            lo, hi = self._target_span(sig, target)
            width = hi - lo + 1
            if isinstance(value, list):
                val_bits = self._adapt(list(value), width)
            else:
                val_bits = self._adapt(self._lower(value, width), width)
            for off, b in enumerate(val_bits):
                if bits[lo + off] is not None:
                    raise SynthesisError(
                        f"{self.spec.name}: multiple drivers for "
                        f"{sig.name}[{lo + off}]"
                    )
                bits[lo + off] = b
        for i, b in enumerate(bits):
            if b is None:
                self.lints.append(f"{sig.name}[{i}]: undriven bit tied to 0")
                bits[i] = CONST0
        return [b for b in bits if b is not None]

    def _target_span(self, sig: SignalInfo, target: ast.Expr) -> tuple[int, int]:
        if isinstance(target, ast.Ident):
            return 0, sig.width - 1
        if isinstance(target, ast.Select):
            idx = self._try_const(target.index)
            if idx is None:
                raise SynthesisError(
                    f"{self.spec.name}: non-constant bit select on lvalue "
                    f"{sig.name!r} outside a process"
                )
            pos = idx - sig.lsb
            self._check_span(sig, pos, pos)
            return pos, pos
        if isinstance(target, ast.PartSelect):
            msb = self._const(target.msb) - sig.lsb
            lsb = self._const(target.lsb) - sig.lsb
            self._check_span(sig, lsb, msb)
            return lsb, msb
        raise SynthesisError(
            f"{self.spec.name}: unsupported lvalue {type(target).__name__}"
        )

    def _check_span(self, sig: SignalInfo, lo: int, hi: int) -> None:
        if lo < 0 or hi >= sig.width or lo > hi:
            raise SynthesisError(
                f"{self.spec.name}: select [{hi}:{lo}] out of range for "
                f"{sig.name!r} (width {sig.width})"
            )

    # -------------------------------------------------------------- gates

    def _g_not(self, a: int) -> int:
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        return self.nl.add_cell("INV", (a,))

    def _g_and(self, a: int, b: int) -> int:
        if CONST0 in (a, b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        return self.nl.add_cell("AND2", _ordered(a, b))

    def _g_or(self, a: int, b: int) -> int:
        if CONST1 in (a, b):
            return CONST1
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == b:
            return a
        return self.nl.add_cell("OR2", _ordered(a, b))

    def _g_xor(self, a: int, b: int) -> int:
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == CONST1:
            return self._g_not(b)
        if b == CONST1:
            return self._g_not(a)
        if a == b:
            return CONST0
        return self.nl.add_cell("XOR2", _ordered(a, b))

    def _g_mux(self, sel: int, a0: int, a1: int) -> int:
        """``sel ? a1 : a0``."""
        if sel == CONST0:
            return a0
        if sel == CONST1:
            return a1
        if a0 == a1:
            return a0
        if a0 == CONST0 and a1 == CONST1:
            return sel
        if a0 == CONST1 and a1 == CONST0:
            return self._g_not(sel)
        return self.nl.add_cell("MUX2", (sel, a0, a1))

    def _reduce(self, op, bits: Sequence[int]) -> int:
        if not bits:
            return CONST0
        acc = list(bits)
        while len(acc) > 1:
            nxt = [op(acc[i], acc[i + 1]) for i in range(0, len(acc) - 1, 2)]
            if len(acc) % 2:
                nxt.append(acc[-1])
            acc = nxt
        return acc[0]

    def _as_bool(self, bits: Bits) -> int:
        return self._reduce(self._g_or, bits)

    def _adapt(self, bits: Bits, width: int) -> Bits:
        if len(bits) >= width:
            return bits[:width]
        return bits + [CONST0] * (width - len(bits))

    def _add(self, a: Bits, b: Bits, carry_in: int = CONST0) -> tuple[Bits, int]:
        """Ripple-carry addition; returns (sum bits, carry out)."""
        width = max(len(a), len(b))
        a = self._adapt(a, width)
        b = self._adapt(b, width)
        carry = carry_in
        out: Bits = []
        for i in range(width):
            axb = self._g_xor(a[i], b[i])
            out.append(self._g_xor(axb, carry))
            carry = self._g_or(self._g_and(a[i], b[i]), self._g_and(axb, carry))
        return out, carry

    def _sub(self, a: Bits, b: Bits) -> tuple[Bits, int]:
        """a - b; the returned carry is 1 when a >= b (no borrow)."""
        width = max(len(a), len(b))
        a = self._adapt(a, width)
        b = [self._g_not(bit) for bit in self._adapt(b, width)]
        return self._add(a, b, CONST1)

    def _mul(self, a: Bits, b: Bits, width: int) -> Bits:
        acc: Bits = [CONST0] * width
        for i, b_bit in enumerate(b):
            if i >= width or b_bit == CONST0:
                continue
            partial = [CONST0] * i + [self._g_and(a_bit, b_bit) for a_bit in a]
            acc, _ = self._add(acc, self._adapt(partial, width))
            acc = self._adapt(acc, width)
        return acc

    def _mux_word(self, sel: int, if0: Bits, if1: Bits) -> Bits:
        width = max(len(if0), len(if1))
        if0 = self._adapt(if0, width)
        if1 = self._adapt(if1, width)
        return [self._g_mux(sel, z, o) for z, o in zip(if0, if1)]

    def _eq(self, a: Bits, b: Bits) -> int:
        width = max(len(a), len(b))
        a = self._adapt(a, width)
        b = self._adapt(b, width)
        diff = [self._g_xor(x, y) for x, y in zip(a, b)]
        return self._g_not(self._reduce(self._g_or, diff))

    # ------------------------------------------------------- expressions

    def _lower(self, expr: ast.Expr, hint: int | None = None) -> Bits:
        key = (id(expr), hint)
        cached = self._expr_memo.get(key)
        if cached is not None:
            return list(cached)
        bits = self._lower_uncached(expr, hint)
        self._expr_memo[key] = list(bits)
        self._memo_pins.append(expr)
        return bits

    def _lower_uncached(self, expr: ast.Expr, hint: int | None = None) -> Bits:
        if isinstance(expr, ast.Number):
            width = expr.width or hint or max(1, expr.value.bit_length())
            value = expr.value & ((1 << width) - 1)
            return [CONST1 if (value >> i) & 1 else CONST0 for i in range(width)]
        if isinstance(expr, ast.Ident):
            if expr.name in self.spec.env and expr.name not in self.spec.signals:
                return self._lower(ast.Number(self.spec.env[expr.name]), hint)
            return list(self._signal_bits(expr.name))
        if isinstance(expr, ast.Select):
            return self._lower_select(expr)
        if isinstance(expr, ast.PartSelect):
            base_lsb = 0
            if isinstance(expr.base, ast.Ident) and expr.base.name in self.spec.signals:
                base_lsb = self.spec.signals[expr.base.name].lsb
            bits = self._lower(expr.base)
            msb = self._const(expr.msb) - base_lsb
            lsb = self._const(expr.lsb) - base_lsb
            if isinstance(expr.base, ast.Number) and expr.base.width is None:
                # Unsized literals are at least 32 bits wide in Verilog;
                # selecting above the minimal encoding reads zeros.
                bits = self._adapt(bits, msb + 1)
            if lsb < 0 or msb >= len(bits) or lsb > msb:
                raise SynthesisError(
                    f"{self.spec.name}: part select [{msb}:{lsb}] out of range"
                )
            return bits[lsb:msb + 1]
        if isinstance(expr, ast.Concat):
            out: Bits = []
            for part in reversed(expr.parts):
                out.extend(self._lower(part))
            return out
        if isinstance(expr, ast.Repeat):
            count = self._const(expr.count)
            unit = self._lower(expr.value)
            out = []
            for _ in range(count):
                out.extend(unit)
            return out
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr, hint)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr, hint)
        if isinstance(expr, ast.Ternary):
            sel = self._as_bool(self._lower(expr.cond, 1))
            then_bits = self._lower(expr.then, hint)
            else_bits = self._lower(expr.other, hint)
            if hint:
                then_bits = self._adapt(then_bits, hint)
                else_bits = self._adapt(else_bits, hint)
            return self._mux_word(sel, else_bits, then_bits)
        if isinstance(expr, ast.Resize):
            return self._adapt(self._lower(expr.value), self._const(expr.width))
        if isinstance(expr, ast.Others):
            if hint is None:
                raise SynthesisError(
                    f"{self.spec.name}: (others => ...) in a width-free context"
                )
            bit = self._as_bool(self._lower(expr.value, 1))
            return [bit] * hint
        raise SynthesisError(
            f"{self.spec.name}: cannot lower {type(expr).__name__}"
        )

    def _lower_select(self, expr: ast.Select) -> Bits:
        # Memory read?
        if isinstance(expr.base, ast.Ident) and expr.base.name in self.memories:
            return list(self._memory_read(expr.base.name, expr.index))
        idx = self._try_const(expr.index)
        base_lsb = 0
        if isinstance(expr.base, ast.Ident) and expr.base.name in self.spec.signals:
            base_lsb = self.spec.signals[expr.base.name].lsb
        bits = self._lower(expr.base)
        if idx is not None:
            pos = idx - base_lsb
            if not 0 <= pos < len(bits):
                raise SynthesisError(
                    f"{self.spec.name}: bit select {idx} out of range"
                )
            return [bits[pos]]
        # Variable index: mux tree over the vector, one level per index bit
        # (each level halves the candidate set).
        index_bits = self._lower(expr.index)
        index_bits = index_bits[: max(1, (len(bits) - 1).bit_length())]
        result = bits
        for sel in index_bits:
            nxt: Bits = []
            for i in range(0, len(result), 2):
                low = result[i]
                high = result[i + 1] if i + 1 < len(result) else CONST0
                nxt.append(self._g_mux(sel, low, high))
            result = nxt
        return [result[0]]

    def _memory_read(self, name: str, index: ast.Expr) -> tuple[int, ...]:
        mem = self.memories[name]
        addr_w = max(1, (mem.depth - 1).bit_length())
        addr = tuple(self._adapt(self._lower(index, addr_w), addr_w))
        key = (name, addr)
        if key in self._read_ports:
            return self._read_ports[key]
        outs = tuple(
            self.nl.new_net(f"{name}.rd{len(mem.read_ports)}[{i}]")
            for i in range(mem.width)
        )
        mem.read_ports.append(ReadPort(addr, outs))
        self._read_ports[key] = outs
        return outs

    def _lower_unary(self, expr: ast.Unary, hint: int | None) -> Bits:
        if expr.op == "~":
            bits = self._lower(expr.operand, hint)
            if hint:
                bits = self._adapt(bits, hint)
            return [self._g_not(b) for b in bits]
        if expr.op == "!":
            return [self._g_not(self._as_bool(self._lower(expr.operand)))]
        if expr.op == "-":
            bits = self._lower(expr.operand, hint)
            width = hint or len(bits)
            zero = [CONST0] * width
            out, _ = self._sub(zero, self._adapt(bits, width))
            return out
        if expr.op == "&":
            return [self._reduce(self._g_and, self._lower(expr.operand))]
        if expr.op == "|":
            return [self._reduce(self._g_or, self._lower(expr.operand))]
        if expr.op == "^":
            return [self._reduce(self._g_xor, self._lower(expr.operand))]
        raise SynthesisError(
            f"{self.spec.name}: unary {expr.op!r} unsupported",
            file=self.spec.module.source_name,
            hint="rewrite the expression with the supported operator subset "
                 "(bitwise logic, +/-, comparisons, shifts, mux)",
        )

    def _lower_binary(self, expr: ast.Binary, hint: int | None) -> Bits:
        op = expr.op
        if op in ("&", "|", "^"):
            a = self._lower(expr.lhs, hint)
            b = self._lower(expr.rhs, hint)
            width = max(len(a), len(b), hint or 1)
            a = self._adapt(a, width)
            b = self._adapt(b, width)
            gate = {"&": self._g_and, "|": self._g_or, "^": self._g_xor}[op]
            return [gate(x, y) for x, y in zip(a, b)]
        if op == "&&":
            return [
                self._g_and(
                    self._as_bool(self._lower(expr.lhs)),
                    self._as_bool(self._lower(expr.rhs)),
                )
            ]
        if op == "||":
            return [
                self._g_or(
                    self._as_bool(self._lower(expr.lhs)),
                    self._as_bool(self._lower(expr.rhs)),
                )
            ]
        if op == "+":
            a = self._lower(expr.lhs, hint)
            b = self._lower(expr.rhs, hint)
            width = max(len(a), len(b), hint or 1)
            out, _ = self._add(self._adapt(a, width), self._adapt(b, width))
            return out
        if op == "-":
            a = self._lower(expr.lhs, hint)
            b = self._lower(expr.rhs, hint)
            width = max(len(a), len(b), hint or 1)
            out, _ = self._sub(self._adapt(a, width), self._adapt(b, width))
            return out
        if op == "*":
            a = self._lower(expr.lhs)
            b = self._lower(expr.rhs)
            width = hint or (len(a) + len(b))
            return self._mul(a, b, width)
        if op in ("/", "%"):
            rhs = self._try_const(expr.rhs)
            if rhs is None or rhs <= 0 or rhs & (rhs - 1):
                raise SynthesisError(
                    f"{self.spec.name}: {op} requires a constant power-of-two "
                    "divisor (use iterative divider logic otherwise)"
                )
            shift = rhs.bit_length() - 1
            bits = self._lower(expr.lhs, hint)
            if op == "/":
                return bits[shift:] or [CONST0]
            return bits[:shift] or [CONST0]
        if op in ("==", "!="):
            eq = self._eq(self._lower(expr.lhs), self._lower(expr.rhs))
            return [eq if op == "==" else self._g_not(eq)]
        if op in ("<", "<=", ">", ">="):
            a = self._lower(expr.lhs)
            b = self._lower(expr.rhs)
            if op in (">", ">="):
                a, b = b, a
                op = {"<": "<", ">": "<", "<=": "<=", ">=": "<="}[op]
            _, carry = self._sub(a, b)
            lt = self._g_not(carry)  # borrow => a < b
            if op == "<":
                return [lt]
            # a <= b  <=>  not (b < a)
            _, carry_ba = self._sub(b, a)
            return [carry_ba]
        if op in ("<<", ">>"):
            return self._lower_shift(expr, hint)
        raise SynthesisError(
            f"{self.spec.name}: binary {op!r} unsupported",
            file=self.spec.module.source_name,
            hint="rewrite the expression with the supported operator subset "
                 "(bitwise logic, +/-, *, comparisons, shifts, mux)",
        )

    def _lower_shift(self, expr: ast.Binary, hint: int | None) -> Bits:
        bits = self._lower(expr.lhs, hint)
        width = max(len(bits), hint or 1)
        bits = self._adapt(bits, width)
        amount = self._try_const(expr.rhs)
        left = expr.op == "<<"
        if amount is not None:
            if amount >= width:
                return [CONST0] * width
            if left:
                return ([CONST0] * amount + bits)[:width]
            return bits[amount:] + [CONST0] * amount
        sel_bits = self._lower(expr.rhs)
        sel_bits = sel_bits[: max(1, (width - 1).bit_length()) + 1]
        result = bits
        for level, sel in enumerate(sel_bits):
            k = 1 << level
            if k >= width:
                shifted = [CONST0] * width
            elif left:
                shifted = ([CONST0] * k + result)[:width]
            else:
                shifted = result[k:] + [CONST0] * k
            result = self._mux_word(sel, result, shifted)
        return result

    # --------------------------------------------------- symbolic execution

    def _exec_stmts(
        self,
        stmts: tuple[ast.Stmt, ...],
        env: dict[str, ast.Expr],
        cond: ast.Expr | None,
        writes: list[_MemWrite],
        comb: bool,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._exec_assign(stmt, env, cond, writes, comb)
            elif isinstance(stmt, ast.If):
                self._exec_if(stmt, env, cond, writes, comb)
            elif isinstance(stmt, ast.Case):
                desugared = _case_to_if(stmt)
                self._exec_stmts(desugared, env, cond, writes, comb)
            elif isinstance(stmt, ast.For):
                self._exec_for(stmt, env, cond, writes, comb)
            else:
                raise SynthesisError(
                    f"{self.spec.name}: unknown statement {type(stmt).__name__}"
                )

    def _inline(self, expr: ast.Expr, env: Mapping[str, ast.Expr]) -> ast.Expr:
        """Blocking-semantics read: substitute current process values."""
        if not env:
            return expr
        return substitute(expr, env)

    def _exec_assign(
        self,
        stmt: ast.Assign,
        env: dict[str, ast.Expr],
        cond: ast.Expr | None,
        writes: list[_MemWrite],
        comb: bool,
    ) -> None:
        # Path conditions are rebuilt by the if/else merge in _exec_if, so
        # env updates here are unconditional; ``cond`` is only recorded for
        # memory write ports, which are side effects outside the env.
        value = self._inline(stmt.value, env) if comb else stmt.value
        target = stmt.target
        if isinstance(target, ast.Ident):
            name = target.name
            if name in self.memories:
                raise SynthesisError(
                    f"{self.spec.name}: whole-memory assignment to {name!r}"
                )
            env[name] = value
            return
        if isinstance(target, ast.Select):
            base = target.base
            if isinstance(base, ast.Ident) and base.name in self.memories:
                index = self._inline(target.index, env) if comb else target.index
                writes.append(_MemWrite(base.name, index, value, cond))
                return
            if not isinstance(base, ast.Ident):
                raise SynthesisError(
                    f"{self.spec.name}: nested select lvalue unsupported"
                )
            name = base.name
            sig = self._signal(name)
            self._require_zero_lsb(sig)
            old = env.get(name, ast.Ident(name))
            index = self._inline(target.index, env) if comb else target.index
            env[name] = self._set_bits(old, sig, index, value)
            return
        if isinstance(target, ast.PartSelect):
            base = target.base
            if not isinstance(base, ast.Ident):
                raise SynthesisError(
                    f"{self.spec.name}: nested part-select lvalue unsupported"
                )
            name = base.name
            sig = self._signal(name)
            self._require_zero_lsb(sig)
            old = env.get(name, ast.Ident(name))
            msb = self._const(target.msb)
            lsb = self._const(target.lsb)
            self._check_span(sig, lsb, msb)
            env[name] = self._splice(old, sig.width, lsb, msb, value)
            return
        if isinstance(target, ast.Concat):
            # Split into per-part assignments, MSB part first.
            widths = [self._lvalue_width(p) for p in target.parts]
            total = sum(widths)
            padded = ast.Resize(value, ast.Number(total))
            offset = total
            for part, w in zip(target.parts, widths):
                offset -= w
                piece = ast.PartSelect(
                    padded, ast.Number(offset + w - 1), ast.Number(offset)
                )
                self._exec_assign(
                    ast.Assign(part, piece, stmt.blocking, stmt.line),
                    env, cond, writes, comb,
                )
            return
        raise SynthesisError(
            f"{self.spec.name}: unsupported assignment target "
            f"{type(target).__name__}"
        )

    def _require_zero_lsb(self, sig: SignalInfo) -> None:
        if sig.lsb != 0:
            raise SynthesisError(
                f"{self.spec.name}: procedural part assignment to "
                f"{sig.name!r} requires a [W-1:0] declaration"
            )

    def _set_bits(
        self,
        old: ast.Expr,
        sig: SignalInfo,
        index: ast.Expr,
        value: ast.Expr,
    ) -> ast.Expr:
        idx = self._try_const(index)
        if idx is not None:
            self._check_span(sig, idx, idx)
            return self._splice(old, sig.width, idx, idx, value)
        # Dynamic index: per-bit select muxes, MSB first for Concat.
        parts = []
        for j in reversed(range(sig.width)):
            match = ast.Binary("==", index, ast.Number(j))
            parts.append(
                ast.Ternary(match, value, ast.Select(old, ast.Number(j)))
            )
        return ast.Concat(tuple(parts))

    @staticmethod
    def _splice(
        old: ast.Expr, width: int, lsb: int, msb: int, value: ast.Expr
    ) -> ast.Expr:
        """Replace bits [msb:lsb] (0-based positions) of ``old``."""
        parts: list[ast.Expr] = []
        if msb + 1 <= width - 1:
            parts.append(
                ast.PartSelect(_wrap(old), ast.Number(width - 1), ast.Number(msb + 1))
            )
        parts.append(ast.Resize(_wrap(value), ast.Number(msb - lsb + 1)))
        if lsb > 0:
            parts.append(
                ast.PartSelect(_wrap(old), ast.Number(lsb - 1), ast.Number(0))
            )
        if len(parts) == 1:
            return parts[0]
        return ast.Concat(tuple(parts))

    def _exec_if(
        self,
        stmt: ast.If,
        env: dict[str, ast.Expr],
        cond: ast.Expr | None,
        writes: list[_MemWrite],
        comb: bool,
    ) -> None:
        c = self._inline(stmt.cond, env) if comb else stmt.cond
        folded = self._try_const(c)
        if folded is not None:
            branch = stmt.then_body if folded else stmt.else_body
            self._exec_stmts(branch, env, cond, writes, comb)
            return
        env_t = dict(env)
        env_e = dict(env)
        cond_t = c if cond is None else ast.Binary("&&", cond, c)
        not_c = ast.Unary("!", c)
        cond_e = not_c if cond is None else ast.Binary("&&", cond, not_c)
        self._exec_stmts(stmt.then_body, env_t, cond_t, writes, comb)
        self._exec_stmts(stmt.else_body, env_e, cond_e, writes, comb)
        # Merge in first-write order: set order would tie the mux build
        # order (and so the mapped netlist) to the string hash seed.
        for name in dict.fromkeys([*env_t, *env_e]):
            incoming = env.get(name, ast.Ident(name))
            t_val = env_t.get(name, incoming)
            e_val = env_e.get(name, incoming)
            if t_val is e_val:
                env[name] = t_val
            else:
                env[name] = ast.Ternary(c, t_val, e_val)

    def _exec_for(
        self,
        stmt: ast.For,
        env: dict[str, ast.Expr],
        cond: ast.Expr | None,
        writes: list[_MemWrite],
        comb: bool,
    ) -> None:
        value = self._const(stmt.start)
        trips = 0
        while True:
            binding = {stmt.var: ast.Number(value)}
            if not self._const(substitute(stmt.cond, binding)):
                break
            trips += 1
            if trips > 65536:
                raise SynthesisError(
                    f"{self.spec.name}: loop over {stmt.var!r} too long"
                )
            body = _subst_into_stmts(stmt.body, binding)
            self._exec_stmts(body, env, cond, writes, comb)
            value = self._const(substitute(stmt.step, binding))


def _wrap(expr: ast.Expr) -> ast.Expr:
    return expr


def _ordered(a: int, b: int) -> tuple[int, int]:
    """Canonical input order so CSE catches commuted gates."""
    return (a, b) if a <= b else (b, a)


def _base_name(target: ast.Expr) -> str:
    if isinstance(target, ast.Ident):
        return target.name
    if isinstance(target, (ast.Select, ast.PartSelect)):
        return _base_name(target.base)
    raise SynthesisError(f"unsupported lvalue {type(target).__name__}")


def _case_to_if(stmt: ast.Case) -> tuple[ast.Stmt, ...]:
    """Desugar a case statement into an if/else chain."""
    default_body: tuple[ast.Stmt, ...] = ()
    arms = []
    for item in stmt.items:
        if item.choices:
            arms.append(item)
        else:
            default_body = item.body
    result: tuple[ast.Stmt, ...] = default_body
    for item in reversed(arms):
        cond: ast.Expr | None = None
        for choice in item.choices:
            eq = ast.Binary("==", stmt.subject, choice)
            cond = eq if cond is None else ast.Binary("||", cond, eq)
        assert cond is not None
        result = (ast.If(cond, item.body, result, stmt.line),)
    return result


def _subst_into_stmts(
    stmts: tuple[ast.Stmt, ...], binding: dict[str, ast.Expr]
) -> tuple[ast.Stmt, ...]:
    from repro.elab.elaborator import _subst_stmts

    return _subst_stmts(stmts, binding)
