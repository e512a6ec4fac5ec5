"""Language-neutral HDL abstract syntax tree.

Both the uVerilog and uVHDL parsers produce these nodes, so everything
downstream (elaboration, statement counting, synthesis) is written once.
The node set covers the synthesizable subset the bundled designs use:
parameterized modules, vector signals and memories, continuous assignments,
clocked and combinational processes, if/case/for statements, generate
loops and conditionals, and hierarchical instantiation.

Width expressions are kept symbolic (they may reference parameters) and are
resolved during elaboration by :mod:`repro.elab.consteval`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    """Integer literal, optionally with an explicit bit width."""

    value: int
    width: int | None = None


@dataclass(frozen=True)
class Ident:
    """Reference to a signal, parameter, genvar, or port."""

    name: str


@dataclass(frozen=True)
class Select:
    """Single-element select: bit select of a vector or read of a memory."""

    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class PartSelect:
    """Constant part select ``base[msb:lsb]`` (``base(msb downto lsb)``)."""

    base: "Expr"
    msb: "Expr"
    lsb: "Expr"


@dataclass(frozen=True)
class Concat:
    """Concatenation; parts are most-significant first."""

    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class Repeat:
    """Replication ``{count{value}}`` / ``(others => bit)``."""

    count: "Expr"
    value: "Expr"


@dataclass(frozen=True)
class Unary:
    """Unary operator.  ops: ``~ ! - & | ^`` (``&``/``|``/``^`` reduce)."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    """Binary operator.

    ops: ``+ - * & | ^ && || == != < <= > >= << >>``.  Division and modulus
    are supported only with constant operands (they fold during
    elaboration); the bundled designs use iterative divider logic instead.
    """

    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Ternary:
    """Conditional expression ``cond ? a : b`` / ``a when cond else b``."""

    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Resize:
    """Width adaptation (VHDL ``resize``/``to_unsigned``; implicit in
    Verilog contexts)."""

    value: "Expr"
    width: "Expr"


@dataclass(frozen=True)
class Others:
    """VHDL ``(others => bit)`` aggregate; width comes from context."""

    value: "Expr"


Expr = Union[
    Number, Ident, Select, PartSelect, Concat, Repeat, Unary, Binary,
    Ternary, Resize, Others,
]

# ---------------------------------------------------------------------------
# Procedural statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """Procedural assignment; ``blocking`` distinguishes ``=`` from ``<=``
    (VHDL signal assignments map to non-blocking)."""

    target: Expr
    value: Expr
    blocking: bool = False
    line: int = 0


@dataclass(frozen=True)
class If:
    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...] = ()
    line: int = 0


@dataclass(frozen=True)
class CaseItem:
    """One arm of a case statement; ``choices`` empty means default."""

    choices: tuple[Expr, ...]
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Case:
    subject: Expr
    items: tuple[CaseItem, ...]
    line: int = 0


@dataclass(frozen=True)
class For:
    """Bounded procedural loop; fully unrolled during elaboration.

    ``var`` iterates from ``start`` while ``cond`` holds, updated by
    ``step`` (an expression over ``var``).
    """

    var: str
    start: Expr
    cond: Expr
    step: Expr
    body: tuple["Stmt", ...]
    line: int = 0


Stmt = Union[Assign, If, Case, For]

# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamDecl:
    """Module parameter (VHDL generic) with a default value."""

    name: str
    default: Expr
    local: bool = False  # localparam / VHDL constant


@dataclass(frozen=True)
class PortDecl:
    """Module port.  ``msb``/``lsb`` are None for scalars."""

    name: str
    direction: str  # "input" | "output" | "inout"
    msb: Expr | None = None
    lsb: Expr | None = None

    @property
    def is_vector(self) -> bool:
        return self.msb is not None


@dataclass(frozen=True)
class SignalDecl:
    """Internal signal (wire/reg/VHDL signal).

    ``depth`` non-None makes this a memory array of ``depth`` words.
    """

    name: str
    msb: Expr | None = None
    lsb: Expr | None = None
    depth: Expr | None = None

    @property
    def is_memory(self) -> bool:
        return self.depth is not None


@dataclass(frozen=True)
class ContinuousAssign:
    target: Expr
    value: Expr
    line: int = 0


@dataclass(frozen=True)
class ProcessBlock:
    """A clocked (``kind="seq"``) or combinational (``kind="comb"``)
    process/always block."""

    kind: str  # "seq" | "comb"
    body: tuple[Stmt, ...]
    clock: str | None = None
    line: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("seq", "comb"):
            raise ValueError(f"process kind must be seq or comb, got {self.kind!r}")
        if self.kind == "seq" and not self.clock:
            raise ValueError("sequential process needs a clock")


@dataclass(frozen=True)
class Instance:
    """Hierarchical instantiation with named connections."""

    module_name: str
    name: str
    connections: tuple[tuple[str, Expr], ...] = ()
    param_overrides: tuple[tuple[str, Expr], ...] = ()
    line: int = 0


@dataclass(frozen=True)
class GenerateFor:
    """Generate loop; the body is replicated with ``var`` bound."""

    var: str
    start: Expr
    cond: Expr
    step: Expr
    body: tuple["Item", ...]
    label: str = ""
    line: int = 0


@dataclass(frozen=True)
class GenerateIf:
    cond: Expr
    then_body: tuple["Item", ...]
    else_body: tuple["Item", ...] = ()
    line: int = 0


Item = Union[
    ParamDecl, SignalDecl, ContinuousAssign, ProcessBlock, Instance,
    GenerateFor, GenerateIf,
]

# ---------------------------------------------------------------------------
# Modules and designs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Module:
    """One HDL module / VHDL entity+architecture pair."""

    name: str
    ports: tuple[PortDecl, ...]
    items: tuple[Item, ...]
    language: str = "verilog"  # "verilog95" | "verilog2001" | "vhdl"
    source_name: str = ""

    @property
    def params(self) -> tuple[ParamDecl, ...]:
        """Non-local parameters, in declaration order."""
        return tuple(
            i for i in self.items if isinstance(i, ParamDecl) and not i.local
        )

    @property
    def port_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.ports)

    def port(self, name: str) -> PortDecl:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"module {self.name!r} has no port {name!r}")


@dataclass
class Design:
    """A set of modules, e.g. everything parsed from one or more files.

    A design also carries an analysis memo (:meth:`memo`): results that are
    pure functions of the module set, such as elaborated subtrees and
    degeneracy answers, computed once and shared by every later call on
    the same design.  The memo is dropped by :meth:`add`, is not part of
    equality, and is never pickled, so worker payloads carry the modules
    only.
    """

    modules: dict[str, Module] = field(default_factory=dict)
    _memo: dict[str, dict] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add(self, module: Module) -> None:
        if module.name in self.modules:
            raise ValueError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        self._memo.clear()

    def memo(self, namespace: str) -> dict:
        """The analysis memo table ``namespace`` (created empty on first use).

        Entries must be pure functions of :attr:`modules`; values are
        shared between callers and treated as read-only.
        """
        return self._memo.setdefault(namespace, {})

    def __getstate__(self) -> dict:
        return {"modules": self.modules}

    def __setstate__(self, state: dict) -> None:
        self.modules = state["modules"]
        self._memo = {}

    def merge(self, other: "Design") -> "Design":
        merged = Design(dict(self.modules))
        for module in other.modules.values():
            merged.add(module)
        return merged

    def module(self, name: str) -> Module:
        try:
            return self.modules[name]
        except KeyError:
            raise KeyError(
                f"no module {name!r}; available: {sorted(self.modules)}"
            ) from None
