"""Signal-level dataflow-graph construction over elaborated modules.

The graph is the shared substrate of the deep lint rules (W003/W005/W006/
W007) and the dataflow metric families (:mod:`repro.flow.metrics`):

* **nodes** are the module's signals -- ports, wires, registers, memories
  -- plus one pseudo-node per child instance (children are blackboxes at
  this level, exactly as in synthesis);
* **edges** are value dependencies: ``kind="comb"`` for continuous
  assignments, combinational processes, and instance connections;
  ``kind="seq"`` (annotated with the writing clock) for clocked
  processes.  Every edge carries the source line of the assignment that
  created it, so findings can cite real spans.

Domain annotation: a register's clock domains are the clocks of the
sequential processes that write it.  Synchronous resets are inferred
heuristically -- a sequential process whose body is a single ``if`` on a
1-bit non-clock signal is treated as reset-guarded, and the guard signal
is recorded so CDC analysis can exempt reset fan-out.

Semantics match the RTL interpreter's evaluation order: inside one
combinational process, a read of a signal assigned *earlier in the same
process* is sequential dataflow (the freshly computed value), not
feedback, so no edge is added for it -- the property suite
(``tests/flow/test_dfg_semantics.py``) pins the agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.elab.consteval import ConstEvalError, eval_const
from repro.elab.elaborator import ElaboratedModule
from repro.hdl import ast
from repro.hdl.walk import (
    expr_reads,
    target_base,
    target_bases,
    target_index_reads,
    walk_assigns,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.versions import FLOW_VERSION  # noqa: F401 -- re-exported

#: Prefix distinguishing instance pseudo-nodes from signal nodes.
INSTANCE_PREFIX = "inst:"


@dataclass(frozen=True)
class DriveSite:
    """One syntactic driver of a signal.

    ``kind`` is ``"assign"`` (continuous assignment), ``"process"`` (one
    always/process block, however many statements inside), or
    ``"instance"`` (a child output connection).  ``ranges`` lists the
    written bit ranges as ``(msb, lsb)`` pairs; ``None`` means the whole
    signal (or an unresolvable index, treated conservatively as whole).
    """

    kind: str
    line: int
    ranges: tuple[tuple[int, int] | None, ...] = (None,)

    def overlaps(self, other: "DriveSite") -> bool:
        for a in self.ranges:
            for b in other.ranges:
                if a is None or b is None:
                    return True
                if a[1] <= b[0] and b[1] <= a[0]:  # (msb, lsb) pairs
                    return True
        return False


@dataclass(frozen=True)
class DfgNode:
    """One signal (or instance pseudo-node) of the dataflow graph."""

    name: str
    kind: str  # input | output | inout | wire | reg | memory | instance
    width: int = 1
    clocks: tuple[str, ...] = ()  # clock domains writing this signal
    resets: tuple[str, ...] = ()  # inferred synchronous resets guarding it

    @property
    def is_register(self) -> bool:
        """Written by at least one clocked process."""
        return bool(self.clocks)

    @property
    def is_port(self) -> bool:
        return self.kind in ("input", "output", "inout")


@dataclass(frozen=True)
class DfgEdge:
    """One value dependency ``src -> dst``.

    ``direct`` marks a bare unconditional identifier copy (``q <= d``)
    with no logic in between -- the shape synchronizer chains are made
    of.  ``addr`` marks a dependency contributed only by a *target
    index* (a write-address computation), which participates in
    reachability but not in combinational-loop analysis.
    """

    src: str
    dst: str
    kind: str  # "comb" | "seq"
    clock: str | None = None
    line: int = 0
    direct: bool = False
    addr: bool = False


@dataclass
class DataflowGraph:
    """The finished graph plus derived indexes."""

    module: str
    nodes: dict[str, DfgNode]
    edges: tuple[DfgEdge, ...]
    drive_sites: dict[str, tuple[DriveSite, ...]]
    reset_signals: frozenset[str] = frozenset()
    clock_signals: frozenset[str] = frozenset()
    _succ: dict[str, tuple[DfgEdge, ...]] = field(default_factory=dict)
    _pred: dict[str, tuple[DfgEdge, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        succ: dict[str, list[DfgEdge]] = {}
        pred: dict[str, list[DfgEdge]] = {}
        for edge in self.edges:
            succ.setdefault(edge.src, []).append(edge)
            pred.setdefault(edge.dst, []).append(edge)
        self._succ = {k: tuple(v) for k, v in succ.items()}
        self._pred = {k: tuple(v) for k, v in pred.items()}

    # -- traversal -----------------------------------------------------------

    def succ(self, name: str) -> tuple[DfgEdge, ...]:
        return self._succ.get(name, ())

    def pred(self, name: str) -> tuple[DfgEdge, ...]:
        return self._pred.get(name, ())

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def registers(self) -> list[DfgNode]:
        return [n for n in self.nodes.values() if n.is_register]

    def comb_graph(self) -> dict[str, dict[str, int]]:
        """The combinational dependency digraph (W003's substrate).

        Matches the historical ``check_comb_loops`` graph exactly: only
        ``comb`` value edges between non-memory signal nodes; address
        (target-index) dependencies and instance pseudo-nodes excluded.
        Returned as an insertion-ordered ``src -> {dst: line}`` mapping
        in which every endpoint is a key (a pure sink maps to ``{}``);
        node and successor order is first appearance in ``edges``, and a
        repeated ``(src, dst)`` pair keeps its first line.
        """
        graph: dict[str, dict[str, int]] = {}
        for edge in self.edges:
            if edge.kind != "comb" or edge.addr:
                continue
            src = self.nodes.get(edge.src)
            dst = self.nodes.get(edge.dst)
            if src is None or dst is None:
                continue
            if src.kind in ("memory", "instance") or dst.kind in (
                "memory", "instance"
            ):
                continue
            succ = graph.setdefault(edge.src, {})
            graph.setdefault(edge.dst, {})
            succ.setdefault(edge.dst, edge.line)
        return graph

    def sink_names(self) -> set[str]:
        """Nodes that make logic observable: ports out, instances,
        memories, and clock nets (a divided clock drives registers)."""
        sinks = {
            n.name
            for n in self.nodes.values()
            if n.kind in ("output", "inout", "instance", "memory")
        }
        sinks |= set(self.clock_signals)
        return sinks

    def alive(self) -> set[str]:
        """Every node with a forward path to a sink (sinks included)."""
        frontier = list(self.sink_names())
        seen = set(frontier)
        while frontier:
            name = frontier.pop()
            for edge in self.pred(name):
                if edge.src not in seen:
                    seen.add(edge.src)
                    frontier.append(edge.src)
        return seen

    def comb_origins(self, start: str) -> dict[str, tuple[str, ...]]:
        """Terminal origins of ``start``'s combinational ancestry.

        Walks ``comb`` edges backward from ``start``; expansion stops at
        dataflow terminals (registers, ports, memories).  Returns
        ``origin -> witness path (origin, ..., start)``.  ``start``
        itself, when terminal, is its own (single-node) origin.
        """
        node = self.nodes.get(start)
        if node is None:
            return {}
        if node.is_register or node.is_port or node.kind in (
            "memory", "instance"
        ):
            return {start: (start,)}
        parents: dict[str, str] = {}
        origins: dict[str, tuple[str, ...]] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            name = frontier.pop(0)
            for edge in self.pred(name):
                if edge.kind != "comb" or edge.src in seen:
                    continue
                seen.add(edge.src)
                parents[edge.src] = name
                src = self.nodes.get(edge.src)
                if src is None:
                    continue
                if src.is_register or src.is_port or src.kind in (
                    "memory", "instance"
                ):
                    path = [edge.src]
                    cursor = edge.src
                    while cursor != start:
                        cursor = parents[cursor]
                        path.append(cursor)
                    origins[edge.src] = tuple(path)
                else:
                    frontier.append(edge.src)
        return origins


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _try_const(expr: ast.Expr, env: Mapping[str, int]) -> int | None:
    try:
        return eval_const(expr, dict(env))
    except ConstEvalError:
        return None


def _written_range(
    target: ast.Expr, env: Mapping[str, int]
) -> tuple[int, int] | None:
    """The (msb, lsb) range one target writes, None for whole/unknown."""
    if isinstance(target, ast.Select):
        idx = _try_const(target.index, env)
        if idx is not None:
            return (idx, idx)
        return None
    if isinstance(target, ast.PartSelect):
        msb = _try_const(target.msb, env)
        lsb = _try_const(target.lsb, env)
        if msb is not None and lsb is not None:
            return (msb, lsb)
        return None
    return None


def _infer_reset(
    proc: ast.ProcessBlock, spec: ElaboratedModule
) -> str | None:
    """Heuristic synchronous-reset detection for one clocked process.

    A body that is a single ``if`` whose condition reads exactly one
    1-bit non-memory signal other than the clock is treated as
    reset-guarded (``if (rst) q <= 0; else q <= d;`` and the active-low
    variant).
    """
    if len(proc.body) != 1 or not isinstance(proc.body[0], ast.If):
        return None
    reads = set(expr_reads(proc.body[0].cond))
    if len(reads) != 1:
        return None
    (name,) = reads
    sig = spec.signals.get(name)
    if sig is None or sig.width != 1 or sig.is_memory or name == proc.clock:
        return None
    return name


class _Builder:
    """Accumulates nodes/edges/sites while walking one elaborated module."""

    def __init__(self, spec: ElaboratedModule, design: ast.Design | None):
        self.spec = spec
        self.design = design
        self.edges: list[DfgEdge] = []
        self.sites: dict[str, list[DriveSite]] = {}
        self.clocks: dict[str, set[str]] = {}
        self.resets: dict[str, set[str]] = {}
        self.reset_signals: set[str] = set()
        self.clock_signals: set[str] = set()
        self._edge_seen: set[tuple] = set()

    def signal(self, name: str) -> bool:
        return name in self.spec.signals

    def edge(self, src: str, dst: str, kind: str, *, clock: str | None = None,
             line: int = 0, direct: bool = False, addr: bool = False) -> None:
        key = (src, dst, kind, clock, line, direct, addr)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        self.edges.append(
            DfgEdge(src=src, dst=dst, kind=kind, clock=clock, line=line,
                    direct=direct, addr=addr)
        )

    def site(self, name: str, kind: str, line: int,
             ranges: Iterable[tuple[int, int] | None]) -> None:
        self.sites.setdefault(name, []).append(
            DriveSite(kind=kind, line=line, ranges=tuple(ranges))
        )

    # -- structural walks ----------------------------------------------------

    def continuous_assigns(self) -> None:
        env = self.spec.env
        for assign in self.spec.assigns:
            bases = [b for b in target_bases(assign.target) if self.signal(b)]
            if not bases:
                continue
            deps = {d for d in expr_reads(assign.value) if self.signal(d)}
            addr_deps = {
                d for d in target_index_reads(assign.target)
                if self.signal(d)
            } - deps
            direct = (
                isinstance(assign.value, ast.Ident)
                and isinstance(assign.target, ast.Ident)
            )
            for base in bases:
                for dep in sorted(deps):
                    self.edge(dep, base, "comb", line=assign.line,
                              direct=direct)
                for dep in sorted(addr_deps):
                    self.edge(dep, base, "comb", line=assign.line, addr=True)
                self.site(
                    base, "assign", assign.line,
                    (_written_range(assign.target, env),)
                    if not isinstance(assign.target, ast.Concat)
                    else (None,),
                )

    def processes(self) -> None:
        env = self.spec.env
        for proc in self.spec.processes:
            seq = proc.kind == "seq"
            clock = proc.clock if seq else None
            if seq and clock:
                self.clock_signals.add(clock)
            reset = _infer_reset(proc, self.spec) if seq else None
            if reset is not None:
                self.reset_signals.add(reset)
            written: dict[str, list[tuple[int, int] | None]] = {}
            assigned_before: set[str] = set()
            for stmt, conds in walk_assigns(proc.body):
                bases = [
                    b for b in target_bases(stmt.target) if self.signal(b)
                ]
                if not bases:
                    continue
                value_deps = {
                    d for d in expr_reads(stmt.value) if self.signal(d)
                }
                cond_deps = {d for d in conds if self.signal(d)}
                deps = value_deps | cond_deps
                addr_deps = {
                    d for d in target_index_reads(stmt.target)
                    if self.signal(d)
                } - deps
                if not seq:
                    # Same-process re-reads are sequential dataflow, not
                    # feedback (mirrors the interpreter's shadow frame).
                    deps -= assigned_before
                    addr_deps -= assigned_before
                direct = (
                    isinstance(stmt.value, ast.Ident)
                    and isinstance(stmt.target, ast.Ident)
                    and not conds
                )
                for base in bases:
                    for dep in sorted(deps):
                        self.edge(dep, base, "seq" if seq else "comb",
                                  clock=clock, line=stmt.line, direct=direct)
                    for dep in sorted(addr_deps):
                        self.edge(dep, base, "seq" if seq else "comb",
                                  clock=clock, line=stmt.line, addr=True)
                    written.setdefault(base, []).append(
                        _written_range(stmt.target, env)
                        if not isinstance(stmt.target, ast.Concat)
                        else None
                    )
                    if seq:
                        if clock:
                            self.clocks.setdefault(base, set()).add(clock)
                        if reset is not None:
                            self.resets.setdefault(base, set()).add(reset)
                    assigned_before.add(base)
            for base, ranges in written.items():
                self.site(base, "process", proc.line, ranges)

    def instances(self) -> None:
        env = self.spec.env
        for inst in self.spec.instances:
            node_name = f"{INSTANCE_PREFIX}{inst.name}"
            child = None
            if self.design is not None:
                try:
                    child = self.design.module(inst.module_name)
                except KeyError:
                    child = None
            for port_name, expr in inst.connections:
                direction = "input"
                if child is not None:
                    try:
                        direction = child.port(port_name).direction
                    except KeyError:
                        pass
                names = sorted(
                    {d for d in expr_reads(expr) if self.signal(d)}
                )
                if direction == "input":
                    for dep in names:
                        self.edge(dep, node_name, "comb", line=inst.line)
                else:  # output/inout: the child drives the connected nets
                    # The connection is a write target here: the driven
                    # nets are its bases, and its index reads are address
                    # dependencies -- not nets the child drives.  A sliced
                    # connection (`.o(bus[15:8])`) drives only that range,
                    # so unrolled per-slot instances each driving a
                    # disjoint slice of one bus are not multiply-driven.
                    bases = [
                        b for b in target_bases(expr) if self.signal(b)
                    ]
                    idx_reads = sorted(
                        {d for d in target_index_reads(expr)
                         if self.signal(d)}
                    )
                    written = (
                        _written_range(expr, env)
                        if isinstance(expr, (ast.Select, ast.PartSelect))
                        else None
                    )
                    for base in bases:
                        self.edge(node_name, base, "comb", line=inst.line)
                        for dep in idx_reads:
                            self.edge(dep, base, "comb", line=inst.line,
                                      addr=True)
                        self.site(base, "instance", inst.line, (written,))

    def finish(self) -> DataflowGraph:
        nodes: dict[str, DfgNode] = {}
        for sig in self.spec.signals.values():
            clocks = tuple(sorted(self.clocks.get(sig.name, ())))
            resets = tuple(sorted(self.resets.get(sig.name, ())))
            if sig.direction is not None:
                kind = sig.direction
            elif sig.is_memory:
                kind = "memory"
            elif clocks:
                kind = "reg"
            else:
                kind = "wire"
            nodes[sig.name] = DfgNode(
                name=sig.name, kind=kind, width=sig.width,
                clocks=clocks, resets=resets,
            )
        for inst in self.spec.instances:
            name = f"{INSTANCE_PREFIX}{inst.name}"
            nodes[name] = DfgNode(name=name, kind="instance", width=0)
        return DataflowGraph(
            module=self.spec.name,
            nodes=nodes,
            edges=tuple(self.edges),
            drive_sites={
                k: tuple(v) for k, v in sorted(self.sites.items())
            },
            reset_signals=frozenset(self.reset_signals),
            clock_signals=frozenset(self.clock_signals),
        )


def build_dfg(
    spec: ElaboratedModule, design: ast.Design | None = None
) -> DataflowGraph:
    """Build the signal-level dataflow graph of one elaborated module.

    ``design`` (when available) resolves child-instance port directions;
    without it every connection is conservatively treated as a child
    input (an extra sink, never an extra driver).
    """
    with obs_trace.span("flow.dfg", module=spec.name):
        obs_metrics.counter("flow.dfg_builds").inc()
        builder = _Builder(spec, design)
        builder.continuous_assigns()
        builder.processes()
        builder.instances()
        graph = builder.finish()
        obs_metrics.counter("flow.dfg_edges").inc(graph.n_edges)
        return graph
