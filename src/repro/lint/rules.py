"""The lint rule catalog: Section 2.2 accounting audits plus HDL hygiene.

Two rule families (see DESIGN.md, "HDL accounting linter"):

* **ACC rules** audit compliance with the paper's accounting procedure --
  the conditions under which the effort regression holds.  Violations
  inflate ``Stmts``/``LoC``/``FanInLC`` without adding design effort, which
  is exactly the failure mode Section 5.3 shows wrecks the fit.

  - ``ACC001`` duplicate component: two modules in the catalog are
    structurally isomorphic (equal :func:`~repro.lint.hashing.
    structural_hash`); the reused design's effort would be counted twice.
  - ``ACC002`` non-minimal parameters: a parameterized module's declared
    defaults (the values a naive measurement uses) are not the smallest
    non-degenerate values; the finding carries the
    :class:`~repro.elab.degeneracy.BlockedMinimization` provenance.
  - ``ACC003`` dead code: a conditional or loop whose condition is constant
    *independently of parameters* eliminates a non-empty branch/body --
    statements that still count toward ``Stmts``/``LoC`` although constant
    propagation strips the logic.  (Parameter-dependent generate arms are
    not flagged: they are alive at some parameterization, and the
    parameter-minimization rule handles them.)

* **W rules** are classical RTL hygiene checks over the elaborated module:
  ``W001`` unused/undriven signals and ports, ``W002`` inferred latches
  (incomplete assignment in a combinational process), ``W003``
  combinational loops (the actual ordered cycle with per-hop spans),
  ``W004`` assignment width mismatches -- plus the *deep* rules that run
  over the signal-level dataflow graph (:mod:`repro.flow`): ``W005``
  unsynchronized clock-domain crossings, ``W006`` multiply-driven nets,
  ``W007`` dead logic cones (driven, read, yet unreachable from any
  output).

Module-scoped rules take a :class:`ModuleContext` and are listed in
:data:`CHECKS`; the catalog-scoped ``ACC001`` runs over the hashes of
every module in the linted catalog.  All rules return
:class:`LintFinding`s, which render into the runtime's
:class:`~repro.runtime.diagnostics.Diagnostic` vocabulary.  The registry,
the findings and ``ACC001`` live in :mod:`repro.lint.catalog`, which a
lint memo hit reads without loading this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.elab.consteval import ConstEvalError, eval_const
from repro.elab.degeneracy import minimal_parameters
from repro.elab.elaborator import ElaboratedModule
from repro.flow.dfg import DataflowGraph, build_dfg
from repro.hdl import ast
from repro.hdl.walk import (
    expr_reads,
    target_base,
    target_index_reads,
    walk_assigns,
)
from repro.lint.catalog import RULES, LintFinding
from repro.versions import LINT_VERSION  # noqa: F401 -- re-exported

# ---------------------------------------------------------------------------
# The module context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleContext:
    """Everything a module-scoped rule may inspect.

    ``spec`` is the module elaborated at its declared defaults; it is None
    when elaboration failed (rules that need it skip themselves).  ``dfg``
    is the signal-level dataflow graph; the engine pre-builds it once per
    module, and rules invoked with a bare context (unit tests) build it
    lazily via :func:`_ctx_dfg`.
    """

    design: ast.Design
    module: ast.Module
    spec: ElaboratedModule | None = None
    dfg: DataflowGraph | None = None

    @property
    def file(self) -> str:
        return self.module.source_name


def _ctx_dfg(ctx: ModuleContext) -> DataflowGraph | None:
    """The context's dataflow graph, built on demand and memoized."""
    if ctx.dfg is not None:
        return ctx.dfg
    if ctx.spec is None:
        return None
    dfg = build_dfg(ctx.spec, ctx.design)
    object.__setattr__(ctx, "dfg", dfg)
    return dfg


# ---------------------------------------------------------------------------
# ACC002 -- non-minimal parameters (module scope)
# ---------------------------------------------------------------------------


def check_nonminimal_parameters(ctx: ModuleContext) -> list[LintFinding]:
    module = ctx.module
    params = module.params
    if not params:
        return []
    try:
        minimal = minimal_parameters(ctx.design, module.name)
        defaults: dict[str, int] = {}
        env: dict[str, int] = {}
        for p in params:
            defaults[p.name] = eval_const(p.default, env)
            env[p.name] = defaults[p.name]
    except Exception:  # noqa: BLE001 -- unevaluable module: other rules report
        return []
    findings: list[LintFinding] = []
    for p in params:
        if defaults[p.name] == minimal[p.name]:
            continue
        blocker = minimal.blocker_for(p.name)
        why = f" ({blocker})" if blocker is not None else ""
        findings.append(
            LintFinding(
                rule="ACC002",
                message=(
                    f"parameter {p.name}={defaults[p.name]} is not the "
                    f"smallest non-degenerate value; measure at "
                    f"{p.name}={minimal[p.name]}{why}"
                ),
                severity=RULES["ACC002"].severity,
                module=module.name,
                file=ctx.file,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# ACC003 -- dead code under parameter-independent constants (module scope)
# ---------------------------------------------------------------------------


def _const_env(module: ast.Module) -> dict[str, int]:
    """Local constants whose values do not depend on public parameters."""
    env: dict[str, int] = {}
    for item in module.items:
        if isinstance(item, ast.ParamDecl) and item.local:
            try:
                env[item.name] = eval_const(item.default, env)
            except ConstEvalError:
                continue
    return env


def _try_const(expr: ast.Expr, env: dict[str, int]) -> int | None:
    try:
        return eval_const(expr, env)
    except ConstEvalError:
        return None


def _const_trips(
    loop: ast.GenerateFor | ast.For, env: dict[str, int]
) -> int | None:
    """Trip count when start/cond/step fold without parameters, else None."""
    value = _try_const(loop.start, env)
    if value is None:
        return None
    trips = 0
    while trips <= 100000:
        loop_env = dict(env)
        loop_env[loop.var] = value
        cond = _try_const(loop.cond, loop_env)
        if cond is None:
            return None
        if not cond:
            return trips
        trips += 1
        value = _try_const(loop.step, loop_env)
        if value is None:
            return None
    return None


def check_dead_code(ctx: ModuleContext) -> list[LintFinding]:
    module = ctx.module
    env = _const_env(module)
    findings: list[LintFinding] = []

    def flag(kind: str, line: int) -> None:
        findings.append(
            LintFinding(
                rule="ACC003",
                message=(
                    f"{kind} is eliminated by constant propagation at every "
                    "parameterization but still counts toward Stmts/LoC"
                ),
                severity=RULES["ACC003"].severity,
                module=module.name,
                file=ctx.file,
                line=line,
            )
        )

    def walk_items(items: Sequence[ast.Item]) -> None:
        for item in items:
            if isinstance(item, ast.GenerateIf):
                cond = _try_const(item.cond, env)
                if cond is not None:
                    dropped = item.then_body if cond == 0 else item.else_body
                    if dropped:
                        flag("dead generate branch (constant condition)",
                             item.line)
                walk_items(item.then_body)
                walk_items(item.else_body)
            elif isinstance(item, ast.GenerateFor):
                if item.body and _const_trips(item, env) == 0:
                    flag("zero-trip generate loop", item.line)
                walk_items(item.body)
            elif isinstance(item, ast.ProcessBlock):
                walk_stmts(item.body)

    def walk_stmts(stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                cond = _try_const(stmt.cond, env)
                if cond is not None:
                    dropped = stmt.then_body if cond == 0 else stmt.else_body
                    if dropped:
                        flag("dead conditional branch (constant condition)",
                             stmt.line)
                walk_stmts(stmt.then_body)
                walk_stmts(stmt.else_body)
            elif isinstance(stmt, ast.Case):
                subject = _try_const(stmt.subject, env)
                if subject is not None and any(i.choices for i in stmt.items):
                    flag("constant case subject (dead arms)", stmt.line)
                for item in stmt.items:
                    walk_stmts(item.body)
            elif isinstance(stmt, ast.For):
                if stmt.body and _const_trips(stmt, env) == 0:
                    flag("zero-trip procedural loop", stmt.line)
                walk_stmts(stmt.body)

    walk_items(module.items)
    return findings


# ---------------------------------------------------------------------------
# W001 -- unused / undriven signals and ports (module scope)
# ---------------------------------------------------------------------------


def _usage(ctx: ModuleContext) -> tuple[set[str], set[str]]:
    """(reads, writes) by signal name over the elaborated module."""
    spec = ctx.spec
    assert spec is not None
    reads: set[str] = set()
    writes: set[str] = set()

    def read_expr(expr: ast.Expr) -> None:
        reads.update(expr_reads(expr))

    def write_target(target: ast.Expr) -> None:
        base = target_base(target)
        if base is not None:
            writes.add(base)
        else:  # concatenation targets write every named part
            for name in expr_reads(target):
                writes.add(name)
        reads.update(target_index_reads(target))

    for assign in spec.assigns:
        write_target(assign.target)
        read_expr(assign.value)
    for process in spec.processes:
        if process.clock:
            reads.add(process.clock)
        for stmt, conds in walk_assigns(process.body):
            reads.update(conds)
            write_target(stmt.target)
            read_expr(stmt.value)
    for inst in spec.instances:
        try:
            child = ctx.design.module(inst.module_name)
        except KeyError:
            child = None
        for port_name, expr in inst.connections:
            direction = "input"
            if child is not None:
                try:
                    direction = child.port(port_name).direction
                except KeyError:
                    pass
            if direction == "input":
                read_expr(expr)
            else:  # output/inout: the child drives the connected nets
                for name in expr_reads(expr):
                    writes.add(name)
    return reads, writes


def check_unused(ctx: ModuleContext) -> list[LintFinding]:
    if ctx.spec is None:
        return []
    reads, writes = _usage(ctx)
    sev = RULES["W001"].severity
    findings: list[LintFinding] = []
    for sig in ctx.spec.signals.values():
        if sig.direction == "input":
            if sig.name not in reads:
                findings.append(LintFinding(
                    "W001", f"input port '{sig.name}' is never read",
                    sev, ctx.module.name, ctx.file))
        elif sig.direction is not None:
            if sig.name not in writes:
                findings.append(LintFinding(
                    "W001", f"output port '{sig.name}' is never driven",
                    sev, ctx.module.name, ctx.file))
        elif sig.name not in reads:
            what = ("driven but never read" if sig.name in writes
                    else "never used")
            findings.append(LintFinding(
                "W001", f"signal '{sig.name}' is {what}",
                sev, ctx.module.name, ctx.file))
    return findings


# ---------------------------------------------------------------------------
# W002 -- inferred latches (module scope)
# ---------------------------------------------------------------------------


def _assigned_paths(
    stmts: Sequence[ast.Stmt],
) -> tuple[set[str], set[str]]:
    """(assigned on every path, assigned on some path) for a stmt list."""
    must: set[str] = set()
    may: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            base = target_base(stmt.target)
            if base is not None:
                must.add(base)
                may.add(base)
        elif isinstance(stmt, ast.If):
            then_must, then_may = _assigned_paths(stmt.then_body)
            else_must, else_may = _assigned_paths(stmt.else_body)
            must |= then_must & else_must
            may |= then_may | else_may
        elif isinstance(stmt, ast.Case):
            arm_musts = [_assigned_paths(i.body) for i in stmt.items]
            has_default = any(not i.choices for i in stmt.items)
            if arm_musts and has_default:
                inter = set(arm_musts[0][0])
                for m, _ in arm_musts[1:]:
                    inter &= m
                must |= inter
            for _, m in arm_musts:
                may |= m
        elif isinstance(stmt, ast.For):
            # A loop may execute zero times: contributions are may-only.
            _, body_may = _assigned_paths(stmt.body)
            may |= body_may
    return must, may


def check_latches(ctx: ModuleContext) -> list[LintFinding]:
    if ctx.spec is None:
        return []
    findings: list[LintFinding] = []
    for process in ctx.spec.processes:
        if process.kind != "comb":
            continue
        must, may = _assigned_paths(process.body)
        for name in sorted(may - must):
            findings.append(
                LintFinding(
                    rule="W002",
                    message=(
                        f"'{name}' is not assigned on every path of a "
                        "combinational process; a latch is inferred"
                    ),
                    severity=RULES["W002"].severity,
                    module=ctx.module.name,
                    file=ctx.file,
                    line=process.line,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# W003 -- combinational loops (module scope)
# ---------------------------------------------------------------------------


def _strongly_connected(
    graph: Mapping[str, Mapping[str, int]],
) -> Iterator[list[str]]:
    """Tarjan's strongly connected components, iteratively.

    Roots are tried in ``graph`` order and successors in mapping order,
    so components come out in the same (reverse topological) order on
    every run.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    yield component


def _first_cycle(
    graph: Mapping[str, Mapping[str, int]], members: set[str], source: str
) -> list[str]:
    """The first cycle a depth-first search from ``source`` closes.

    Successors are followed in mapping order, restricted to ``members``;
    the search stops at the first back edge ``v -> w`` and returns the
    path ``[w, ..., v]``.  Finished nodes are never re-entered.
    """
    path = [source]
    position = {source: 0}
    finished: set[str] = set()
    work = [iter(graph[source])]
    while work:
        for succ in work[-1]:
            if succ not in members or succ in finished:
                continue
            if succ in position:
                return path[position[succ]:]
            position[succ] = len(path)
            path.append(succ)
            work.append(iter(graph[succ]))
            break
        else:
            work.pop()
            done = path.pop()
            del position[done]
            finished.add(done)
    return []


def check_comb_loops(ctx: ModuleContext) -> list[LintFinding]:
    dfg = _ctx_dfg(ctx)
    if dfg is None:
        return []
    graph = dfg.comb_graph()

    findings: list[LintFinding] = []
    seen: set[tuple[str, ...]] = set()
    for component in _strongly_connected(graph):
        nodes = sorted(component)
        if len(nodes) == 1 and nodes[0] not in graph[nodes[0]]:
            continue
        # One representative cycle per SCC, canonicalized to start at the
        # lexicographically smallest member so rotations dedupe.
        order = _first_cycle(graph, set(component), nodes[0])
        pivot = order.index(min(order))
        order = order[pivot:] + order[:pivot]
        canon = tuple(order)
        if canon in seen:
            continue
        seen.add(canon)
        chain = " -> ".join(order + [order[0]])
        hops = []
        lines = []
        for a, b in zip(order, order[1:] + [order[0]]):
            line = graph[a][b]
            lines.append(line)
            hops.append(f"{a}->{b} line {line}")
        findings.append(
            LintFinding(
                rule="W003",
                message=f"combinational loop: {chain} ({', '.join(hops)})",
                severity=RULES["W003"].severity,
                module=ctx.module.name,
                file=ctx.file,
                line=min((ln for ln in lines if ln), default=0),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# W004 -- width mismatches (module scope)
# ---------------------------------------------------------------------------


def _expr_width(expr: ast.Expr, spec: ElaboratedModule) -> int | None:
    """Static bit width of an expression, or None when undeterminable."""
    if isinstance(expr, ast.Number):
        return expr.width
    if isinstance(expr, ast.Ident):
        sig = spec.signals.get(expr.name)
        return sig.width if sig is not None else None
    if isinstance(expr, ast.Select):
        if isinstance(expr.base, ast.Ident):
            sig = spec.signals.get(expr.base.name)
            if sig is not None and sig.is_memory:
                return sig.width  # memory word read
        return 1
    if isinstance(expr, ast.PartSelect):
        msb = _try_const(expr.msb, spec.env)
        lsb = _try_const(expr.lsb, spec.env)
        if msb is None or lsb is None:
            return None
        return msb - lsb + 1
    if isinstance(expr, ast.Concat):
        total = 0
        for part in expr.parts:
            w = _expr_width(part, spec)
            if w is None:
                return None
            total += w
        return total
    if isinstance(expr, ast.Repeat):
        count = _try_const(expr.count, spec.env)
        w = _expr_width(expr.value, spec)
        if count is None or w is None:
            return None
        return count * w
    if isinstance(expr, ast.Unary):
        if expr.op in ("&", "|", "^", "!", "~&", "~|", "~^"):
            return 1  # reduction / logical negation
        return _expr_width(expr.operand, spec)
    if isinstance(expr, ast.Binary):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>"):
            return _expr_width(expr.lhs, spec)
        lhs = _expr_width(expr.lhs, spec)
        rhs = _expr_width(expr.rhs, spec)
        if lhs is None or rhs is None:
            return None
        return max(lhs, rhs)
    if isinstance(expr, ast.Ternary):
        then = _expr_width(expr.then, spec)
        other = _expr_width(expr.other, spec)
        if then is None or other is None:
            return None
        return max(then, other)
    if isinstance(expr, ast.Resize):
        return _try_const(expr.width, spec.env)
    return None  # Others: width comes from context


def _target_width(expr: ast.Expr, spec: ElaboratedModule) -> int | None:
    if isinstance(expr, ast.Ident):
        sig = spec.signals.get(expr.name)
        if sig is None:
            return None
        return sig.width
    return _expr_width(expr, spec)


def check_width_mismatch(ctx: ModuleContext) -> list[LintFinding]:
    spec = ctx.spec
    if spec is None:
        return []
    findings: list[LintFinding] = []

    def check(target: ast.Expr, value: ast.Expr, line: int) -> None:
        tw = _target_width(target, spec)
        vw = _expr_width(value, spec)
        if tw is None or vw is None or tw == vw:
            return
        base = target_base(target) or "<target>"
        findings.append(
            LintFinding(
                rule="W004",
                message=(
                    f"assignment to '{base}' mixes widths: target is "
                    f"{tw} bit(s), expression is {vw} bit(s)"
                ),
                severity=RULES["W004"].severity,
                module=ctx.module.name,
                file=ctx.file,
                line=line,
            )
        )

    for assign in spec.assigns:
        check(assign.target, assign.value, assign.line)
    for process in spec.processes:
        for stmt, _ in walk_assigns(process.body):
            check(stmt.target, stmt.value, stmt.line)
    return findings


# ---------------------------------------------------------------------------
# W005 -- unsynchronized clock-domain crossings (dataflow scope)
# ---------------------------------------------------------------------------


def _is_sync_stage(dfg: DataflowGraph, name: str) -> bool:
    """True when ``name`` is a synchronizer first stage: every consumer is
    a bare flop-to-flop copy clocked in one of ``name``'s own domains."""
    node = dfg.nodes[name]
    outgoing = dfg.succ(name)
    if not outgoing:
        return True  # unread flop: dead, not a hazard (W001/W007 territory)
    for edge in outgoing:
        if edge.kind != "seq" or not edge.direct or edge.addr:
            return False
        if edge.clock not in node.clocks:
            return False
    return True


def check_cdc(ctx: ModuleContext) -> list[LintFinding]:
    """W005: a register's data path originates in a disjoint clock domain
    and the receiving flop is not a recognizable synchronizer stage."""
    dfg = _ctx_dfg(ctx)
    if dfg is None:
        return []
    findings: list[LintFinding] = []
    seen: set[tuple[str, str]] = set()
    for dst in sorted(dfg.nodes):
        dst_node = dfg.nodes[dst]
        if not dst_node.clocks:
            continue
        for edge in dfg.pred(dst):
            if edge.kind != "seq" or edge.src == dst:
                continue
            for origin, path in sorted(dfg.comb_origins(edge.src).items()):
                origin_node = dfg.nodes.get(origin)
                if origin_node is None or not origin_node.is_register:
                    continue  # ports/memories carry no known domain
                if origin in dfg.reset_signals or origin in dfg.clock_signals:
                    continue
                if origin == dst or (origin, dst) in seen:
                    continue
                if set(origin_node.clocks) & set(dst_node.clocks):
                    continue  # same (or shared) domain
                direct_hop = len(path) == 1 and edge.direct and not edge.addr
                if direct_hop and _is_sync_stage(dfg, dst):
                    continue  # first flop of a synchronizer chain
                seen.add((origin, dst))
                witness = " -> ".join(path + (dst,))
                findings.append(
                    LintFinding(
                        rule="W005",
                        message=(
                            f"unsynchronized clock-domain crossing: "
                            f"'{origin}' ({', '.join(origin_node.clocks)}) "
                            f"feeds '{dst}' ({', '.join(dst_node.clocks)}) "
                            f"via {witness}"
                        ),
                        severity=RULES["W005"].severity,
                        module=ctx.module.name,
                        file=ctx.file,
                        line=edge.line,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# W006 -- multiply-driven nets (dataflow scope)
# ---------------------------------------------------------------------------


def check_multi_driven(ctx: ModuleContext) -> list[LintFinding]:
    """W006: a non-memory signal has two drive sites writing overlapping
    bits (whole-signal or unresolvable writes overlap everything)."""
    dfg = _ctx_dfg(ctx)
    if dfg is None:
        return []
    findings: list[LintFinding] = []
    for name in sorted(dfg.drive_sites):
        node = dfg.nodes.get(name)
        if node is None or node.kind == "memory":
            continue  # multi-port memories are legal
        sites = dfg.drive_sites[name]
        if len(sites) < 2:
            continue
        if not any(
            a.overlaps(b)
            for i, a in enumerate(sites)
            for b in sites[i + 1:]
        ):
            continue  # disjoint bit ranges (e.g. unrolled generate slices)
        lines = sorted({s.line for s in sites})
        where = ", ".join(str(ln) for ln in lines)
        findings.append(
            LintFinding(
                rule="W006",
                message=(
                    f"'{name}' is driven from {len(sites)} sites "
                    f"(lines {where}) with overlapping bits"
                ),
                severity=RULES["W006"].severity,
                module=ctx.module.name,
                file=ctx.file,
                line=lines[0] if lines else 0,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# W007 -- dead logic cones (dataflow scope)
# ---------------------------------------------------------------------------


def check_dead_cones(ctx: ModuleContext) -> list[LintFinding]:
    """W007: driven-and-read logic with no forward path to any output.

    Complements W001: a locally-unread signal is W001's finding; a cone
    whose members all feed *each other* (so every one is read) yet never
    reach an output, instance, memory, or clock net is dead as a whole.
    One finding per weakly-connected cone.
    """
    dfg = _ctx_dfg(ctx)
    if dfg is None:
        return []
    alive = dfg.alive()
    dead = {
        name
        for name, node in dfg.nodes.items()
        if name not in alive
        and node.kind in ("wire", "reg")
        and name in dfg.drive_sites
        and dfg.succ(name)  # read somewhere: unread is W001's finding
        and name not in dfg.clock_signals
        and name not in dfg.reset_signals
    }
    if not dead:
        return []
    neighbors: dict[str, set[str]] = {name: set() for name in dead}
    for edge in dfg.edges:
        if edge.src in dead and edge.dst in dead and edge.src != edge.dst:
            neighbors[edge.src].add(edge.dst)
            neighbors[edge.dst].add(edge.src)
    findings: list[LintFinding] = []
    placed: set[str] = set()
    for start in sorted(dead):
        if start in placed:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for other in neighbors[frontier.pop()] - component:
                component.add(other)
                frontier.append(other)
        placed |= component
        members = sorted(component)
        lines = [
            site.line
            for name in members
            for site in dfg.drive_sites.get(name, ())
            if site.line
        ]
        findings.append(
            LintFinding(
                rule="W007",
                message=(
                    f"dead logic cone {{{', '.join(members)}}}: driven and "
                    "read, but no path reaches any output"
                ),
                severity=RULES["W007"].severity,
                module=ctx.module.name,
                file=ctx.file,
                line=min(lines, default=0),
            )
        )
    return findings


#: Module-scope checks by rule code, in catalog order.
CHECKS: dict[str, Callable[[ModuleContext], list[LintFinding]]] = {
    "ACC002": check_nonminimal_parameters,
    "ACC003": check_dead_code,
    "W001": check_unused,
    "W002": check_latches,
    "W003": check_comb_loops,
    "W004": check_width_mismatch,
    "W005": check_cdc,
    "W006": check_multi_driven,
    "W007": check_dead_cones,
}
