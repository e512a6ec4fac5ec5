"""Degeneracy analysis: the parameter-scaling rule of Section 2.2.

The paper measures a parameterized component at "the smallest value that
does not cause any loops or conditional statements in the RTL description
to be optimized away by traditional program analysis techniques such as
constant propagation and dead code elimination".

Here a parameterization is **degenerate** when, after elaboration:

* a generate loop or a procedural ``for`` loop executes zero times
  (its body is dead code);
* a generate conditional selects an empty branch while the other branch has
  contents (the guarded structure vanishes);
* a procedural conditional's condition constant-folds and the eliminated
  branch is non-empty (e.g. ``if (WIDTH > 1)`` at ``WIDTH = 1`` removes the
  wide-path logic);
* elaboration itself fails (zero-width vectors, empty memories, ...).

``minimal_parameters`` searches upward from 1 for the smallest
non-degenerate value of each parameter, which is what the accounting
procedure feeds to synthesis.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.elab.consteval import ConstEvalError, eval_const, substitute
from repro.elab.elaborator import (
    DesignHierarchy,
    ElaboratedModule,
    ElaborationError,
    elaborate,
)
from repro.hdl import ast
from repro.obs import metrics as obs_metrics

#: Upper bound on per-parameter search.
MAX_PARAM_SEARCH = 256


@dataclass(frozen=True)
class DegeneracyEvent:
    """One loop/conditional optimized away by constant propagation."""

    module: str
    kind: str  # "zero-trip-loop" | "dead-conditional" | "elaboration-failure"
    detail: str
    line: int = 0

    def __str__(self) -> str:
        where = f":{self.line}" if self.line else ""
        return f"{self.module}{where}: {self.kind} ({self.detail})"


def degeneracy_events(
    design: ast.Design,
    module_name: str,
    parameters: Mapping[str, int] | None = None,
) -> list[DegeneracyEvent]:
    """All degeneracy events for a module at the given parameter values.

    Events are collected over the module itself and everything it
    instantiates (a degenerate child makes the parameterization degenerate).
    Answers are memoized per design and trial binding (successful ones
    only: an unexpected exception is raised again on every call).
    """
    obs_metrics.counter("account.trials").inc()
    memo = design.memo("degeneracy.trials")
    key = (module_name, tuple(sorted((parameters or {}).items())))
    cached = memo.get(key)
    if cached is not None:
        obs_metrics.counter("account.trial_memo_hits").inc()
        return list(cached)
    try:
        hierarchy = elaborate(design, module_name, parameters)
    except ElaborationError as exc:
        events = [DegeneracyEvent(module_name, "elaboration-failure", str(exc))]
    else:
        spec_events = design.memo("degeneracy.specs")
        events = []
        for spec_key, spec in hierarchy.specializations.items():
            found = spec_events.get(spec_key)
            if found is None:
                found = spec_events[spec_key] = tuple(_module_events(spec))
            events.extend(found)
    memo[key] = tuple(events)
    return events


def is_degenerate(
    design: ast.Design,
    module_name: str,
    parameters: Mapping[str, int] | None = None,
) -> bool:
    return bool(degeneracy_events(design, module_name, parameters))


def _module_events(spec: ElaboratedModule) -> list[DegeneracyEvent]:
    events: list[DegeneracyEvent] = []
    # Generate constructs are examined on the *un-elaborated* items (the
    # elaborator has already discarded dead branches), re-walked with the
    # resolved environment.
    _walk_generate(spec.module.items, spec, {}, events)
    for process in spec.processes:
        _walk_stmts(process.body, spec, events)
        for stmt in process.body:
            _walk_stmt_exprs(stmt, spec, events)
    for assign in spec.assigns:
        _expr_events(assign.target, spec, events)
        _expr_events(assign.value, spec, events)
    for inst in spec.instances:
        for _, expr in inst.connections:
            _expr_events(expr, spec, events)
    return events


def _walk_generate(
    items: tuple[ast.Item, ...],
    spec: ElaboratedModule,
    bindings: dict[str, ast.Expr],
    events: list[DegeneracyEvent],
) -> None:
    for item in items:
        if isinstance(item, ast.GenerateFor):
            trips = _trip_count(item, spec, bindings)
            if trips == 0:
                events.append(
                    DegeneracyEvent(
                        spec.name, "zero-trip-loop",
                        f"generate loop {item.label or item.var!r}", item.line,
                    )
                )
            else:
                # Analyze one representative iteration.
                start = eval_const(substitute(item.start, bindings), spec.env)
                inner = dict(bindings)
                inner[item.var] = ast.Number(start)
                _walk_generate(item.body, spec, inner, events)
        elif isinstance(item, ast.GenerateIf):
            cond = eval_const(substitute(item.cond, bindings), spec.env)
            chosen = item.then_body if cond else item.else_body
            dropped = item.else_body if cond else item.then_body
            if not chosen and dropped:
                events.append(
                    DegeneracyEvent(
                        spec.name, "dead-conditional",
                        "generate conditional selects an empty branch",
                        item.line,
                    )
                )
            _walk_generate(chosen, spec, dict(bindings), events)
        # Leaf items carry no degeneracy information at this level.


def _trip_count(
    loop: ast.GenerateFor | ast.For,
    spec: ElaboratedModule,
    bindings: Mapping[str, ast.Expr],
) -> int:
    value = eval_const(substitute(loop.start, bindings), spec.env)
    trips = 0
    while trips <= 100000:
        env_bindings = dict(bindings)
        env_bindings[loop.var] = ast.Number(value)
        if not eval_const(substitute(loop.cond, env_bindings), spec.env):
            return trips
        trips += 1
        value = eval_const(substitute(loop.step, env_bindings), spec.env)
    raise ElaborationError(f"{spec.name}: loop {loop.var!r} does not terminate")


def _walk_stmts(
    stmts: tuple[ast.Stmt, ...],
    spec: ElaboratedModule,
    events: list[DegeneracyEvent],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            folded = _try_const(stmt.cond, spec)
            if folded is not None:
                dropped = stmt.then_body if folded == 0 else stmt.else_body
                if dropped:
                    events.append(
                        DegeneracyEvent(
                            spec.name, "dead-conditional",
                            "constant condition eliminates a branch",
                            stmt.line,
                        )
                    )
            _walk_stmts(stmt.then_body, spec, events)
            _walk_stmts(stmt.else_body, spec, events)
        elif isinstance(stmt, ast.Case):
            folded = _try_const(stmt.subject, spec)
            if folded is not None and any(item.choices for item in stmt.items):
                events.append(
                    DegeneracyEvent(
                        spec.name, "dead-conditional",
                        "constant case subject eliminates arms", stmt.line,
                    )
                )
            for item in stmt.items:
                _walk_stmts(item.body, spec, events)
        elif isinstance(stmt, ast.For):
            try:
                trips = _trip_count(stmt, spec, {})
            except ConstEvalError:
                continue  # non-constant bounds are a lowering problem
            if trips == 0:
                events.append(
                    DegeneracyEvent(
                        spec.name, "zero-trip-loop",
                        f"procedural loop over {stmt.var!r}", stmt.line,
                    )
                )
            else:
                _walk_stmts(stmt.body, spec, events)
        # Assignments cannot be degenerate.


def _walk_stmt_exprs(
    stmt: ast.Stmt, spec: ElaboratedModule, events: list[DegeneracyEvent]
) -> None:
    if isinstance(stmt, ast.Assign):
        _expr_events(stmt.target, spec, events)
        _expr_events(stmt.value, spec, events)
    elif isinstance(stmt, ast.If):
        _expr_events(stmt.cond, spec, events)
        for s in stmt.then_body + stmt.else_body:
            _walk_stmt_exprs(s, spec, events)
    elif isinstance(stmt, ast.Case):
        _expr_events(stmt.subject, spec, events)
        for item in stmt.items:
            for s in item.body:
                _walk_stmt_exprs(s, spec, events)
    elif isinstance(stmt, ast.For):
        for s in stmt.body:
            _walk_stmt_exprs(s, spec, events)


def _expr_events(
    expr: ast.Expr, spec: ElaboratedModule, events: list[DegeneracyEvent]
) -> None:
    """Collapsed or out-of-range constant selects are degenerate.

    A part select like ``ghr[W-2:0]`` collapses to a negative-width range
    at ``W = 1`` -- constant propagation exposes it as dead -- so such a
    parameterization must not be used for measurement.
    """
    if isinstance(expr, ast.PartSelect):
        msb = _try_const(expr.msb, spec)
        lsb = _try_const(expr.lsb, spec)
        if msb is not None and lsb is not None and msb < lsb:
            events.append(
                DegeneracyEvent(
                    spec.name, "collapsed-select",
                    f"part select [{msb}:{lsb}] has negative width",
                )
            )
        elif msb is not None and lsb is not None:
            sig = _signal_of(expr.base, spec)
            if sig is not None and not sig.is_memory:
                declared_msb = sig.lsb + sig.width - 1
                if lsb < sig.lsb or msb > declared_msb:
                    events.append(
                        DegeneracyEvent(
                            spec.name, "collapsed-select",
                            f"part select [{msb}:{lsb}] exceeds "
                            f"{sig.name}[{declared_msb}:{sig.lsb}]",
                        )
                    )
        _expr_events(expr.base, spec, events)
        return
    if isinstance(expr, ast.Select):
        idx = _try_const(expr.index, spec)
        if idx is not None:
            sig = _signal_of(expr.base, spec)
            if sig is not None and not sig.is_memory:
                if not sig.lsb <= idx <= sig.lsb + sig.width - 1:
                    events.append(
                        DegeneracyEvent(
                            spec.name, "collapsed-select",
                            f"bit select [{idx}] exceeds {sig.name} "
                            f"(width {sig.width})",
                        )
                    )
        _expr_events(expr.base, spec, events)
        _expr_events(expr.index, spec, events)
        return
    if isinstance(expr, ast.Repeat):
        count = _try_const(expr.count, spec)
        if count is not None and count < 0:
            events.append(
                DegeneracyEvent(
                    spec.name, "collapsed-select",
                    f"replication count {count} is negative",
                )
            )
        _expr_events(expr.value, spec, events)
        return
    for child in _children(expr):
        _expr_events(child, spec, events)


def _signal_of(base: ast.Expr, spec: ElaboratedModule):
    if isinstance(base, ast.Ident):
        return spec.signals.get(base.name)
    return None


def _children(expr: ast.Expr) -> tuple[ast.Expr, ...]:
    if isinstance(expr, ast.Unary):
        return (expr.operand,)
    if isinstance(expr, ast.Binary):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, ast.Ternary):
        return (expr.cond, expr.then, expr.other)
    if isinstance(expr, ast.Select):
        return (expr.base, expr.index)
    if isinstance(expr, ast.Concat):
        return expr.parts
    if isinstance(expr, ast.Resize):
        return (expr.value, expr.width)
    if isinstance(expr, ast.Others):
        return (expr.value,)
    return ()


def _try_const(expr: ast.Expr, spec: ElaboratedModule) -> int | None:
    """The constant value of ``expr`` under the module env, or None.

    Only parameter-dependent expressions can fold; anything referencing a
    signal raises ConstEvalError inside and returns None.
    """
    try:
        return eval_const(expr, spec.env)
    except ConstEvalError:
        return None


@dataclass(frozen=True)
class BlockedMinimization:
    """Why one parameter cannot go below its chosen minimal value.

    ``rejected_value`` is the largest value below the chosen one that was
    tried (for a chosen value of ``v`` this is ``v - 1``; when the search
    failed outright and the declared default was kept, it is the last
    candidate probed), and ``events`` are the degeneracies observed there
    -- the constructs constant propagation would strip at that value.
    """

    parameter: str
    rejected_value: int
    events: tuple[DegeneracyEvent, ...]

    def __str__(self) -> str:
        detail = "; ".join(str(e) for e in self.events) or "unknown"
        return (
            f"{self.parameter} < {self.rejected_value + 1} is degenerate "
            f"(at {self.parameter}={self.rejected_value}: {detail})"
        )


@dataclass(frozen=True)
class MinimalParameters(MappingABC):
    """The minimal non-degenerate parameter values, with provenance.

    Behaves exactly like the ``dict[str, int]`` the function historically
    returned (mapping protocol, ``==`` against plain dicts), and
    additionally records, per parameter, *which construct* blocks further
    minimization -- the :class:`DegeneracyEvent` observed at the next
    smaller value.  Parameters whose minimum is 1 have no blocker.
    """

    values: dict[str, int] = field(default_factory=dict)
    blockers: tuple[BlockedMinimization, ...] = ()

    def __getitem__(self, key: str) -> int:
        return self.values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MinimalParameters):
            return self.values == other.values
        if isinstance(other, Mapping):
            return dict(self.values) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:  # frozen dataclass would otherwise hash fields
        return hash(tuple(sorted(self.values.items())))

    def blocker_for(self, parameter: str) -> BlockedMinimization | None:
        """The minimization blocker for one parameter, if any."""
        for b in self.blockers:
            if b.parameter == parameter:
                return b
        return None


def minimal_parameters(
    design: ast.Design,
    module_name: str,
    max_rounds: int = 3,
) -> MinimalParameters:
    """Smallest non-degenerate parameter values for a module (Section 2.2).

    Each parameter is scanned upward from 1 with the others held fixed;
    the scan repeats until a fixpoint (parameters can interact).  If no
    value in ``[1, MAX_PARAM_SEARCH]`` removes all degeneracies for some
    parameter, its declared default is kept for that round.

    The result is a :class:`MinimalParameters` mapping: drop-in compatible
    with the plain dict this function used to return, plus per-parameter
    :class:`BlockedMinimization` provenance (the degeneracy events at the
    next smaller value) that the lint rule ACC002 and error hints render.
    The result is memoized per design: accounting asks once per instance
    and the linter once per module, and every ask after the first is free.
    """
    memo = design.memo("degeneracy.minimal")
    key = (module_name, max_rounds)
    cached = memo.get(key)
    if cached is None:
        cached = memo[key] = _search_minimal(design, module_name, max_rounds)
    return cached


def _search_minimal(
    design: ast.Design, module_name: str, max_rounds: int
) -> MinimalParameters:
    """The uncached fixpoint search behind :func:`minimal_parameters`."""
    module = design.module(module_name)
    params = [p.name for p in module.params]
    if not params:
        return MinimalParameters()
    defaults: dict[str, int] = {}
    env: dict[str, int] = {}
    for p in module.params:
        defaults[p.name] = eval_const(p.default, env)
        env[p.name] = defaults[p.name]

    current = dict(defaults)
    blocked: dict[str, BlockedMinimization] = {}
    for _ in range(max_rounds):
        previous = dict(current)
        for name in params:
            chosen = None
            last_events: tuple[DegeneracyEvent, ...] = ()
            last_candidate = 0
            for candidate in range(1, MAX_PARAM_SEARCH + 1):
                trial = dict(current)
                trial[name] = candidate
                events = degeneracy_events(design, module_name, trial)
                if not events:
                    chosen = candidate
                    break
                last_events = tuple(events)
                last_candidate = candidate
            current[name] = chosen if chosen is not None else defaults[name]
            if last_candidate:
                blocked[name] = BlockedMinimization(
                    parameter=name,
                    rejected_value=last_candidate,
                    events=last_events,
                )
            else:
                blocked.pop(name, None)
        if current == previous:
            break
    return MinimalParameters(
        values=current,
        blockers=tuple(blocked[n] for n in params if n in blocked),
    )
