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

``minimal_parameters`` finds the smallest non-degenerate value of each
parameter, which is what the accounting procedure feeds to synthesis.
It tries the candidates from 1 upward, but skips each one that the
module *header* already proves degenerate: the same rules run on the
top-level items alone, with the public parameters at the candidate and
the top-level localparams, then recurse into top-level instances.  A
proof implies that the full trial would report events too, so skipping
never changes the answer; only candidates the header cannot decide are
elaborated.
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
    SignalInfo,
    child_parameters,
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
    raise ElaborationError(
        f"{spec.name}: loop {loop.var!r} does not terminate",
        file=spec.module.source_name,
        line=loop.line,
        hint="the loop's step must move its variable toward the exit "
             "condition; check the step expression and the bound's "
             "parameter bindings",
    )


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
    for expr in _stmt_exprs(stmt):
        _expr_events(expr, spec, events)


def _stmt_exprs(stmt: ast.Stmt) -> Iterator[ast.Expr]:
    """Every expression of a statement, in source order (loops included)."""
    if isinstance(stmt, ast.Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ast.If):
        yield stmt.cond
        for s in stmt.then_body + stmt.else_body:
            yield from _stmt_exprs(s)
    elif isinstance(stmt, ast.Case):
        yield stmt.subject
        for item in stmt.items:
            for s in item.body:
                yield from _stmt_exprs(s)
    elif isinstance(stmt, ast.For):
        for s in stmt.body:
            yield from _stmt_exprs(s)


def _expr_events(
    expr: ast.Expr, spec: ElaboratedModule, events: list[DegeneracyEvent]
) -> None:
    """Collapsed or out-of-range constant selects are degenerate.

    A part select like ``ghr[W-2:0]`` collapses to a negative-width range
    at ``W = 1`` -- constant propagation exposes it as dead -- so such a
    parameterization must not be used for measurement.
    """
    _select_events(expr, spec, events)
    for child in _walked(expr):
        _expr_events(child, spec, events)


def _walked(expr: ast.Expr) -> tuple[ast.Expr, ...]:
    """The subexpressions :func:`_expr_events` descends into.

    Range and count operands are folded, never walked.
    """
    if isinstance(expr, ast.PartSelect):
        return (expr.base,)
    if isinstance(expr, ast.Repeat):
        return (expr.value,)
    return _children(expr)


def _select_events(
    expr: ast.Expr, spec: ElaboratedModule, events: list[DegeneracyEvent]
) -> None:
    """The events of one select or replication node (not its children)."""
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
    elif isinstance(expr, ast.Select):
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
    elif isinstance(expr, ast.Repeat):
        count = _try_const(expr.count, spec)
        if count is not None and count < 0:
            events.append(
                DegeneracyEvent(
                    spec.name, "collapsed-select",
                    f"replication count {count} is negative",
                )
            )


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
    if isinstance(expr, ast.Ident):  # the common case, without a raise
        return spec.env.get(expr.name)
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

    For each parameter, with the others held fixed, the candidates from 1
    upward are tried in order until one is non-degenerate; the search
    repeats until a fixpoint (parameters can interact).  If no value in
    ``[1, MAX_PARAM_SEARCH]`` removes all degeneracies for some
    parameter, its declared default is kept for that round.  A candidate
    the module header proves degenerate is skipped without elaborating
    it, and one full trial runs at the final rejected value for the
    blocker's events, so the answer equals that of elaborating every
    candidate.

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

    skipped = obs_metrics.counter("account.trials_skipped")
    current = dict(defaults)
    # Per parameter, the largest candidate its last scan rejected, with
    # the events seen there (None while only the header rejected it).
    rejected: dict[
        str, tuple[dict[str, int], tuple[DegeneracyEvent, ...] | None]
    ] = {}
    for _ in range(max_rounds):
        previous = dict(current)
        for name in params:
            chosen = None
            rejected.pop(name, None)
            for candidate in range(1, MAX_PARAM_SEARCH + 1):
                trial = dict(current)
                trial[name] = candidate
                if _header_degenerate(design, module_name, trial, ()):
                    skipped.inc()
                    rejected[name] = (trial, None)
                    continue
                events = degeneracy_events(design, module_name, trial)
                if not events:
                    chosen = candidate
                    break
                rejected[name] = (trial, tuple(events))
            current[name] = chosen if chosen is not None else defaults[name]
        if current == previous:
            break
    blockers = []
    for name in params:
        if name not in rejected:
            continue
        trial, found = rejected[name]
        if found is None:  # one full trial, for the blocker's events
            found = tuple(degeneracy_events(design, module_name, trial))
        blockers.append(BlockedMinimization(name, trial[name], found))
    return MinimalParameters(values=current, blockers=tuple(blockers))


def _header_degenerate(
    design: ast.Design,
    module_name: str,
    binding: Mapping[str, int],
    stack: tuple[str, ...],
) -> bool:
    """Whether the module header alone proves ``binding`` degenerate.

    "Proven" implies that :func:`degeneracy_events` at the same binding is
    non-empty, so the search may skip the trial.  Anything the proof
    cannot finish means "not proven": the full trial then runs and
    reports, or raises, exactly as it would have.  Answers are memoized
    per design and binding; ``stack`` (the modules above this one) only
    withholds proofs, so a memoized "proven" holds under any parent.
    """
    memo = design.memo("degeneracy.headers")
    key = (module_name, tuple(sorted(binding.items())))
    proven = memo.get(key)
    if proven is None:
        try:
            proven = _prove_header(design, module_name, binding, stack)
        except Exception:  # noqa: BLE001 -- the full trial meets it again
            proven = False
        memo[key] = proven
    return proven


#: A declaration's shape: (msb, lsb, memory depth) expressions.
_Shape = tuple[ast.Expr | None, ast.Expr | None, ast.Expr | None]


@dataclass(frozen=True)
class _Header:
    """The binding-independent part of a module's header proof.

    ``shapes`` are the distinct (msb, lsb, depth) triples of the ports
    and top-level signal declarations, so a proof evaluates each once per
    env.  ``ports`` and ``decls`` refer to them by index; ``decls`` are
    the top-level localparams, signal declarations and instances in item
    order.  ``unbound`` are public parameters, and localparams are left
    out of ``decls``, when a generate construct can rebind the name in
    the elaborated env: localparams under top-level generate ``if``s land
    there unprefixed, and generate ``for`` bodies add ``__``-joined
    names.  ``selects`` are the distinct select and replication nodes
    that :func:`_expr_events` visits in top-level expressions and whose
    operands name parameters only (a header env holds nothing else, so
    no other node can fold there), and ``bases`` the signals they select
    from: the only ones whose :class:`SignalInfo` a proof needs.
    """

    module: ast.Module
    params: tuple[ast.ParamDecl, ...]
    unbound: tuple[str, ...]
    shapes: tuple[_Shape, ...]
    ports: tuple[tuple[str, str, int], ...]
    decls: tuple[tuple[ast.ParamDecl | ast.SignalDecl | ast.Instance, int], ...]
    generates: tuple[ast.Item, ...]
    stmts: tuple[ast.Stmt, ...]
    selects: tuple[ast.Expr, ...]
    bases: frozenset[str]


def _header(design: ast.Design, module_name: str) -> _Header:
    """The module's header proof plan, built once per design."""
    memo = design.memo("degeneracy.header_plans")
    plan = memo.get(module_name)
    if plan is None:
        plan = memo[module_name] = _plan_header(design.module(module_name))
    return plan


def _plan_header(module: ast.Module) -> _Header:
    rebound = _generate_if_params(module.items)

    def bindable(name: str) -> bool:
        return name not in rebound and "__" not in name

    shapes: dict[_Shape, int] = {}

    def shape_index(msb, lsb, depth=None) -> int:
        return shapes.setdefault((msb, lsb, depth), len(shapes))

    names = {i.name for i in module.items if isinstance(i, ast.ParamDecl)}
    ports = tuple(
        (port.name, port.direction, shape_index(port.msb, port.lsb))
        for port in module.ports
    )
    decls: list[tuple[ast.ParamDecl | ast.SignalDecl | ast.Instance, int]] = []
    generates: list[ast.Item] = []
    stmts: list[ast.Stmt] = []
    exprs: list[ast.Expr] = []
    for item in module.items:
        if isinstance(item, ast.ParamDecl):
            if item.local and bindable(item.name):
                decls.append((item, -1))
        elif isinstance(item, ast.SignalDecl):
            decls.append((item, shape_index(item.msb, item.lsb, item.depth)))
        elif isinstance(item, ast.Instance):
            decls.append((item, -1))
            exprs.extend(expr for _, expr in item.connections)
        elif isinstance(item, ast.ContinuousAssign):
            exprs += (item.target, item.value)
        elif isinstance(item, ast.ProcessBlock):
            stmts.extend(_foldable_stmts(item.body, names))
            for stmt in item.body:
                exprs.extend(_stmt_exprs(stmt))
        else:
            generates.append(item)
    selects = tuple(dict.fromkeys(
        node
        for expr in exprs
        for node in _walk(expr)
        if _operands(node)
        and all(name in names for op in _operands(node) for name in _idents(op))
    ))
    params = module.params
    return _Header(
        module=module,
        params=params,
        unbound=tuple(p.name for p in params if not bindable(p.name)),
        shapes=tuple(shapes),
        ports=ports,
        decls=tuple(decls),
        generates=tuple(generates),
        stmts=tuple(stmts),
        selects=selects,
        bases=frozenset(
            node.base.name for node in selects
            if isinstance(node, (ast.Select, ast.PartSelect))
            and isinstance(node.base, ast.Ident)
        ),
    )


def _prove_header(
    design: ast.Design,
    module_name: str,
    binding: Mapping[str, int],
    stack: tuple[str, ...],
) -> bool:
    """Run the degeneracy rules on the module's top-level items only.

    The header mirrors the elaborator's walk of the top level: public
    parameters at ``binding``, ports at the public values, then
    localparams, signal declarations and instance overrides, each at the
    env reached so far.  It keeps only what elaboration computes
    identically (a declaration whose bounds do not evaluate is left
    out), so every value it holds equals the elaborated one.  A
    non-positive width or depth is proven outright, because elaboration
    fails there.  Otherwise the rules run on the header, and then the
    proof recurses into top-level instances whose overrides evaluate.
    """
    plan = _header(design, module_name)
    env: dict[str, int] = {}
    for p in plan.params:
        env[p.name] = (
            binding[p.name] if p.name in binding else eval_const(p.default, env)
        )
    public = dict(env)
    # Shapes evaluated at the current env; cleared whenever env changes.
    evaluated: dict[int, tuple[int, int, int | None] | None] = {}

    def shape(index: int) -> tuple[int, int, int | None] | None:
        if index not in evaluated:
            evaluated[index] = _evaluate_shape(plan.shapes[index], env)
        return evaluated[index]

    signals: dict[str, SignalInfo] = {}
    for name, direction, index in plan.ports:
        found = shape(index)
        if found is None:
            continue
        if found[0] <= 0:
            return True
        if name in plan.bases:
            signals[name] = SignalInfo(
                name, found[0], direction=direction, lsb=found[1]
            )
    if plan.unbound:
        for name in plan.unbound:
            env.pop(name, None)
        evaluated.clear()

    children: list[tuple[str, dict[str, int]]] = []
    for decl, index in plan.decls:
        if isinstance(decl, ast.ParamDecl):
            env[decl.name] = eval_const(decl.default, env)
            evaluated.clear()
        elif isinstance(decl, ast.SignalDecl):
            found = shape(index)
            if found is None:
                continue
            width, lsb, depth = found
            if width <= 0 or (depth is not None and depth <= 0):
                return True
            if decl.name in plan.bases:
                signals[decl.name] = SignalInfo(decl.name, width, depth, lsb=lsb)
        else:
            child = _child_binding(design, module_name, decl, env)
            if child is not None:
                children.append((decl.module_name, child))

    header = ElaboratedModule(
        module_name, public, env, signals, [], [], [], plan.module
    )
    events: list[DegeneracyEvent] = []
    _walk_generate(plan.generates, header, {}, events)
    _walk_stmts(plan.stmts, header, events)
    for node in plan.selects:
        _select_events(node, header, events)
    if events:
        return True
    stack = stack + (module_name,)
    return any(
        child not in stack and _header_degenerate(design, child, params, stack)
        for child, params in children
    )


def _evaluate_shape(
    shape: _Shape, env: Mapping[str, int]
) -> tuple[int, int, int | None] | None:
    """(width, declared lsb, depth) of a declaration, None if unknown."""
    msb, lsb, depth = shape
    try:
        if msb is None:
            width, low = 1, 0
        else:
            assert lsb is not None
            low = eval_const(lsb, env)
            width = eval_const(msb, env) - low + 1
        return width, low, None if depth is None else eval_const(depth, env)
    except ConstEvalError:
        return None


def _foldable_stmts(
    stmts: tuple[ast.Stmt, ...], names: set[str]
) -> list[ast.Stmt]:
    """The statements :func:`_walk_stmts` can fold on a header.

    A conditional or loop whose control names only ``names`` is kept
    whole.  Any other conditional never folds there, so only its
    branches are kept; any other loop's trip count does not evaluate
    there, so ``_walk_stmts`` would skip it and its body.  Assignments
    never fold.
    """
    out: list[ast.Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            if set(_idents(stmt.cond)) <= names:
                out.append(stmt)
            else:
                out += _foldable_stmts(stmt.then_body + stmt.else_body, names)
        elif isinstance(stmt, ast.Case):
            if set(_idents(stmt.subject)) <= names:
                out.append(stmt)
            else:
                for item in stmt.items:
                    out += _foldable_stmts(item.body, names)
        elif isinstance(stmt, ast.For):
            bounds = (stmt.start, stmt.cond, stmt.step)
            if {n for e in bounds for n in _idents(e)} <= names | {stmt.var}:
                out.append(stmt)
    return out


def _operands(expr: ast.Expr) -> tuple[ast.Expr, ...]:
    """The operands :func:`_expr_events` folds at this node."""
    if isinstance(expr, ast.PartSelect):
        return (expr.msb, expr.lsb)
    if isinstance(expr, ast.Select):
        return (expr.index,)
    if isinstance(expr, ast.Repeat):
        return (expr.count,)
    return ()


def _walk(expr: ast.Expr) -> Iterator[ast.Expr]:
    """The nodes :func:`_expr_events` visits under ``expr``, in its order."""
    yield expr
    for child in _walked(expr):
        yield from _walk(child)


def _idents(expr: ast.Expr) -> Iterator[str]:
    """Every identifier ``expr`` references, operands of selects included."""
    if isinstance(expr, ast.Ident):
        yield expr.name
        return
    if isinstance(expr, ast.PartSelect):
        children: tuple[ast.Expr, ...] = (expr.base, expr.msb, expr.lsb)
    elif isinstance(expr, ast.Repeat):
        children = (expr.count, expr.value)
    else:
        children = _children(expr)
    for child in children:
        yield from _idents(child)


def _generate_if_params(items: tuple[ast.Item, ...]) -> set[str]:
    """Localparams that top-level generate ``if``s bind without a prefix."""
    names: set[str] = set()
    for item in items:
        if isinstance(item, ast.GenerateIf):
            branches = item.then_body + item.else_body
            names.update(i.name for i in branches if isinstance(i, ast.ParamDecl))
            names |= _generate_if_params(branches)
    return names


def _child_binding(
    design: ast.Design,
    parent: str,
    inst: ast.Instance,
    env: Mapping[str, int],
) -> dict[str, int] | None:
    """The child's public parameters as elaboration resolves them, or None.

    None when an override does not evaluate here or the instance is
    malformed (elaboration fails on it; the proof just does not recurse).
    """
    child = design.modules.get(inst.module_name)
    if child is None:
        return None
    try:
        return child_parameters(
            child, inst.param_overrides, env, parent,
            lambda expr, scope, _where: eval_const(expr, scope),
        )
    except (ConstEvalError, ElaborationError):
        return None
