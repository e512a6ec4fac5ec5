"""Hierarchy elaboration: parameters, generate unrolling, instance walk.

``elaborate(design, top)`` produces a :class:`DesignHierarchy` containing
one :class:`ElaboratedModule` per distinct *specialization* -- a (module,
resolved-parameter-values) pair -- plus the flattened list of instance
occurrences that the accounting procedure of Section 2.2 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.elab.consteval import ConstEvalError, eval_const, substitute
from repro.hdl import ast
from repro.hdl.source import HdlError
from repro.versions import ELAB_VERSION  # noqa: F401 -- re-exported

#: Safety bound on generate/procedural loop unrolling.
MAX_UNROLL = 65536


class ElaborationError(HdlError):
    """Raised when a design cannot be elaborated."""


@dataclass(frozen=True)
class SignalInfo:
    """A fully-resolved signal: width in bits, optional memory depth.

    ``lsb`` is the declared low index (``[7:4]`` gives lsb=4) so that part
    selects can be translated to zero-based bit positions.
    """

    name: str
    width: int
    depth: int | None = None
    direction: str | None = None  # input/output/inout for ports
    lsb: int = 0

    @property
    def is_port(self) -> bool:
        return self.direction is not None

    @property
    def is_memory(self) -> bool:
        return self.depth is not None


@dataclass(frozen=True)
class ElaboratedInstance:
    """A child instantiation inside an elaborated module."""

    module_name: str
    name: str
    parameters: Mapping[str, int]
    connections: tuple[tuple[str, ast.Expr], ...]
    line: int = 0


@dataclass
class ElaboratedModule:
    """One specialization of a module, with generates expanded."""

    name: str
    parameters: dict[str, int]  # non-local parameters (the spec key)
    env: dict[str, int]  # parameters + local constants
    signals: dict[str, SignalInfo]
    assigns: list[ast.ContinuousAssign]
    processes: list[ast.ProcessBlock]
    instances: list[ElaboratedInstance]
    module: ast.Module

    @property
    def key(self) -> tuple[str, tuple[tuple[str, int], ...]]:
        return (self.name, tuple(sorted(self.parameters.items())))

    def signal(self, name: str) -> SignalInfo:
        try:
            return self.signals[name]
        except KeyError:
            raise ElaborationError(
                f"{self.name}: unknown signal {name!r}"
            ) from None

    @property
    def ports(self) -> list[SignalInfo]:
        return [s for s in self.signals.values() if s.is_port]


@dataclass
class DesignHierarchy:
    """Every specialization reachable from the top, plus occurrence counts."""

    design: ast.Design
    top_key: tuple[str, tuple[tuple[str, int], ...]]
    specializations: dict[tuple, ElaboratedModule] = field(default_factory=dict)

    @property
    def top(self) -> ElaboratedModule:
        return self.specializations[self.top_key]

    def all_instances(self) -> list[ElaboratedInstance]:
        """Flattened instance occurrences in the whole subtree (top included).

        An instance appearing inside a module instantiated N times occurs N
        times in this list; this over-counting is exactly what the paper's
        accounting procedure eliminates.
        """
        out: list[ElaboratedInstance] = []
        top = self.top
        out.append(
            ElaboratedInstance(top.name, top.name, dict(top.parameters), ())
        )
        self._collect(top, out)
        return out

    def _collect(
        self, spec: ElaboratedModule, out: list[ElaboratedInstance]
    ) -> None:
        for inst in spec.instances:
            out.append(inst)
            child_key = (inst.module_name, tuple(sorted(inst.parameters.items())))
            self._collect(self.specializations[child_key], out)


def elaborate(
    design: ast.Design,
    top: str,
    parameters: Mapping[str, int] | None = None,
) -> DesignHierarchy:
    """Elaborate ``top`` (and everything below it) within ``design``."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    with obs_trace.span("elaborate", module=top) as sp:
        worker = _Elaborator(design)
        top_spec = worker.specialize(top, dict(parameters or {}), stack=())
        obs_metrics.counter("elab.elaborations").inc()
        if worker.reused:
            obs_metrics.counter("elab.subtree_reuse").inc(worker.reused)
        sp.set_attr("specializations", len(worker.specializations))
        return DesignHierarchy(
            design=design,
            top_key=top_spec.key,
            specializations=worker.specializations,
        )


@dataclass(frozen=True)
class _Subtree:
    """A memoized, fully elaborated subtree rooted at one specialization.

    ``children`` are the child spec keys in instance order; ``modules`` is
    every module name reachable from the root (root included).  Only
    subtrees in which no module repeats along any instantiation path are
    stored, so replaying one can never skip a recursion error.
    """

    spec: ElaboratedModule
    children: tuple[tuple, ...]
    modules: frozenset[str]


class _Elaborator:
    def __init__(self, design: ast.Design) -> None:
        self.design = design
        self.specializations: dict[tuple, ElaboratedModule] = {}
        # Shared by every elaborate() call on this design (see
        # ast.Design.memo); holds successful subtrees only, so a failing
        # elaboration is recomputed -- and raises -- every time.
        self.memo: dict[tuple, _Subtree] = design.memo("elab.subtrees")
        self.reused = 0

    def specialize(
        self, module_name: str, overrides: dict[str, int], stack: tuple[str, ...]
    ) -> ElaboratedModule:
        if module_name in stack:
            cycle = " -> ".join(stack + (module_name,))
            raise ElaborationError(
                f"recursive instantiation: {cycle}",
                hint="break the instantiation cycle; the accounting "
                     "procedure requires a finite hierarchy",
            )
        try:
            module = self.design.module(module_name)
        except KeyError as exc:
            raise ElaborationError(
                str(exc),
                hint="add the module's source file to the component, or fix "
                     "the instance's module name",
            ) from None

        declared = {p.name for p in module.params}
        unknown = set(overrides) - declared
        if unknown:
            raise ElaborationError(
                f"{module_name}: unknown parameter overrides {sorted(unknown)}"
            )

        # First pass: resolve parameters (so the spec key is available
        # before expanding the body).
        env: dict[str, int] = {}
        public: dict[str, int] = {}
        for item in _iter_params(module.items):
            if item.local:
                continue
            if item.name in overrides:
                value = overrides[item.name]
            else:
                value = self._eval(item.default, env, module_name)
            env[item.name] = value
            public[item.name] = value
        key = (module_name, tuple(sorted(public.items())))
        if key in self.specializations:
            return self.specializations[key]
        memo = self.memo.get(key)
        if memo is not None and memo.modules.isdisjoint(stack):
            self.reused += 1
            self._replay(key)
            return memo.spec

        spec = ElaboratedModule(
            name=module_name,
            parameters=public,
            env=env,
            signals={},
            assigns=[],
            processes=[],
            instances=[],
            module=module,
        )
        for port in module.ports:
            width, lsb = self._width(port.msb, port.lsb, env, module_name, port.name)
            spec.signals[port.name] = SignalInfo(
                name=port.name, width=width, direction=port.direction, lsb=lsb
            )
        self._walk_items(module.items, spec, bindings={}, prefix="", stack=stack)
        self.specializations[key] = spec
        # Recurse into children after the body is fully expanded.
        children = tuple(
            self.specialize(
                inst.module_name, dict(inst.parameters), stack + (module_name,)
            ).key
            for inst in spec.instances
        )
        self._commit(key, spec, children)
        return spec

    def _commit(
        self, key: tuple, spec: ElaboratedModule, children: tuple[tuple, ...]
    ) -> None:
        """Memoize a subtree whose children all elaborated successfully.

        A child missing from the memo was itself not storable (a module
        repeats below it), which makes this subtree unstorable too.
        """
        modules = {spec.name}
        for child in children:
            sub = self.memo.get(child)
            if sub is None or spec.name in sub.modules:
                return
            modules |= sub.modules
        self.memo[key] = _Subtree(spec, children, frozenset(modules))

    def _replay(self, key: tuple) -> None:
        """Insert a memoized subtree in the order a fresh walk would."""
        if key in self.specializations:
            return
        sub = self.memo[key]
        self.specializations[key] = sub.spec
        for child in sub.children:
            self._replay(child)

    # -- helpers ------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Mapping[str, int], where: str) -> int:
        try:
            return eval_const(expr, env)
        except ConstEvalError as exc:
            raise ElaborationError(f"{where}: {exc}") from None

    def _width(
        self,
        msb: ast.Expr | None,
        lsb: ast.Expr | None,
        env: Mapping[str, int],
        where: str,
        signal: str,
    ) -> tuple[int, int]:
        """(width, declared lsb) of a signal."""
        if msb is None:
            return 1, 0
        assert lsb is not None
        msb_v = self._eval(msb, env, where)
        lsb_v = self._eval(lsb, env, where)
        width = msb_v - lsb_v + 1
        if width <= 0:
            raise ElaborationError(
                f"{where}: signal {signal!r} has non-positive width {width}",
                hint="widths come from parameter expressions; check the "
                     "msb/lsb bounds and any overriding instantiation",
            )
        return width, lsb_v

    def _walk_items(
        self,
        items: tuple[ast.Item, ...],
        spec: ElaboratedModule,
        bindings: dict[str, ast.Expr],
        prefix: str,
        stack: tuple[str, ...],
    ) -> None:
        module_name = spec.name
        for item in items:
            if isinstance(item, ast.ParamDecl):
                if prefix and not item.local:
                    raise ElaborationError(
                        f"{module_name}: parameter {item.name!r} inside generate"
                    )
                if item.local:
                    value = self._eval(
                        substitute(item.default, bindings), spec.env, module_name
                    )
                    spec.env[prefix + item.name] = value
                    if prefix:
                        bindings[item.name] = ast.Number(value)
                # Non-local params were handled in the first pass.
            elif isinstance(item, ast.SignalDecl):
                name = prefix + item.name
                width, lsb = self._width(
                    _maybe_subst(item.msb, bindings),
                    _maybe_subst(item.lsb, bindings),
                    spec.env, module_name, name,
                )
                depth: int | None = None
                if item.depth is not None:
                    depth = self._eval(
                        substitute(item.depth, bindings), spec.env, module_name
                    )
                    if depth <= 0:
                        raise ElaborationError(
                            f"{module_name}: memory {name!r} has depth {depth}"
                        )
                if name in spec.signals:
                    raise ElaborationError(
                        f"{module_name}: duplicate signal {name!r}"
                    )
                spec.signals[name] = SignalInfo(name, width, depth, lsb=lsb)
                if prefix:
                    bindings[item.name] = ast.Ident(name)
            elif isinstance(item, ast.ContinuousAssign):
                spec.assigns.append(
                    ast.ContinuousAssign(
                        substitute(item.target, bindings),
                        substitute(item.value, bindings),
                        item.line,
                    )
                )
            elif isinstance(item, ast.ProcessBlock):
                spec.processes.append(
                    ast.ProcessBlock(
                        kind=item.kind,
                        body=_subst_stmts(item.body, bindings),
                        clock=item.clock,
                        line=item.line,
                    )
                )
            elif isinstance(item, ast.Instance):
                spec.instances.append(
                    self._elaborate_instance(item, spec, bindings, prefix)
                )
            elif isinstance(item, ast.GenerateFor):
                self._unroll_generate(item, spec, bindings, prefix, stack)
            elif isinstance(item, ast.GenerateIf):
                cond = self._eval(
                    substitute(item.cond, bindings), spec.env, module_name
                )
                branch = item.then_body if cond else item.else_body
                self._walk_items(branch, spec, dict(bindings), prefix, stack)
            else:
                raise ElaborationError(
                    f"{module_name}: unexpected item {type(item).__name__}"
                )

    def _unroll_generate(
        self,
        gen: ast.GenerateFor,
        spec: ElaboratedModule,
        bindings: dict[str, ast.Expr],
        prefix: str,
        stack: tuple[str, ...],
    ) -> None:
        module_name = spec.name
        value = self._eval(substitute(gen.start, bindings), spec.env, module_name)
        trips = 0
        label = gen.label or "gen"
        while True:
            loop_bindings = dict(bindings)
            loop_bindings[gen.var] = ast.Number(value)
            cond = self._eval(
                substitute(gen.cond, loop_bindings), spec.env, module_name
            )
            if not cond:
                break
            trips += 1
            if trips > MAX_UNROLL:
                raise ElaborationError(
                    f"{module_name}: generate loop {label!r} exceeds "
                    f"{MAX_UNROLL} iterations",
                    file=spec.module.source_name,
                    line=gen.line,
                    hint="check the loop bound expression and its parameter "
                         "bindings; runaway generate loops usually mean a "
                         "corrupted or mis-overridden parameter",
                )
            iter_prefix = f"{prefix}{label}_{value}__"
            self._walk_items(gen.body, spec, loop_bindings, iter_prefix, stack)
            value = self._eval(
                substitute(gen.step, loop_bindings), spec.env, module_name
            )

    def _elaborate_instance(
        self,
        inst: ast.Instance,
        spec: ElaboratedModule,
        bindings: dict[str, ast.Expr],
        prefix: str,
    ) -> ElaboratedInstance:
        module_name = spec.name
        try:
            child = self.design.module(inst.module_name)
        except KeyError as exc:
            raise ElaborationError(
                f"{module_name}: {exc}",
                file=spec.module.source_name,
                line=inst.line,
                hint="add the instantiated module's source file to the "
                     "component's file list",
            ) from None

        child_env = child_parameters(
            child,
            tuple(
                (pname, substitute(pexpr, bindings))
                for pname, pexpr in inst.param_overrides
            ),
            spec.env,
            module_name,
            self._eval,
        )

        # Resolve connections (positional by port order).
        connections: list[tuple[str, ast.Expr]] = []
        port_names = child.port_names
        positional = 0
        for cname, cexpr in inst.connections:
            expr = substitute(cexpr, bindings)
            if cname:
                if cname not in port_names:
                    raise ElaborationError(
                        f"{module_name}: {inst.module_name} has no port {cname!r}"
                    )
                connections.append((cname, expr))
            else:
                if positional >= len(port_names):
                    raise ElaborationError(
                        f"{module_name}: too many positional connections for "
                        f"{inst.module_name}"
                    )
                connections.append((port_names[positional], expr))
                positional += 1
        return ElaboratedInstance(
            module_name=inst.module_name,
            name=prefix + inst.name,
            parameters=child_env,
            connections=tuple(connections),
            line=inst.line,
        )


def child_parameters(
    child: ast.Module,
    overrides: tuple[tuple[str, ast.Expr], ...],
    env: Mapping[str, int],
    parent: str,
    evaluate: Callable[[ast.Expr, Mapping[str, int], str], int],
) -> dict[str, int]:
    """Every public parameter of ``child`` for one instantiation in ``parent``.

    ``overrides`` bind by name, or by declaration order when unnamed, and
    are evaluated in the parent's ``env``; the other parameters take
    their defaults, which may reference earlier child parameters.
    ``evaluate(expr, env, where)`` folds one expression.
    """
    params = child.params
    values: dict[str, int] = {}
    positional = 0
    for pname, pexpr in overrides:
        value = evaluate(pexpr, env, parent)
        if not pname:
            if positional >= len(params):
                raise ElaborationError(
                    f"{parent}: too many positional parameters for {child.name}"
                )
            pname = params[positional].name
            positional += 1
        values[pname] = value
    resolved: dict[str, int] = {}
    for p in params:
        resolved[p.name] = (
            values[p.name] if p.name in values
            else evaluate(p.default, resolved, child.name)
        )
    return resolved


def _iter_params(items: tuple[ast.Item, ...]):
    """Top-level ParamDecls (generate bodies cannot declare public params)."""
    for item in items:
        if isinstance(item, ast.ParamDecl):
            yield item


def _maybe_subst(
    expr: ast.Expr | None, bindings: Mapping[str, ast.Expr]
) -> ast.Expr | None:
    return None if expr is None else substitute(expr, bindings)


def _subst_stmts(
    stmts: tuple[ast.Stmt, ...], bindings: Mapping[str, ast.Expr]
) -> tuple[ast.Stmt, ...]:
    if not bindings:
        return stmts
    out: list[ast.Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            out.append(
                ast.Assign(
                    substitute(stmt.target, bindings),
                    substitute(stmt.value, bindings),
                    stmt.blocking,
                    stmt.line,
                )
            )
        elif isinstance(stmt, ast.If):
            out.append(
                ast.If(
                    substitute(stmt.cond, bindings),
                    _subst_stmts(stmt.then_body, bindings),
                    _subst_stmts(stmt.else_body, bindings),
                    stmt.line,
                )
            )
        elif isinstance(stmt, ast.Case):
            out.append(
                ast.Case(
                    substitute(stmt.subject, bindings),
                    tuple(
                        ast.CaseItem(
                            tuple(substitute(c, bindings) for c in item.choices),
                            _subst_stmts(item.body, bindings),
                        )
                        for item in stmt.items
                    ),
                    stmt.line,
                )
            )
        elif isinstance(stmt, ast.For):
            # The loop variable shadows any outer binding of the same name.
            inner = {k: v for k, v in bindings.items() if k != stmt.var}
            out.append(
                ast.For(
                    stmt.var,
                    substitute(stmt.start, bindings),
                    substitute(stmt.cond, inner),
                    substitute(stmt.step, inner),
                    _subst_stmts(stmt.body, inner),
                    stmt.line,
                )
            )
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")
    return tuple(out)
