"""Lint engine: run the rule catalog over sources, designs, and catalogs.

Layering (bottom up):

* :func:`lint_module` -- all module-scope rules over one module of a
  design, plus its :func:`~repro.lint.hashing.structural_hash`; returns a
  picklable :class:`ModuleLintResult` (what the lint memo stores).
* :func:`lint_design` -- every module of an already-parsed design, in
  order and inline (a whole run costs about what one pool dispatch
  does), then the catalog-scope duplicate check (ACC001) over the collected
  hashes.  Severity overrides and baseline suppressions from the
  :class:`~repro.lint.config.LintConfig` are applied here.
* :func:`lint_sources` -- probe the whole-run lint memo, and on a miss
  parse + merge source files (parse failures become ERROR diagnostics,
  not exceptions) and lint every module as :func:`lint_design` does.

A memo hit needs only the rule catalog (:mod:`repro.lint.catalog`); the
parsers, the elaborator, the dataflow graph and the rule checks load in
:func:`lint_module` and on the miss path of :func:`lint_sources`.

The returned :class:`LintReport` carries the exit-code contract the CLI
honors: 0 clean, 1 findings, 2 errors (the linter itself could not audit
something -- parse failure, duplicate definitions, elaboration failure).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.hdl.source import HdlError, SourceFile
from repro.lint.catalog import (
    DEEP_RULES,
    RULES,
    HashedModule,
    LintFinding,
    check_duplicates,
)
from repro.lint.config import LintConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Severity, SourceSpan

if TYPE_CHECKING:
    from repro.cache import SynthesisCache
    from repro.flow.dfg import DataflowGraph
    from repro.hdl import ast


@dataclass(frozen=True)
class ModuleLintResult:
    """One module's lint outcome (picklable; the lint memo stores them)."""

    module: str
    file: str
    hash: str  # empty when ACC001 is disabled
    findings: tuple[LintFinding, ...] = ()
    errors: tuple[Diagnostic, ...] = ()


@dataclass(frozen=True)
class LintReport:
    """The audit verdict for one lint run."""

    findings: tuple[LintFinding, ...] = ()
    suppressed: tuple[LintFinding, ...] = ()
    errors: tuple[Diagnostic, ...] = ()
    modules: int = 0
    files: int = 0

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 errors (audit itself failed somewhere)."""
        if self.errors:
            return 2
        if self.findings:
            return 1
        return 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(f.to_diagnostic() for f in self.findings) + self.errors

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def summary(self) -> str:
        if self.clean and not self.suppressed:
            return (
                f"clean: {self.modules} module(s) in {self.files} file(s), "
                "no accounting violations"
            )
        head = f"{len(self.findings)} finding(s)"
        by_rule = self.counts_by_rule()
        if by_rule:
            head += (
                " ("
                + ", ".join(f"{k}: {v}" for k, v in sorted(by_rule.items()))
                + ")"
            )
        parts = [head]
        if self.suppressed:
            parts.append(f"{len(self.suppressed)} suppressed")
        if self.errors:
            parts.append(f"{len(self.errors)} error(s)")
        parts.append(f"across {self.modules} module(s) in {self.files} file(s)")
        return ", ".join(parts)


def lint_module(
    design: ast.Design, module_name: str, config: LintConfig
) -> ModuleLintResult:
    """Run all enabled module-scope rules over one module.

    Elaboration failures do not abort the audit: AST-only rules (ACC002,
    ACC003) still run, and the failure itself is reported as an ERROR --
    a module the linter cannot elaborate cannot be certified compliant.
    """
    from repro.elab.elaborator import ElaboratedModule, elaborate
    from repro.flow.dfg import build_dfg
    from repro.lint.hashing import structural_hash
    from repro.lint.rules import CHECKS, ModuleContext

    module = design.modules[module_name]
    errors: list[Diagnostic] = []
    spec: ElaboratedModule | None = None
    with obs_trace.span("lint.module", module=module_name):
        try:
            spec = elaborate(design, module_name).top
        except HdlError as exc:
            errors.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    stage="lint",
                    message=f"cannot elaborate {module_name!r}: {exc}",
                    span=SourceSpan(module.source_name, exc.line or 0)
                    if module.source_name else None,
                    component=module_name,
                    hint="the linter certifies only elaborable modules; fix "
                         "the elaboration error first",
                )
            )
        # One DFG build serves every deep rule.  A build failure skips
        # the deep rules with a single diagnostic instead of crashing
        # each rule in turn.
        dfg: DataflowGraph | None = None
        skip: set[str] = set()
        if spec is not None and any(
            config.enabled(code) for code in DEEP_RULES
        ):
            try:
                dfg = build_dfg(spec, design)
            except Exception as exc:  # noqa: BLE001 -- degrade, don't crash
                skip = set(DEEP_RULES)
                errors.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        stage="lint",
                        message=f"dataflow graph of {module_name!r} failed: "
                                f"{type(exc).__name__}: {exc}",
                        component=module_name,
                        hint="the deep rules (W003/W005/W006/W007) were "
                             "skipped for this module",
                    )
                )
        ctx = ModuleContext(
            design=design, module=module, spec=spec, dfg=dfg
        )
        findings: list[LintFinding] = []
        for code, check in CHECKS.items():
            if not config.enabled(code) or code in skip:
                continue
            try:
                findings.extend(check(ctx))
            except Exception as exc:  # noqa: BLE001 -- a broken rule is a
                # lint bug, not a design bug; degrade to an error finding.
                errors.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        stage="lint",
                        message=f"rule {code} crashed on {module_name!r}: "
                                f"{type(exc).__name__}: {exc}",
                        component=module_name,
                    )
                )
        digest = ""
        if config.enabled("ACC001"):
            digest = structural_hash(module, design)
    return ModuleLintResult(
        module=module_name,
        file=module.source_name,
        hash=digest,
        findings=tuple(findings),
        errors=tuple(errors),
    )


def _assemble(
    results: Sequence[ModuleLintResult],
    extra_errors: Sequence[Diagnostic],
    config: LintConfig,
    files: int,
) -> LintReport:
    """Catalog-scope rules + severity overrides + baseline suppression."""
    raw: list[LintFinding] = []
    errors: list[Diagnostic] = list(extra_errors)
    for r in results:
        raw.extend(r.findings)
        errors.extend(r.errors)
    if config.enabled("ACC001"):
        hashed = [
            HashedModule(r.module, r.file, r.hash) for r in results if r.hash
        ]
        raw.extend(check_duplicates(hashed))

    active: list[LintFinding] = []
    suppressed: list[LintFinding] = []
    for finding in raw:
        finding = replace(
            finding,
            severity=config.severity_for(finding.rule, finding.severity),
        )
        (suppressed if config.suppressed(finding) else active).append(finding)
    active.sort(key=lambda f: (f.file, f.line, f.rule, f.module, f.message))

    for finding in active:
        obs_metrics.counter(f"lint.rule.{finding.rule}").inc()
    obs_metrics.counter("lint.findings").inc(len(active))
    obs_metrics.counter("lint.suppressed").inc(len(suppressed))
    obs_metrics.counter("lint.errors").inc(len(errors))
    obs_metrics.counter("lint.modules").inc(len(results))
    return LintReport(
        findings=tuple(active),
        suppressed=tuple(suppressed),
        errors=tuple(errors),
        modules=len(results),
        files=files,
    )


def lint_design(
    design: ast.Design,
    config: LintConfig | None = None,
) -> LintReport:
    """Audit an already-parsed design (all modules + catalog rules)."""
    config = config or LintConfig()
    return _assemble(_lint_modules(design, config), (), config, 0)


def _lint_modules(
    design: ast.Design, config: LintConfig
) -> list[ModuleLintResult]:
    """:func:`lint_module` over every module of ``design``, in order."""
    names = list(design.modules)
    with obs_trace.span("lint.design", modules=len(names)):
        return [lint_module(design, n, config) for n in names]


def lint_sources(
    sources: Sequence[SourceFile],
    config: LintConfig | None = None,
    cache: SynthesisCache | None = None,
) -> LintReport:
    """Parse + merge ``sources``, then audit the resulting catalog.

    A file that fails to parse (or redefines a module) is quarantined as an
    ERROR diagnostic; the remaining files are still audited, mirroring the
    measurement pipeline's graceful degradation.

    With a ``cache`` the whole run is one memo entry, keyed on the source
    names and texts and the enabled-rule set and probed before anything
    is parsed: a hit re-runs only the catalog-scope assembly (ACC001,
    severity overrides, baseline suppression -- none of them in the key).
    Only a run without any error is stored.
    """
    config = config or LintConfig()
    with obs_trace.span("lint.run", files=len(sources)) as run:
        key = ""
        if cache is not None:
            key = cache.lint_key(
                sources, [code for code in RULES if config.enabled(code)]
            )
            hit = cache.load_lint(key)
            run.set_attr("memo", "miss" if hit is None else "hit")
            if hit is not None:
                return _assemble(hit, (), config, len(sources))
        from repro.hdl import ast, parse_source

        design = ast.Design()
        errors: list[Diagnostic] = []
        for source in sources:
            try:
                parsed = parse_source(source)
            except (HdlError, ValueError) as exc:
                # Besides syntax errors: an unknown language, or a module
                # defined twice within one file.
                diag = Diagnostic.from_exception(exc, "parse")
                errors.append(replace(diag, span=diag.span or SourceSpan(source.name)))
                continue
            try:
                design = design.merge(parsed)
            except ValueError as exc:  # duplicate module definition
                errors.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        stage="lint",
                        message=f"{source.name}: {exc}",
                        span=SourceSpan(source.name, 0),
                        hint="the same module name is defined twice in the "
                             "linted file set; lint each variant separately "
                             "or rename one",
                    )
                )
        results = _lint_modules(design, config)
        if cache is not None and not errors:
            # The namespace refuses a tuple holding any module error.
            cache.store_lint(key, tuple(results))
        return _assemble(results, errors, config, len(sources))
