"""End-to-end component measurement: RTL in, Table 3 metric vector out.

This is the uComplexity measurement flow of Section 2:

1. parse the component's HDL sources;
2. measure the software metrics (LoC, Stmts) on the source text;
3. elaborate the hierarchy and apply the **accounting procedure** -- count
   each sub-component once, at minimal non-degenerate parameters (or, with
   the policy disabled, every instance at instantiated parameters, which is
   the Figure 6 ablation);
4. synthesize each selected specialization (own logic only; children are
   black boxes measured separately) through both the ASIC and FPGA flows;
5. aggregate the per-specialization synthesis metrics into the component's
   compounded index.

The pipeline bodies live on :class:`repro.core.engine.Engine` (one
long-lived object holding the cache, pool width, supervision policy, and
journal); the functions here are thin per-call wrappers so existing
callers -- and the CLI -- keep their signatures while the serve daemon
reuses a single engine across requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.accounting import AccountingPolicy
from repro.hdl import ast, parse_source
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Result, Severity, render_report
from repro.runtime.stages import StageBoundary
from repro.synth.report import SynthesisReport

if TYPE_CHECKING:
    from repro.cache import SynthesisCache
    from repro.exec import RunJournal, SupervisionPolicy

#: A specialization's dict key: (module name, sorted parameter items).
SpecKey = tuple


@dataclass
class ComponentMeasurement:
    """All metrics for one component, plus per-specialization detail."""

    name: str
    top: str
    policy: AccountingPolicy
    metrics: dict[str, float]
    specializations: list[tuple[str, Mapping[str, int]]]
    reports: dict[tuple, SynthesisReport] = field(default_factory=dict)


def parse_component(sources: list[SourceFile]) -> ast.Design:
    """Parse and merge a component's source files into one design."""
    with obs_trace.span("parse.component", files=len(sources)):
        design = ast.Design()
        for source in sources:
            design = design.merge(parse_source(source))
        return design


def _probe_cache(
    cache: "SynthesisCache | None",
    source_texts: tuple[str, ...],
    keys: Sequence[tuple[SpecKey, str, Mapping[str, int]]],
    reports: dict[SpecKey, SynthesisReport],
) -> tuple[list[tuple[SpecKey, str, Mapping[str, int]]], dict[SpecKey, str], list[str]]:
    """Probe the cache for each unique specialization.

    Fills ``reports`` with hits; returns the misses (in order), the
    spec-key -> cache-key mapping for later stores, and the details of any
    corrupt entries encountered (already evicted and counted -- the caller
    decides whether to surface them as WARNING diagnostics).
    """
    to_compute: list[tuple[SpecKey, str, Mapping[str, int]]] = []
    cache_keys: dict[SpecKey, str] = {}
    corrupt: list[str] = []
    for key, module_name, params in keys:
        if cache is None:
            to_compute.append((key, module_name, params))
            continue
        ckey = cache.key(source_texts, module_name, params)
        cache_keys[key] = ckey
        lookup = cache.load(ckey)
        if lookup.hit:
            reports[key] = lookup.value
        else:
            if lookup.corrupt:
                corrupt.append(lookup.detail)
            to_compute.append((key, module_name, params))
    return to_compute, cache_keys, corrupt


def _unique_specs(
    selected: Sequence[tuple[str, Mapping[str, int]]],
) -> list[tuple[SpecKey, str, Mapping[str, int]]]:
    """The distinct specializations of ``selected``, first-seen order."""
    seen: set[SpecKey] = set()
    unique: list[tuple[SpecKey, str, Mapping[str, int]]] = []
    for module_name, params in selected:
        key = (module_name, tuple(sorted(params.items())))
        if key not in seen:
            seen.add(key)
            unique.append((key, module_name, params))
    return unique


def measure_component(
    sources: list[SourceFile],
    top: str,
    name: str | None = None,
    policy: AccountingPolicy = AccountingPolicy.recommended(),
    design: ast.Design | None = None,
    cache: "SynthesisCache | None" = None,
    jobs: int = 1,
    supervision: "SupervisionPolicy | None" = None,
    journal: "RunJournal | str | None" = None,
) -> ComponentMeasurement:
    """Measure every Table 3 metric for one component.

    Thin wrapper over :meth:`repro.core.engine.Engine.measure_component`;
    long-lived callers (the serve daemon, batch drivers) should construct
    one :class:`~repro.core.engine.Engine` and reuse it instead.

    Args:
        sources: the component's HDL files.
        top: top module/entity name.
        name: display name (defaults to ``top``).
        policy: the accounting procedure configuration.
        design: pre-parsed design (parsed from ``sources`` when omitted).
        cache: content-addressed synthesis cache (:mod:`repro.cache`);
            hits skip the elaborate+synthesize work for a specialization.
        jobs: process-pool width for the specialization loop (1 = inline).
        supervision: pool supervision policy (:mod:`repro.exec`); ``None``
            uses the defaults.
        journal: crash-safe run journal (path or
            :class:`~repro.exec.RunJournal`) for ``jobs > 1`` resume.
    """
    from repro.core.engine import Engine

    return Engine(
        cache=cache, jobs=jobs, supervision=supervision, journal=journal,
    ).measure_component(sources, top, name=name, policy=policy, design=design)


# -- fault-tolerant entry points ------------------------------------------


@dataclass(frozen=True)
class ComponentSpec:
    """One batch entry: a named component and its sources/top/policy."""

    name: str
    sources: tuple[SourceFile, ...]
    top: str
    policy: AccountingPolicy = AccountingPolicy.recommended()

    @classmethod
    def single(cls, name: str, source: SourceFile, *,
               top: str | None = None,
               policy: AccountingPolicy | None = None) -> "ComponentSpec":
        """Spec for a single-file component (top defaults to ``name``)."""
        return cls(
            name=name,
            sources=(source,),
            top=name if top is None else top,
            policy=AccountingPolicy.recommended() if policy is None
            else policy,
        )


def catalog_specs(
    directory: str | Path,
    policy: AccountingPolicy | None = None,
    limit: int | None = None,
) -> list[ComponentSpec]:
    """Batch specs for every module of a generated catalog directory.

    Reads the ``manifest.json`` written by ``ucomplexity gen`` (or
    :func:`repro.gen.generate_corpus` callers) and resolves each module's
    source files relative to ``directory``.  The result feeds straight
    into :func:`measure_components`, which is how ``ucomplexity measure
    --catalog DIR`` (and the profiling walkthrough in the README) turns a
    synthetic corpus into a realistic parallel workload.

    Raises ``ValueError`` for a missing/unreadable manifest or a module
    whose listed files are absent -- a catalog is generated data, so any
    mismatch means the directory is stale, not a measurement problem.
    """
    import json

    root = Path(directory)
    manifest_path = root / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(
            f"cannot read catalog manifest {manifest_path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid catalog manifest {manifest_path}: {exc}"
        ) from exc
    modules = manifest.get("modules")
    if not isinstance(modules, dict) or not modules:
        raise ValueError(f"catalog manifest {manifest_path} lists no modules")
    policy = AccountingPolicy.recommended() if policy is None else policy
    specs: list[ComponentSpec] = []
    for name in sorted(modules):
        entry = modules[name]
        files = entry.get("files") or []
        if not files:
            raise ValueError(f"catalog module {name!r} lists no files")
        try:
            sources = tuple(
                SourceFile.from_path(root / fname) for fname in files
            )
        except OSError as exc:
            raise ValueError(
                f"catalog module {name!r}: missing source file: {exc}"
            ) from exc
        specs.append(
            ComponentSpec(
                name=name,
                sources=sources,
                top=str(entry.get("top", name)),
                policy=policy,
            )
        )
        if limit is not None and len(specs) >= limit:
            break
    return specs


def _lint_audit(design: ast.Design, label: str, boundary: StageBoundary) -> None:
    """Audit the parsed catalog against the ACC accounting rules.

    Violations surface as WARNING diagnostics (advisory: the measurement
    still runs, and the batch exit code is unchanged) and bump the
    ``lint.violations`` counter.  Lint-internal errors (e.g. a module the
    linter cannot elaborate) are dropped here -- the measurement's own
    elaborate stage reports anything that actually blocks measuring.
    """
    from dataclasses import replace as _replace

    from repro.lint import ACC_RULES, LintConfig, lint_design

    report = boundary.run(
        "lint", lambda: lint_design(design, LintConfig().with_rules(ACC_RULES))
    )
    if report is None:
        return
    obs_metrics.counter("lint.violations").inc(len(report.findings))
    for finding in report.findings:
        diag = finding.to_diagnostic()
        boundary.diagnostics.append(
            _replace(
                diag,
                severity=Severity.WARNING,
                component=label,
                message=f"{label}: accounting audit: {diag.message}",
            )
        )


def measure_component_safe(
    sources: Sequence[SourceFile],
    top: str,
    name: str | None = None,
    policy: AccountingPolicy = AccountingPolicy.recommended(),
    strict: bool = False,
    cache: "SynthesisCache | None" = None,
    jobs: int = 1,
    lint: bool = False,
    supervision: "SupervisionPolicy | None" = None,
    journal: "RunJournal | str | None" = None,
) -> Result[ComponentMeasurement]:
    """Measure one component with per-stage fault isolation.

    Unlike :func:`measure_component`, failures do not propagate (unless
    ``strict``); they become structured diagnostics and the measurement
    degrades along a fixed ladder:

    * a source file that fails to **parse** is quarantined -- the remaining
      files still produce software metrics and, if the top is intact, a
      full synthesis measurement;
    * an **elaboration** failure keeps the software metrics (LoC/Stmts) as
      a partial result and skips synthesis;
    * a specialization that fails **synthesis lowering** is quarantined --
      the compounded index aggregates the remaining specializations.

    The returned :class:`Result` is ok (clean), degraded (value + ERROR
    diagnostics), or failed (no parseable input at all).

    ``cache`` memoizes per-specialization synthesis products; a corrupt
    cache entry degrades to a recompute plus a WARNING diagnostic.
    ``jobs > 1`` fans the specialization loop out over a process pool.
    ``lint=True`` audits the parsed catalog against the ACC accounting
    rules first (:mod:`repro.lint`); violations become WARNING diagnostics.
    ``supervision``/``journal`` configure the supervised pool for
    ``jobs > 1`` (deadlines, retry, quarantine, crash-safe resume -- see
    :mod:`repro.exec`).

    Thin wrapper over
    :meth:`repro.core.engine.Engine.measure_component_safe`.
    """
    from repro.core.engine import Engine

    return Engine(
        cache=cache, jobs=jobs, supervision=supervision, journal=journal,
    ).measure_component_safe(
        sources, top, name=name, policy=policy, strict=strict, lint=lint,
    )


@dataclass
class BatchMeasurement:
    """Partial results plus per-component failure reports for one batch."""

    results: dict[str, Result[ComponentMeasurement]]

    @property
    def measurements(self) -> dict[str, ComponentMeasurement]:
        """Every component that produced a (possibly degraded) measurement."""
        return {
            name: res.value
            for name, res in self.results.items()
            if res.value is not None
        }

    @property
    def failures(self) -> dict[str, tuple[Diagnostic, ...]]:
        """Components with no usable measurement at all."""
        return {
            name: res.diagnostics
            for name, res in self.results.items()
            if res.failed
        }

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        out: list[Diagnostic] = []
        for res in self.results.values():
            out.extend(res.diagnostics)
        return tuple(out)

    @property
    def ok(self) -> bool:
        return all(res.ok for res in self.results.values())

    @property
    def degraded(self) -> bool:
        return not self.ok and bool(self.measurements)

    def report(self) -> str:
        return render_report(self.diagnostics)


def measure_components(
    specs: Sequence[ComponentSpec],
    strict: bool = False,
    jobs: int = 1,
    cache: "SynthesisCache | None" = None,
    lint: bool = False,
    supervision: "SupervisionPolicy | None" = None,
    journal: "RunJournal | str | None" = None,
) -> BatchMeasurement:
    """Measure a batch of components, isolating faults per component.

    A faulty component never aborts the batch: its failure is captured as
    diagnostics in ``results[name]`` and the remaining components are
    measured normally.  ``strict=True`` restores fail-fast behavior.

    ``jobs > 1`` measures components across a process pool
    (:mod:`repro.parallel`) with identical results and diagnostics;
    ``cache`` memoizes synthesis products on disk (:mod:`repro.cache`) so
    reruns over unchanged RTL skip the synthesize stage.  ``lint=True``
    runs the ACC accounting audit on each component's parsed catalog
    before measuring (WARNING diagnostics; never changes the exit code).
    ``supervision`` configures the supervised pool (:mod:`repro.exec`:
    deadlines, retries, quarantine) and ``journal`` makes the parallel
    run crash-safe resumable.

    Thin wrapper over
    :meth:`repro.core.engine.Engine.measure_components`.
    """
    from repro.core.engine import Engine

    return Engine(
        cache=cache, jobs=jobs, supervision=supervision, journal=journal,
    ).measure_components(specs, strict=strict, lint=lint)
