"""The measurement engine: one long-lived object behind CLI and server.

:class:`Engine` holds the run-invariant execution environment --

* the content-addressed :class:`~repro.cache.SynthesisCache` (and its
  whole-component measurement memo),
* the :class:`~repro.exec.SupervisionPolicy` governing the worker pool,
* the pool width (``jobs``),

-- and exposes the pipeline entry points :meth:`measure_component` /
:meth:`measure_component_safe` / :meth:`measure_components` /
:meth:`measure_catalog` / :meth:`lint` / :meth:`fit_estimator`.  A
one-shot CLI run builds one engine; the ``ucomplexity serve`` daemon
builds one at startup and reuses it for every request, so both share
exactly one code path and stay byte-identical.

There is one measurement pipeline, the fault-tolerant one
(:meth:`measure_component_safe`, Section 2's parse -> software metrics ->
elaborate + accounting -> synthesize -> aggregate flow).  Strict,
raising measurement is that pipeline with ``strict=True``.

The engine itself holds no mutable pipeline state besides the estimator
fit cache: measurement results depend only on (sources, policy, flags),
which is what makes the instance safe to reuse across requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.accounting import (
    AccountingPolicy,
    aggregate_metrics,
    select_components,
)
from repro.core.workflow import (
    BatchMeasurement,
    ComponentMeasurement,
    ComponentSpec,
    SpecKey,
)
from repro.elab.degeneracy import minimal_parameters
from repro.elab.elaborator import elaborate
from repro.hdl import ast, parse_source
from repro.hdl.metrics import software_metrics
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import (
    Diagnostic,
    Result,
    Severity,
    render_report,
)
from repro.runtime.stages import STAGE_HINTS, StageBoundary
from repro.synth.lower import synthesize_module
from repro.synth.report import SynthesisReport, synthesis_metrics

if TYPE_CHECKING:
    from repro.cache import SynthesisCache
    from repro.core.estimator import DesignEffortEstimator
    from repro.data.dataset import EffortDataset
    from repro.exec import SupervisionPolicy, WorkerContext
    from repro.lint.engine import LintReport
    from repro.lint.rules import LintConfig


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


def synthesize_specialization(
    design: ast.Design,
    module: str,
    params: Mapping[str, int],
    label: str,
    strict: bool,
    cache: "SynthesisCache | None" = None,
    key: str | None = None,
) -> tuple[SynthesisReport | None, tuple[Diagnostic, ...]]:
    """Elaborate and synthesize one specialization under its own boundary.

    The unit of work of the specialization loop, inline or in a pool
    worker: the report (``None`` when it failed) plus the diagnostics the
    failure left.  ``strict`` raises the failure instead.  A report is
    stored in ``cache`` under ``key`` as soon as it exists, so a run
    killed later still leaves it for the next run to hit.
    """

    def _synth():
        sub = elaborate(design, module, params)
        return synthesis_metrics(synthesize_module(sub), sub, design)

    boundary = StageBoundary(component=label, strict=strict)
    report = boundary.run("synthesize", _synth)
    if report is not None and cache is not None:
        cache.store(key, report)
    return report, tuple(boundary.diagnostics)


def _flow_metrics(reports: Sequence[SynthesisReport]) -> dict[str, float]:
    """Component-level dataflow metrics from per-spec reports.

    Available only when *every* selected specialization carries a
    :class:`~repro.flow.metrics.FlowReport` -- a partial set (e.g. old
    cache entries, or quarantined specs replaced by netlist-only reports)
    would silently skew the reducers, so it yields nothing instead.
    """
    flows = [r.flow for r in reports]
    if not flows or any(f is None for f in flows):
        return {}
    from repro.flow.metrics import aggregate_flow

    return aggregate_flow([f for f in flows if f is not None])


class Engine:
    """Run-invariant measurement state plus the pipeline entry points.

    Args:
        cache: content-addressed synthesis cache (:mod:`repro.cache`);
            also provides the whole-component measurement memo probed
            before any work is dispatched.
        jobs: worker-pool width (1 = inline sequential execution).
        supervision: pool supervision policy (:mod:`repro.exec`);
            ``None`` uses the defaults.
    """

    def __init__(
        self,
        *,
        cache: "SynthesisCache | None" = None,
        jobs: int = 1,
        supervision: "SupervisionPolicy | None" = None,
    ) -> None:
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.supervision = supervision
        self._estimators: dict[tuple, "DesignEffortEstimator"] = {}

    # -- measurement -----------------------------------------------------------

    def measure_component(
        self,
        sources: Sequence[SourceFile],
        top: str,
        name: str | None = None,
        policy: AccountingPolicy = AccountingPolicy.recommended(),
    ) -> ComponentMeasurement:
        """Measure every Table 3 metric for one component (raising).

        The fault-tolerant pipeline in strict mode: the first failure
        raises instead of degrading the measurement.
        """
        return self.measure_component_safe(
            sources, top, name=name, policy=policy, strict=True
        ).unwrap()

    def measure_component_safe(
        self,
        sources: Sequence[SourceFile],
        top: str,
        name: str | None = None,
        policy: AccountingPolicy = AccountingPolicy.recommended(),
        strict: bool = False,
        lint: bool = False,
    ) -> Result[ComponentMeasurement]:
        """Measure one component with per-stage fault isolation.

        Failures do not propagate (unless ``strict``); they become
        structured diagnostics and the measurement degrades along a fixed
        ladder:

        * a source file that fails to **parse** is quarantined -- the
          remaining files still produce software metrics and, if the top
          is intact, a full synthesis measurement;
        * an **elaboration** failure keeps the software metrics (LoC/Stmts)
          as a partial result and skips synthesis;
        * a specialization that fails **synthesis lowering**, or whose pool
          task the supervisor quarantines, is left out -- the compounded
          index aggregates the remaining specializations.

        The returned :class:`Result` is ok (clean), degraded (value + ERROR
        diagnostics), or failed (no parseable input at all).  ``strict``
        raises the first failure instead, including a supervisor
        quarantine (as a ``RuntimeError`` carrying its report).  A corrupt
        cache entry degrades to a recompute plus a WARNING diagnostic.
        ``lint=True`` audits the parsed catalog against the ACC accounting
        rules first (:mod:`repro.lint`); violations become WARNING
        diagnostics.
        """
        label = name or top
        with obs_trace.span("measure.component_safe", component=label):
            return self._measure_component_safe(
                sources, top, label, policy, strict, lint
            )

    def _measure_component_safe(
        self,
        sources: Sequence[SourceFile],
        top: str,
        label: str,
        policy: AccountingPolicy,
        strict: bool,
        lint: bool = False,
    ) -> Result[ComponentMeasurement]:
        boundary = StageBoundary(component=label, strict=strict)

        parsed_sources: list[SourceFile] = []
        design = ast.Design()
        for source in sources:
            sub = boundary.run("parse", lambda s=source: parse_source(s))
            if sub is None:
                obs_metrics.counter("measure.quarantined_units").inc()
                continue
            merged = boundary.run("parse", lambda d=sub: design.merge(d))
            if merged is not None:
                design = merged
                parsed_sources.append(source)
        if not parsed_sources:
            boundary.note(
                "parse",
                f"{label}: no source file parsed successfully",
                Severity.FATAL,
                hint="every input file was quarantined; fix at least the file "
                     "defining the top module",
            )
            return Result(None, tuple(boundary.diagnostics))

        if lint:
            _lint_audit(design, label, boundary)

        metrics: dict[str, float] = dict(
            boundary.run(
                "measure",
                lambda: dict(software_metrics(parsed_sources, design)),
                default={},
            )
            or {}
        )

        partial = ComponentMeasurement(
            name=label, top=top, policy=policy, metrics=dict(metrics),
            specializations=[], reports={},
        )

        hierarchy = boundary.run("elaborate", lambda: elaborate(design, top))
        if hierarchy is None:
            return Result(partial, tuple(boundary.diagnostics))

        selected = boundary.run(
            "account",
            lambda: select_components(
                hierarchy.all_instances(),
                policy,
                minimal_parameters=lambda module: minimal_parameters(
                    design, module
                ),
            ),
        )
        if selected is None:
            return Result(partial, tuple(boundary.diagnostics))

        reports: dict[SpecKey, SynthesisReport] = {}
        source_texts = tuple(s.text for s in parsed_sources)
        to_compute, cache_keys, corrupt = _probe_cache(
            self.cache, source_texts, _unique_specs(selected), reports
        )
        for detail in corrupt:
            boundary.note(
                "cache",
                f"corrupt cache entry degraded to a recompute ({detail})",
                Severity.WARNING,
                hint=STAGE_HINTS["cache"],
            )

        # Compute each distinct cache-missed specialization once, capturing
        # its failure diagnostics on a scratch boundary so they can be
        # replayed at every occurrence below (matching the sequential
        # recompute-per-occurrence behavior exactly).
        failed: dict[SpecKey, tuple[Diagnostic, ...]] = {}
        if self.jobs > 1 and len(to_compute) > 1:
            from repro.exec.pool import run_pool

            work = tuple((m, p) for _, m, p in to_compute)
            outcomes = run_pool(
                _synthesize_step,
                {"design": design, "work": work, "label": label,
                 "strict": strict, "cache": self.cache,
                 "keys": tuple(cache_keys.get(k) for k, _, _ in to_compute)},
                [f"{label}:{m}" for m, _ in work],
                kind="s", jobs=self.jobs, supervision=self.supervision,
            )
            for (key, _m, _p), outcome in zip(to_compute, outcomes):
                if outcome.error is not None:
                    boundary.diagnostics.extend(outcome.diagnostics)
                    raise outcome.error  # strict mode: fail fast, as inline does
                if outcome.value is not None:
                    reports[key] = outcome.value
                    # Surface execution-layer advisories (pool fallback
                    # notes) without disturbing the task's own clean
                    # diagnostics.
                    boundary.diagnostics.extend(
                        d for d in outcome.diagnostics if d.stage == "exec"
                    )
                elif strict:
                    # Supervisor quarantine: no exception object to re-raise.
                    raise RuntimeError(
                        "task quarantined by the supervisor:\n"
                        + render_report(list(outcome.diagnostics))
                    )
                else:
                    failed[key] = outcome.diagnostics
        else:
            for key, module_name, params in to_compute:
                report, diagnostics = synthesize_specialization(
                    design, module_name, params, label, strict,
                    self.cache, cache_keys.get(key),
                )
                if report is None:
                    failed[key] = diagnostics
                else:
                    reports[key] = report

        per_spec: list[SynthesisReport] = []
        quarantined: list[tuple[str, Mapping[str, int]]] = []
        measured: list[tuple[str, Mapping[str, int]]] = []
        for module_name, params in selected:
            key = (module_name, tuple(sorted(params.items())))
            if key in reports:
                per_spec.append(reports[key])
                measured.append((module_name, params))
            else:
                boundary.diagnostics.extend(failed[key])
                obs_metrics.counter("measure.quarantined_units").inc()
                quarantined.append((module_name, params))

        if per_spec:
            metrics.update(aggregate_metrics([r.metrics() for r in per_spec]))
            metrics.update(_flow_metrics(per_spec))
            if quarantined:
                skipped = ", ".join(m for m, _ in quarantined)
                boundary.note(
                    "synthesize",
                    f"{label}: compounded index excludes quarantined "
                    f"specialization(s): {skipped}",
                    Severity.WARNING,
                )
        else:
            boundary.note(
                "synthesize",
                f"{label}: no specialization synthesized; only software "
                "metrics are available",
                Severity.ERROR,
            )

        measurement = ComponentMeasurement(
            name=label, top=top, policy=policy, metrics=metrics,
            specializations=measured, reports=reports,
        )
        return Result(measurement, tuple(boundary.diagnostics))

    # -- batches --------------------------------------------------------------

    def measure_components(
        self,
        specs: Sequence[ComponentSpec],
        strict: bool = False,
        lint: bool = False,
        pool: bool | None = None,
    ) -> BatchMeasurement:
        """Measure a batch of components, isolating faults per component.

        A faulty component never aborts the batch: its failure is captured
        as diagnostics in ``results[name]`` and the rest are measured
        normally.  ``strict=True`` restores fail-fast behavior.

        The whole-component measurement memo is probed here, in the
        parent, so a warm component is served straight from the cache
        and a fully warm batch never dispatches a task.  Each pristine
        fresh measurement is stored the moment it is computed, inline or
        in its pool worker, so the memo is also the resume log: re-running
        an interrupted batch on the same cache measures only what is
        missing.  ``pool`` selects how the
        misses run: ``None`` (the CLI default) uses the supervised pool
        only when it pays (``jobs > 1`` and more than one spec); ``True``
        forces the pool even for a single component (the serve daemon
        wants worker isolation for all untrusted input); ``False`` forces
        the inline sequential path.  All three produce byte-identical
        results, in ``specs`` order.  Results are keyed by component
        name, so a name repeated in ``specs`` raises ``ValueError``.
        """
        seen: set[str] = set()
        for spec in specs:
            if spec.name in seen:
                raise ValueError(
                    f"component name {spec.name!r} appears more than once "
                    "in one batch; batch results are keyed by name"
                )
            seen.add(spec.name)
        use_pool = (
            self.jobs > 1 and len(specs) > 1 if pool is None else pool
        )
        results: dict[str, Result[ComponentMeasurement]] = {}
        misses: list[tuple[ComponentSpec, str | None]] = []
        for spec in specs:
            key = None
            if self.cache is not None:
                key = self.cache.measurement_key(spec, strict, lint)
                hit = self.cache.load_measurement(key)
                if hit is not None:
                    results[spec.name] = hit
                    continue
            misses.append((spec, key))
        if use_pool and misses:
            results.update(self._measure_in_pool(misses, strict, lint))
        else:
            for spec, key in misses:
                results[spec.name] = self._measure_and_store(
                    spec, key, strict, lint
                )
        return BatchMeasurement(
            results={s.name: results[s.name] for s in specs if s.name in results}
        )

    def _measure_and_store(
        self,
        spec: ComponentSpec,
        key: str | None,
        strict: bool,
        lint: bool,
    ) -> Result[ComponentMeasurement]:
        """Measure one batch spec and memoize it under ``key`` at once.

        The one store site of the memo, run inline or in a pool worker;
        ``store_measurement`` refuses degraded results.
        """
        result = self.measure_component_safe(
            spec.sources, spec.top, name=spec.name,
            policy=spec.policy, strict=strict, lint=lint,
        )
        if key is not None:
            self.cache.store_measurement(key, result)
        return result

    def _measure_in_pool(
        self,
        misses: Sequence[tuple[ComponentSpec, str | None]],
        strict: bool,
        lint: bool,
    ) -> dict[str, Result[ComponentMeasurement]]:
        """The pool path of :meth:`measure_components`: one task per spec.

        ``misses`` pairs each spec with its memo key (``None`` without a
        cache); workers store through ``self.cache``.  A spec whose task
        the supervisor quarantines (it kept hanging, crashing, or
        exhausting its worker) comes back as a failed ``Result`` carrying
        the stage-``"exec"`` diagnostic.  Only strict mode lets an
        exception out of a worker; the first in batch order is re-raised,
        matching sequential fail-fast.
        """
        from repro.exec.pool import run_pool

        specs = tuple(spec for spec, _ in misses)
        with obs_trace.span(
            "measure.batch", components=len(specs), jobs=self.jobs
        ):
            outcomes = run_pool(
                _measure_step,
                {"specs": specs, "keys": tuple(key for _, key in misses),
                 "strict": strict, "lint": lint, "cache": self.cache},
                [spec.name for spec in specs],
                kind="b", jobs=self.jobs, supervision=self.supervision,
            )
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return {
            spec.name: (
                outcome.value if outcome.value is not None
                else Result(None, outcome.diagnostics)
            )
            for spec, outcome in zip(specs, outcomes)
        }

    def measure_catalog(
        self,
        policy: AccountingPolicy = AccountingPolicy.recommended(),
        designs: tuple[str, ...] | None = None,
    ) -> dict[str, ComponentMeasurement]:
        """Measure every bundled design component under one policy.

        Returns component label -> measurement, in catalog order.  The
        bundled RTL is trusted, so a failure raises (strict mode) rather
        than quarantining.
        """
        from repro.designs.catalog import component_specs
        from repro.designs.loader import load_sources

        selected = [
            spec
            for spec in component_specs()
            if designs is None or spec.design in designs
        ]
        batch = self.measure_components(
            [
                ComponentSpec(
                    name=spec.label,
                    sources=tuple(load_sources(spec)),
                    top=spec.top,
                    policy=policy,
                )
                for spec in selected
            ],
            strict=True,
        )
        return {
            spec.label: batch.results[spec.label].unwrap() for spec in selected
        }

    # -- lint ------------------------------------------------------------------

    def lint(
        self,
        sources: Sequence[SourceFile],
        config: "LintConfig | None" = None,
    ) -> "LintReport":
        """Audit HDL sources against the accounting/hygiene rules."""
        from repro.lint import lint_sources

        return lint_sources(
            list(sources), config, jobs=self.jobs,
            supervision=self.supervision, cache=self.cache,
        )

    # -- estimator fits --------------------------------------------------------

    def fit_estimator(
        self,
        dataset: "EffortDataset",
        metric_names: Sequence[str],
        *,
        productivity: bool = True,
        robust: bool = True,
        dataset_key: str | None = None,
    ) -> "DesignEffortEstimator":
        """Fit (or reuse) an effort estimator for ``metric_names``.

        Fits are deterministic in (dataset, metric set, flags), so a
        long-lived engine memoizes them: the serve daemon fits the paper
        dataset once and answers every subsequent ``/estimate`` from the
        cached model.  ``dataset_key`` names the dataset's content (e.g.
        ``"paper"`` or a CSV digest); without one the cache keys on object
        identity, which is correct for a dataset held alive by the caller.
        """
        from repro.core.estimator import DesignEffortEstimator

        key = (
            dataset_key if dataset_key is not None else ("id", id(dataset)),
            tuple(metric_names),
            bool(productivity),
            bool(robust),
        )
        est = self._estimators.get(key)
        if est is None:
            est = DesignEffortEstimator.fit(
                dataset,
                list(metric_names),
                productivity_adjustment=productivity,
                robust=robust,
            )
            self._estimators[key] = est
        return est

    def stats(self) -> dict[str, Any]:
        """Introspection for health endpoints: the engine's configuration."""
        return {
            "jobs": self.jobs,
            "cache": None if self.cache is None else str(self.cache.directory),
            "cached_fits": len(self._estimators),
        }


# -- pool steps (module-level: they travel to workers by reference) ----------


def _measure_step(
    inputs: "WorkerContext", index: int
) -> tuple[Result[ComponentMeasurement], tuple[()]]:
    """Worker side of :meth:`Engine._measure_in_pool`: measure spec ``index``."""
    result = Engine(cache=inputs["cache"])._measure_and_store(
        inputs["specs"][index], inputs["keys"][index],
        inputs["strict"], inputs["lint"],
    )
    return result, ()


def _synthesize_step(
    inputs: "WorkerContext", index: int
) -> tuple[SynthesisReport | None, tuple[Diagnostic, ...]]:
    """Worker side of the specialization sweep: synthesize item ``index``."""
    module, params = inputs["work"][index]
    return synthesize_specialization(
        inputs["design"], module, params, inputs["label"], inputs["strict"],
        inputs["cache"], inputs["keys"][index],
    )
