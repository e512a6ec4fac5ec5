"""The measurement engine: one long-lived object behind CLI and server.

Historically :mod:`repro.core.workflow` exposed per-call pipeline
functions; every invocation re-derived its execution environment (cache,
supervision policy, pool width, journal) from its argument list.  That is
fine for a one-shot CLI run but wrong for a long-running process, where
the environment is fixed at startup and thousands of calls share it.

:class:`Engine` is that split: construct it once with the run-invariant
state --

* the content-addressed :class:`~repro.cache.SynthesisCache` (and its
  whole-component measurement memo),
* the :class:`~repro.exec.SupervisionPolicy` governing the worker pool,
* the pool width (``jobs``) and optional crash-safe journal,

-- then call :meth:`measure_component` / :meth:`measure_components` /
:meth:`measure_catalog` / :meth:`lint` / :meth:`fit_estimator` as often
as needed.  The free functions in :mod:`repro.core.workflow` (and
:func:`repro.designs.loader.measure_catalog`) are now thin wrappers that
build a throwaway ``Engine`` per call, so the CLI and the ``ucomplexity
serve`` daemon share exactly one code path and stay byte-identical.

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
    _lint_audit,
    _probe_cache,
    _unique_specs,
    parse_component,
)
from repro.elab.degeneracy import minimal_parameters
from repro.elab.elaborator import elaborate
from repro.hdl import ast, parse_source
from repro.hdl.metrics import software_metrics
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Result, Severity
from repro.runtime.stages import STAGE_HINTS, StageBoundary
from repro.synth.lower import synthesize_module
from repro.synth.report import SynthesisReport, synthesis_metrics

if TYPE_CHECKING:
    from repro.cache import SynthesisCache
    from repro.core.estimator import DesignEffortEstimator
    from repro.data.dataset import EffortDataset
    from repro.exec import RunJournal, SupervisionPolicy
    from repro.lint.engine import LintReport
    from repro.lint.rules import LintConfig


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
        journal: crash-safe run journal (path or
            :class:`~repro.exec.RunJournal`) for pool-run resume.
    """

    def __init__(
        self,
        *,
        cache: "SynthesisCache | None" = None,
        jobs: int = 1,
        supervision: "SupervisionPolicy | None" = None,
        journal: "RunJournal | str | None" = None,
    ) -> None:
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.supervision = supervision
        self.journal = journal
        self._estimators: dict[tuple, "DesignEffortEstimator"] = {}

    # -- strict (raising) measurement ----------------------------------------

    def measure_component(
        self,
        sources: list[SourceFile],
        top: str,
        name: str | None = None,
        policy: AccountingPolicy = AccountingPolicy.recommended(),
        design: ast.Design | None = None,
    ) -> ComponentMeasurement:
        """Measure every Table 3 metric for one component (raising)."""
        with obs_trace.span("measure.component", component=name or top):
            if design is None:
                design = parse_component(sources)
            with obs_trace.span("measure.software_metrics"):
                metrics: dict[str, float] = dict(
                    software_metrics(sources, design)
                )

            hierarchy = elaborate(design, top)
            instances = hierarchy.all_instances()
            with obs_trace.span("account"):
                selected = select_components(
                    instances,
                    policy,
                    minimal_parameters=lambda module: minimal_parameters(
                        design, module
                    ),
                )

            reports: dict[SpecKey, SynthesisReport] = {}
            source_texts = tuple(s.text for s in sources)
            to_compute, cache_keys, _corrupt = _probe_cache(
                self.cache, source_texts, _unique_specs(selected), reports
            )

            if self.jobs > 1 and len(to_compute) > 1:
                from repro.parallel import (
                    quarantined_to_error,
                    synthesize_specializations,
                )

                outcomes = synthesize_specializations(
                    design,
                    [(m, p) for _, m, p in to_compute],
                    label=name or top,
                    jobs=self.jobs,
                    safe=False,
                    supervision=self.supervision,
                    journal=self.journal,
                    source_texts=source_texts,
                )
                for (key, _m, _p), outcome in zip(to_compute, outcomes):
                    outcome = quarantined_to_error(outcome)
                    if outcome.error is not None:
                        raise outcome.error
                    reports[key] = outcome.value
            else:
                for key, module_name, params in to_compute:
                    with obs_trace.span(
                        "measure.specialization", module=module_name
                    ) as sp:
                        sub = elaborate(design, module_name, params)
                        netlist = synthesize_module(sub)
                        reports[key] = synthesis_metrics(netlist, sub, design)
                    if sp.wall_s is not None:
                        obs_metrics.histogram(
                            "measure.specialization_wall_s"
                        ).observe(sp.wall_s)
            if self.cache is not None:
                for key, _m, _p in to_compute:
                    self.cache.store(cache_keys[key], reports[key])

            selected_reports = [
                reports[(m, tuple(sorted(p.items())))] for m, p in selected
            ]
            metrics.update(
                aggregate_metrics([r.metrics() for r in selected_reports])
            )
            metrics.update(_flow_metrics(selected_reports))
            return ComponentMeasurement(
                name=name or top,
                top=top,
                policy=policy,
                metrics=metrics,
                specializations=selected,
                reports=reports,
            )

    # -- fault-tolerant measurement ------------------------------------------

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

        See :func:`repro.core.workflow.measure_component_safe` for the
        degradation ladder; this is the same code, bound to the engine's
        cache/pool configuration.
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
            from repro.parallel import synthesize_specializations

            outcomes = synthesize_specializations(
                design,
                [(m, p) for _, m, p in to_compute],
                label=label,
                jobs=self.jobs,
                safe=True,
                strict=strict,
                supervision=self.supervision,
                journal=self.journal,
                source_texts=source_texts,
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
                else:
                    failed[key] = outcome.diagnostics
        else:
            for key, module_name, params in to_compute:
                def _synth(m=module_name, p=params):
                    sub = elaborate(design, m, p)
                    return synthesis_metrics(synthesize_module(sub), sub, design)

                scratch = StageBoundary(component=label, strict=strict)
                report = scratch.run("synthesize", _synth)
                if report is None:
                    failed[key] = tuple(scratch.diagnostics)
                else:
                    reports[key] = report
        if self.cache is not None:
            for key, _m, _p in to_compute:
                if key in reports:
                    self.cache.store(cache_keys[key], reports[key])

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

        ``pool`` selects the execution path: ``None`` (the CLI default)
        uses the pool only when it pays (``jobs > 1`` and more than one
        spec); ``True`` forces every cache-missed spec through the
        supervised pool even for a single component (the serve daemon
        wants worker isolation for all untrusted input); ``False`` forces
        the inline sequential path.  All three produce byte-identical
        results -- the whole-component measurement memo is probed in the
        parent either way, so fully warm batches never dispatch a task.
        """
        use_pool = (
            self.jobs > 1 and len(specs) > 1 if pool is None else pool
        )
        if use_pool:
            from repro.parallel import measure_components_parallel

            return measure_components_parallel(
                specs, strict=strict, jobs=self.jobs, cache=self.cache,
                lint=lint, supervision=self.supervision,
                journal=self.journal,
            )
        results: dict[str, Result[ComponentMeasurement]] = {}
        for spec in specs:
            # Whole-measurement memo, mirroring the parallel path's
            # cache-aware dispatch: a warm component is served straight
            # from the cache; a pristine fresh measurement is stored for
            # next time.
            memo_key = None
            if self.cache is not None:
                memo_key = self.cache.measurement_key(spec, strict, lint)
                hit = self.cache.load_measurement(memo_key)
                if hit is not None:
                    results[spec.name] = hit
                    continue
            results[spec.name] = self.measure_component_safe(
                list(spec.sources),
                spec.top,
                name=spec.name,
                policy=spec.policy,
                strict=strict,
                lint=lint,
            )
            if memo_key is not None:
                self.cache.store_measurement(memo_key, results[spec.name])
        return BatchMeasurement(results=results)

    def measure_catalog(
        self,
        policy: AccountingPolicy = AccountingPolicy.recommended(),
        designs: tuple[str, ...] | None = None,
    ) -> dict[str, ComponentMeasurement]:
        """Measure every bundled design component under one policy.

        Returns component label -> measurement, in catalog order.  The
        bundled RTL is trusted, so a failure raises (strict mode) rather
        than quarantining -- same contract as
        :func:`repro.designs.loader.measure_catalog`, which now wraps
        this method.
        """
        from repro.designs.catalog import component_specs
        from repro.designs.loader import load_sources

        selected = [
            spec
            for spec in component_specs()
            if designs is None or spec.design in designs
        ]
        if self.jobs > 1 and len(selected) > 1:
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
                spec.label: batch.results[spec.label].unwrap()
                for spec in selected
            }
        out: dict[str, ComponentMeasurement] = {}
        for spec in selected:
            out[spec.label] = self.measure_component(
                load_sources(spec), spec.top, name=spec.label, policy=policy,
            )
        return out

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
