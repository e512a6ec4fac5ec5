"""Process-pool execution of the measurement pipeline.

Batch measurement is embarrassingly parallel: components are independent,
and within one component so are its specializations' synthesis runs.  This
module fans both loops out over a pool of worker processes while
preserving the sequential contracts bit for bit:

* **Fault isolation.**  Workers run the one fault-tolerant pipeline
  (:meth:`Engine.measure_component_safe
  <repro.core.engine.Engine.measure_component_safe>` per component, a
  :class:`~repro.runtime.stages.StageBoundary` per specialization), so a
  faulty component/specialization is quarantined inside its worker and
  comes back as a structured ``Result``/diagnostics -- never as a
  pool-crashing exception.  Strict mode re-raises in the parent
  (``HdlError`` pickles faithfully, so the re-raised exception carries
  the same file/line/hint).
* **Supervision.**  Every pool is a :class:`repro.exec.Supervisor`:
  per-task deadlines with hung-worker kill + respawn, bounded retry with
  exponential backoff, poison-task quarantine, optional per-worker memory
  ceilings, and (with a :class:`repro.exec.RunJournal`) crash-safe resume.
* **Telemetry.**  The obs registry and tracer are process-local, so a
  naive pool would silently drop every counter a worker bumps and reuse
  span ids across workers.  Each worker task therefore runs under a fresh
  :class:`~repro.obs.metrics.MetricsRegistry` and (when the parent is
  traced) its own :class:`~repro.obs.trace.Tracer`; on join, the parent
  merges the worker's metrics dump into its registry and grafts the worker
  span tree under namespaced ids (``"w3:7"``) -- see
  :meth:`Tracer.graft <repro.obs.trace.Tracer.graft>`.
* **Degradation.**  If workers cannot run at all (fork failures), the
  supervisor falls back to in-process computation and counts
  ``parallel.fallback_sequential`` -- slower, never wrong.

Nothing here is imported eagerly by the pipeline; ``jobs=1`` (the default
everywhere) never touches this module.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from repro.exec import (
    BlobStore,
    RunJournal,
    Supervisor,
    SupervisionPolicy,
    TaskOutcome,
    WorkerContext,
    WorkerTelemetry,
    content_key,
    require_worker_context,
    run_traced_task,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Result

__all__ = [
    "TaskOutcome",
    "WorkerTelemetry",
    "lint_modules_parallel",
    "measure_components_parallel",
    "measure_task_key",
    "merge_worker_telemetry",
    "remap_span_ids",
    "synthesize_specializations",
]

#: Per-process namespace sequence: every pool run gets a fresh prefix so
#: grafted span ids stay unique across successive parallel sections.
_NAMESPACE_COUNTER = itertools.count()


# -- worker entry points (module-level: they must pickle) --------------------
#
# Payloads are deliberately tiny: the task's index plus (at most) a
# content-hash :class:`~repro.exec.blobs.BlobRef` naming its heavy input
# in the run's BlobStore.  Everything run-invariant -- strictness flags,
# cache handles, the shared design, the trace namespace prefix -- rides in
# the :class:`~repro.exec.WorkerContext` installed once per worker (or via
# ``using_context`` on the parent's inline paths), not in every payload.

#: Modules each task family imports eagerly at worker startup so the
#: first attempt pays no import cost (irrelevant under ``fork``, which
#: inherits the parent's modules, but real on spawn platforms).
_MEASURE_PRELOAD = ("repro.core.engine",)
_LINT_PRELOAD = ("repro.lint.engine",)


def _measure_task(payload: tuple) -> TaskOutcome:
    """Measure one component (the batch-level unit of work).

    ``payload`` is ``(index, spec_ref)``; the spec is fetched from the
    context's BlobStore (cached per worker after first use).
    """
    index, spec_ref = payload
    ctx = require_worker_context()
    spec = ctx["blobs"].get(spec_ref)
    strict, cache, lint = ctx["strict"], ctx["cache"], ctx["lint"]
    namespace = f"{ctx['run_ns']}.w{index}"
    from repro.core.engine import Engine

    def run():
        result = Engine(cache=cache).measure_component_safe(
            spec.sources,
            spec.top,
            name=spec.name,
            policy=spec.policy,
            strict=strict,
            lint=lint,
        )
        return result, ()

    return run_traced_task(run, namespace, ctx["capture_trace"])


def _synthesize_task(payload: tuple) -> TaskOutcome:
    """Synthesize one specialization (the component-level unit of work).

    ``payload`` is ``(index, module, params)``; the shared design is
    fetched from the context's BlobStore exactly once per worker instead
    of being re-pickled into every specialization's payload.
    """
    index, module, params = payload
    ctx = require_worker_context()
    design = ctx["blobs"].get(ctx["design_ref"])
    label, strict = ctx["label"], ctx["strict"]
    namespace = f"{ctx['run_ns']}.w{index}"
    from repro.core.engine import synthesize_specialization

    def run():
        return synthesize_specialization(design, module, params, label, strict)

    return run_traced_task(run, namespace, ctx["capture_trace"])


def _lint_task(payload: tuple) -> TaskOutcome:
    """Lint one module (the lint run's unit of work).

    ``payload`` is ``(index, module_name)``; the shared design and lint
    config ride in the worker context.
    """
    index, module_name = payload
    ctx = require_worker_context()
    design = ctx["blobs"].get(ctx["design_ref"])
    config = ctx["config"]
    namespace = f"{ctx['run_ns']}.w{index}"
    from repro.lint.engine import lint_module

    def run():
        result = lint_module(design, module_name, config)
        return result, ()

    return run_traced_task(run, namespace, ctx["capture_trace"])


# -- join-side plumbing ------------------------------------------------------


def merge_worker_telemetry(
    outcome: TaskOutcome,
) -> dict[int | str, str]:
    """Fold one worker's telemetry into the parent's registry/tracer.

    Returns the span-id remapping from :meth:`Tracer.graft` (empty when
    untraced) so callers can remap ``Diagnostic.span_id`` references.

    When the supervisor recorded an ``exec.task`` attempt span for this
    task (matched through the telemetry namespace), the worker's span
    tree is grafted *under that attempt* instead of under the join
    point, so rollups and flamegraphs attribute worker compute to the
    dispatch that caused it and the attempt's residual self time is pure
    transfer/supervision overhead.
    """
    tel = outcome.telemetry
    if tel is None:
        return {}
    obs_metrics.registry().merge(tel.metrics)
    tracer = obs_trace.active()
    if tracer is None or not tel.spans:
        return {}
    return tracer.graft(
        tel.spans, tel.namespace,
        parent_id=_attempt_span_id(tracer, tel.namespace),
    )


def _attempt_span_id(tracer, namespace: str):
    """The ``exec.task`` span of this task's successful attempt, if any.

    Namespaces are unique per task per run (see ``_next_namespace``), so
    the newest match is the one attempt that produced this outcome; the
    reverse scan is cheap because the attempt was recorded moments ago.
    ``None`` falls back to :meth:`Tracer.graft`'s default (the join
    point) -- e.g. sequential fallback runs record no attempt spans.
    """
    for sp in reversed(tracer.spans):
        if sp.name != "exec.task":
            continue
        if sp.attrs.get("ns") == namespace and \
                sp.attrs.get("outcome") == "ok":
            return sp.span_id
    return None


def remap_span_ids(
    diagnostics: Sequence[Diagnostic], mapping: Mapping[int | str, str]
) -> tuple[Diagnostic, ...]:
    """Rewrite worker-local span ids to their grafted namespaced ids."""
    if not mapping:
        return tuple(diagnostics)
    from dataclasses import replace

    return tuple(
        replace(d, span_id=mapping[d.span_id]) if d.span_id in mapping else d
        for d in diagnostics
    )


def _next_namespace(kind: str) -> str:
    return f"{kind}{next(_NAMESPACE_COUNTER)}"


# -- journal keys ------------------------------------------------------------


def measure_task_key(spec, strict: bool = False, lint: bool = False) -> str:
    """Content-addressed journal key of one component-measurement task.

    Folds in the pipeline version salt (via :data:`repro.cache.SALT`), the
    component's sources, top, accounting policy, and the flags that change
    the result -- so a resumed run only reuses outcomes that would be
    recomputed identically.
    """
    from repro.cache import SALT

    parts = [
        SALT,
        "measure-task",
        spec.name,
        spec.top,
        repr(spec.policy),
        f"strict={bool(strict)}",
        f"lint={bool(lint)}",
    ]
    for source in spec.sources:
        parts.append(f"{source.name}\x00{source.text}")
    return content_key(*parts)


def synthesis_task_key(
    source_texts: Sequence[str],
    module: str,
    params: Mapping[str, int],
    strict: bool,
) -> str:
    """Content-addressed journal key of one specialization-synthesis task.

    The constant ``safe=True`` part is kept from when a second, raising
    synthesis path existed, so journals written back then still resume.
    """
    from repro.cache import SALT

    parts = [
        SALT,
        "synthesis-task",
        module,
        "safe=True",
        f"strict={bool(strict)}",
    ]
    parts.extend(f"{name}={int(value)}" for name, value in sorted(params.items()))
    parts.extend(source_texts)
    return content_key(*parts)


# -- public API --------------------------------------------------------------


def measure_components_parallel(
    specs: Sequence,
    strict: bool = False,
    jobs: int = 2,
    cache=None,
    lint: bool = False,
    supervision: SupervisionPolicy | None = None,
    journal: "RunJournal | str | None" = None,
) -> dict[str, Result]:
    """Measure components across a supervised process pool.

    The pool path of :meth:`repro.core.engine.Engine.measure_components`,
    which probes and stores the whole-component measurement memo itself
    and hands only the misses here.  Returns component name -> result in
    ``specs`` order: the same results and diagnostics as the inline path,
    only wall-clock differs.  ``cache`` reaches the workers, which use it
    for per-specialization synthesis products.  Worker counters merge on
    join; with an active tracer, worker span trees are grafted under
    namespaced ids below the ``measure.batch`` span.

    A component whose task is quarantined by the supervisor (it repeatedly
    hung, crashed, or OOM-killed its worker) comes back as a failed
    ``Result`` carrying the stage-``"exec"`` diagnostic; the rest of the
    batch is unaffected.  With ``journal``, completed components are
    appended as they finish and an interrupted run resumes from the file.
    """
    capture_trace = obs_trace.active() is not None
    run_ns = _next_namespace("b")
    journal = RunJournal.open(journal)
    results: dict[str, Result] = {}
    errors: list[BaseException] = []
    with obs_trace.span("measure.batch", components=len(specs), jobs=jobs), \
            BlobStore.create() as blobs:
        context = WorkerContext(
            values={
                "blobs": blobs, "strict": strict, "cache": cache,
                "lint": lint, "capture_trace": capture_trace,
                "run_ns": run_ns,
            },
            preload=_MEASURE_PRELOAD,
        )
        payloads = [(i, blobs.put(spec)) for i, spec in enumerate(specs)]
        keys = (
            [measure_task_key(spec, strict, lint) for spec in specs]
            if journal is not None
            else None
        )
        outcomes = Supervisor(jobs, supervision).run(
            _measure_task, payloads,
            labels=[spec.name for spec in specs], keys=keys, journal=journal,
            namespaces=[f"{run_ns}.w{i}" for i in range(len(specs))],
            context=context,
        )
        for spec, outcome in zip(specs, outcomes):
            mapping = merge_worker_telemetry(outcome)
            if outcome.error is not None:
                errors.append(outcome.error)
            elif outcome.value is None:
                # Supervisor quarantine: structured failure, no measurement.
                results[spec.name] = Result(
                    None, remap_span_ids(outcome.diagnostics, mapping)
                )
            else:
                results[spec.name] = Result(
                    outcome.value.value,
                    remap_span_ids(outcome.value.diagnostics, mapping),
                )
    if errors:
        # Only strict mode lets exceptions out of a worker; re-raise the
        # first in batch order, matching sequential fail-fast.
        raise errors[0]
    return results


def lint_modules_parallel(
    design,
    names: Sequence[str],
    config,
    jobs: int,
    supervision: SupervisionPolicy | None = None,
) -> list:
    """Lint the named modules of one design across a supervised pool.

    The parallel twin of the sequential loop in
    :func:`repro.lint.engine.lint_design`: one task per module, identical
    :class:`~repro.lint.engine.ModuleLintResult` list back (in ``names``
    order).  Worker telemetry merges on join like every other pool here;
    a module whose task is quarantined comes back with the supervisor's
    diagnostic in its ``errors`` (the lint report exit code already maps
    errors to 2).
    """
    from repro.lint.engine import ModuleLintResult

    capture_trace = obs_trace.active() is not None
    run_ns = _next_namespace("l")
    with obs_trace.span("lint.batch", modules=len(names), jobs=jobs), \
            BlobStore.create() as blobs:
        context = WorkerContext(
            values={
                "blobs": blobs, "design_ref": blobs.put(design),
                "config": config, "capture_trace": capture_trace,
                "run_ns": run_ns,
            },
            preload=_LINT_PRELOAD,
        )
        payloads = [(i, name) for i, name in enumerate(names)]
        outcomes = Supervisor(jobs, supervision).run(
            _lint_task, payloads, labels=list(names),
            namespaces=[f"{run_ns}.w{i}" for i in range(len(names))],
            context=context,
        )
        results = []
        for name, outcome in zip(names, outcomes):
            mapping = merge_worker_telemetry(outcome)
            if outcome.error is not None:
                # lint_module quarantines rule crashes itself; anything that
                # escapes a worker is an engine bug worth surfacing.
                raise outcome.error
            if outcome.value is None:
                results.append(
                    ModuleLintResult(
                        module=name, file="", hash="", findings=(),
                        errors=remap_span_ids(outcome.diagnostics, mapping),
                    )
                )
                continue
            results.append(outcome.value)
    return results


def synthesize_specializations(
    design,
    work: Sequence[tuple[str, Mapping[str, int]]],
    label: str,
    jobs: int,
    strict: bool = False,
    supervision: SupervisionPolicy | None = None,
    journal: "RunJournal | str | None" = None,
    source_texts: Sequence[str] | None = None,
) -> list[TaskOutcome]:
    """Synthesize many specializations of one design across a pool.

    ``work`` is a list of ``(module, params)`` pairs (already deduplicated
    and cache-missed by the caller); the returned outcomes line up with it.
    Telemetry is merged and diagnostic span ids are remapped before return,
    so callers only look at ``value``/``error``/``diagnostics``.  A
    quarantined specialization comes back with ``value=None`` and the
    supervisor's stage-``"exec"`` diagnostic (which the engine raises as
    a ``RuntimeError`` in strict mode).  ``journal`` (requires
    ``source_texts`` for content-addressed keys) lets an interrupted
    specialization sweep resume.
    """
    capture_trace = obs_trace.active() is not None
    run_ns = _next_namespace("s")
    labels = [f"{label}:{module}" for module, _ in work]
    journal = RunJournal.open(journal)
    keys = None
    if journal is not None and source_texts is not None:
        keys = [
            synthesis_task_key(source_texts, module, params, strict)
            for module, params in work
        ]
    merged: list[TaskOutcome] = []
    with BlobStore.create() as blobs:
        # The design is the heavy part of every specialization task; one
        # blob, fetched once per worker, replaces per-task re-pickling.
        context = WorkerContext(
            values={
                "blobs": blobs, "design_ref": blobs.put(design),
                "label": label, "strict": strict,
                "capture_trace": capture_trace, "run_ns": run_ns,
            },
            preload=_MEASURE_PRELOAD,
        )
        payloads = [
            (i, module, dict(params))
            for i, (module, params) in enumerate(work)
        ]
        outcomes = Supervisor(jobs, supervision).run(
            _synthesize_task, payloads,
            labels=labels, keys=keys, journal=journal,
            namespaces=[f"{run_ns}.w{i}" for i in range(len(work))],
            context=context,
        )
        for outcome in outcomes:
            mapping = merge_worker_telemetry(outcome)
            merged.append(
                TaskOutcome(
                    value=outcome.value,
                    error=outcome.error,
                    diagnostics=remap_span_ids(outcome.diagnostics, mapping),
                    telemetry=None,
                )
            )
    return merged

