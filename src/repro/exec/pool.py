"""The one pool driver: how a batch of components reaches the workers.

The pool has one grain, the component: batch measurement
(:meth:`~repro.core.engine.Engine.measure_components`) is its only
caller, one task per component.  A component's specialization sweep and
a lint run cost about what one dispatch does, so they run inline.
:func:`run_pool` keeps the sequential contracts bit for bit:

* **Inputs ride in the context.**  The run's inputs (the spec tuple,
  memo keys and flags) go into the
  :class:`~repro.exec.task.WorkerContext`, which reaches each worker
  once: inherited under ``fork``, pickled once per worker under
  ``spawn``/``forkserver``.  A task's payload is only its index.
* **Fault isolation.**  Step functions run the fault-tolerant pipeline,
  so a faulty unit comes back as a structured value plus diagnostics,
  never as a pool-crashing exception.  Strict mode ferries the exception
  to the parent (``HdlError`` pickles faithfully).
* **Supervision.**  Every run is a :class:`~repro.exec.Supervisor` run:
  deadlines, retry with backoff, poison-task quarantine, and memory
  ceilings.  A caller that holds an open supervisor (the serve daemon,
  through :class:`~repro.core.engine.Engine`) passes it in and its
  workers stay warm between runs; otherwise the run opens a supervisor
  and joins its workers before returning.  Persistence is the step's
  business: the pipeline's steps store their products in the
  content-addressed cache as they finish, which is what lets an
  interrupted run resume.
* **Telemetry.**  Each task runs under a fresh metrics registry and, when
  the parent is traced, its own tracer.  On join the parent merges the
  worker's counters, observes the worker loop's three costs, grafts its
  span tree under namespaced ids (``"b3.w7:12"``) below the task's
  ``exec.task`` attempt span, and rewrites diagnostic span ids to match.
* **Imports before the fork.**  The pipeline loads lazily, so a parent
  may not have imported it yet; :func:`run_pool` loads it first
  (:func:`~repro.runtime.stages.load_pipeline`) and ``fork`` workers
  inherit it instead of importing it again on every batch.

Nothing here is imported by a ``jobs=1`` run.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from typing import Any, Callable, Mapping, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Result
from repro.runtime.stages import load_pipeline

from repro.exec.policy import SupervisionPolicy
from repro.exec.supervisor import Supervisor
from repro.exec.task import TaskOutcome, WorkerContext, run_traced_task
from repro.exec.workers import require_worker_context

#: Per-process namespace sequence: every pool run gets a fresh prefix so
#: grafted span ids stay unique across successive parallel sections.
_NAMESPACE_COUNTER = itertools.count()

#: A step computes task ``index`` from the run's inputs (the installed
#: :class:`WorkerContext`) and returns ``(value, diagnostics)``; the value
#: may be a :class:`~repro.exec.task.Pickled` that carries its own bytes.
Step = Callable[[WorkerContext, int], tuple[Any, Sequence[Diagnostic]]]


def run_pool(
    step: Step,
    inputs: Mapping[str, Any],
    labels: Sequence[str],
    *,
    jobs: int,
    supervision: SupervisionPolicy | None = None,
    supervisor: Supervisor | None = None,
) -> list[TaskOutcome]:
    """Run ``step`` for every index of ``labels`` across a supervised pool.

    ``step`` must be a module-level function (it travels by reference in
    the context); ``inputs`` are the run's shared inputs, read back by
    the step.  ``supervisor`` is an open supervisor the caller holds
    (``jobs`` and ``supervision`` are then its own); without one, the run
    opens a supervisor from ``jobs`` and ``supervision`` and closes it,
    so no worker outlives the call.

    Outcomes line up with ``labels``.  Worker telemetry is already merged,
    and span ids in the outcome's diagnostics -- and in a :class:`Result`
    value's diagnostics -- already point at the grafted spans.  A
    quarantined task has ``value=None`` and the supervisor's stage-
    ``"exec"`` diagnostic; a ferried strict-mode exception is in
    ``error``.
    """
    load_pipeline()  # before the fork, so no worker imports the stages
    run_ns = f"b{next(_NAMESPACE_COUNTER)}"
    context = WorkerContext(values={
        **inputs,
        "step": step,
        "run_ns": run_ns,
        "capture_trace": obs_trace.active() is not None,
    })
    n = len(labels)
    with (
        nullcontext(supervisor) if supervisor is not None
        else Supervisor(jobs, supervision)
    ) as sup:
        outcomes = sup.run(
            _run_step, list(range(n)),
            labels=list(labels),
            namespaces=[f"{run_ns}.w{i}" for i in range(n)],
            context=context,
        )
    merged = []
    for outcome in outcomes:
        mapping = merge_worker_telemetry(outcome)
        value = outcome.value
        if isinstance(value, Result):
            value = Result(value.value, remap_span_ids(value.diagnostics, mapping))
        merged.append(TaskOutcome(
            value=value,
            error=outcome.error,
            diagnostics=remap_span_ids(outcome.diagnostics, mapping),
        ))
    return merged


def _run_step(index: int) -> TaskOutcome:
    """The worker entry point: task ``index`` of the installed run."""
    ctx = require_worker_context()
    return run_traced_task(
        lambda: ctx["step"](ctx, index),
        f"{ctx['run_ns']}.w{index}",
        ctx["capture_trace"],
    )


# -- join-side plumbing ------------------------------------------------------


def merge_worker_telemetry(
    outcome: TaskOutcome,
) -> dict[int | str, str]:
    """Fold one worker's telemetry into the parent's registry/tracer.

    The worker loop's costs become ``exec.worker_*`` observations.
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
    registry = obs_metrics.registry()
    registry.merge(tel.metrics)
    if tel.costs is not None:
        payload_bytes, unpickle_s, compute_s = tel.costs
        registry.counter("exec.worker_payload_bytes").inc(payload_bytes)
        registry.histogram("exec.worker_unpickle_s").observe(unpickle_s)
        registry.histogram("exec.worker_compute_s").observe(compute_s)
    tracer = obs_trace.active()
    if tracer is None or not tel.spans:
        return {}
    return tracer.graft(
        tel.spans, tel.namespace,
        parent_id=_attempt_span_id(tracer, tel.namespace),
    )


def _attempt_span_id(tracer, namespace: str):
    """The ``exec.task`` span of this task's successful attempt, if any.

    Namespaces are unique per task per run (see ``run_pool``), so the
    newest match is the one attempt that produced this outcome; the
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
