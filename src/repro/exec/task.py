"""The unit-of-work vocabulary of the supervised pool and its driver.

A *task* is one picklable callable applied to one picklable payload inside
a worker process.  Task functions follow a no-raise contract: whatever
happens inside (a quarantined stage, a strict-mode error to re-raise in
the parent), the function returns a :class:`TaskOutcome` carrying the
value, the ferried exception, the structured diagnostics, and the worker's
observability payload.  Anything that *escapes* a task function -- a
``MemoryError`` under a worker memory ceiling, a chaos fault, a genuine
bug -- is the supervisor's business (retry, backoff, quarantine), not the
caller's.

These classes live here so the supervised execution layer
(:mod:`repro.exec.supervisor`) can depend on them without importing the
measurement pipeline.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic


@dataclass(frozen=True)
class WorkerContext:
    """Run-invariant state delivered to each worker once, not per task.

    The old wire protocol pickled everything a task needed -- strictness
    flags, cache handles, even whole parsed designs -- into every task
    tuple, which profiling showed dominated dispatch cost.  A
    ``WorkerContext`` carries that invariant state exactly once per
    worker per run: the supervisor hands it to ``worker_main`` at spawn
    (under the default ``fork`` start method it is inherited copy-on-write,
    i.e. never serialized at all), or, to a worker kept from an earlier
    run, in one pickled run message; task functions read it back via
    :func:`repro.exec.workers.worker_context`.

    ``values`` is an immutable mapping of what the run's tasks need: for
    the pipeline's one pool run (batch measurement) the spec tuple, their
    memo keys, the strict/lint flags and the cache handle, plus the
    driver's step function, trace namespace and trace-capture flag
    (:func:`repro.exec.pool.run_pool`).
    """

    values: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the mapping so sharing one context across workers is safe.
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    # MappingProxyType is unpicklable; ship the plain dict instead.
    def __getstate__(self) -> dict:
        return {"values": dict(self.values)}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "values", MappingProxyType(state["values"]))


@dataclass
class WorkerTelemetry:
    """One worker task's observability payload, shipped with its reply:
    its private registry's dump, its spans when traced, and ``costs``,
    the worker loop's ``(payload_bytes, unpickle_s, compute_s)`` for the
    attempt, set after the task returned."""

    namespace: str
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[obs_trace.Span] = field(default_factory=list)
    costs: tuple[float, float, float] | None = None


@dataclass
class TaskOutcome:
    """What one pool task produced: a value, an error, or a quarantine.

    With ``value_blob`` (the value's pickle, made by a cache store) the
    outcome pickles as those bytes instead of pickling the value again.
    """

    value: Any = None
    error: BaseException | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    telemetry: WorkerTelemetry | None = None
    value_blob: bytes | None = field(default=None, repr=False, compare=False)

    def __reduce__(self):
        if self.value_blob is None:
            return (TaskOutcome, (self.value, self.error, self.diagnostics,
                                  self.telemetry))
        return (_outcome_from_blob, (self.value_blob, self.error,
                                     self.diagnostics, self.telemetry))


def _outcome_from_blob(blob: bytes, *rest: Any) -> TaskOutcome:
    return TaskOutcome(pickle.loads(blob), *rest)


@dataclass(frozen=True)
class Pickled:
    """A step's value with the bytes a cache store just pickled it to
    (``None``: nothing was stored), for the reply to carry as they are."""

    value: Any
    blob: bytes | None


#: The registry the tasks of this process run under.  A worker runs its
#: tasks one at a time, so one registry serves them all (a fresh one per
#: task cost twice the increments it recorded); each task drains it into
#: its own reply.
_TASK_REGISTRY = obs_metrics.MetricsRegistry()


def run_traced_task(
    fn: Callable[[], tuple[Any, tuple]], namespace: str, capture_trace: bool
) -> TaskOutcome:
    """Run ``fn`` under a private registry/tracer; never raises.  A
    :class:`Pickled` value hands its bytes to the outcome."""
    tracer = obs_trace.Tracer() if capture_trace else None
    value, error, diagnostics, blob = None, None, (), None
    try:
        with obs_metrics.using(_TASK_REGISTRY):
            ctx = obs_trace.using(tracer) if tracer is not None else nullcontext()
            with ctx:
                try:
                    value, diagnostics = fn()
                    if isinstance(value, Pickled):
                        value, blob = value.value, value.blob
                except Exception as exc:  # noqa: BLE001 -- ferried to the parent
                    error = exc
    finally:
        metrics = _TASK_REGISTRY.drain()
    return TaskOutcome(
        value=value,
        error=error,
        diagnostics=tuple(diagnostics),
        telemetry=WorkerTelemetry(
            namespace=namespace,
            metrics=metrics,
            spans=list(tracer.spans) if tracer is not None else [],
        ),
        value_blob=blob,
    )
