"""The unit-of-work vocabulary shared by every pool execution strategy.

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
    worker lifetime: the supervisor hands it to ``worker_main`` at spawn
    (under the default ``fork`` start method it is inherited copy-on-write,
    i.e. never serialized at all), and task functions read it back via
    :func:`repro.exec.workers.worker_context`.

    ``values`` is an immutable mapping of whatever the task family needs
    (e.g. the run's specs or design, strict/lint flags, the run's trace
    namespace).
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
    """One worker task's observability payload, shipped back on join."""

    namespace: str
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[obs_trace.Span] = field(default_factory=list)


@dataclass
class TaskOutcome:
    """What one pool task produced: a value, an error, or a quarantine."""

    value: Any = None
    error: BaseException | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    telemetry: WorkerTelemetry | None = None


def annotate_worker_stats(
    value: Any,
    *,
    payload_bytes: int,
    unpickle_s: float,
    compute_s: float,
) -> None:
    """Fold one attempt's worker-side costs into the outcome's telemetry.

    The worker loop (:func:`repro.exec.workers.worker_main`) measures what
    only it can see -- the payload's unpickle time and the task's pure
    compute time -- *after* the outcome object exists, so the numbers are
    injected into the telemetry's registry dump rather than recorded
    through the worker's (already closed) registry.  They merge into the
    parent registry on join like every other worker instrument:

    * ``exec.worker_unpickle_s`` / ``exec.worker_compute_s`` histograms;
    * ``exec.worker_payload_bytes`` counter.

    ``value`` is duck-typed: anything without a ``telemetry`` attribute
    (a non-``TaskOutcome`` task) is left untouched.
    """
    telemetry = getattr(value, "telemetry", None)
    if telemetry is None or not isinstance(telemetry.metrics, dict):
        return
    dump = telemetry.metrics
    hists = dump.setdefault("histograms", {})
    for name, value in (("exec.worker_unpickle_s", unpickle_s),
                        ("exec.worker_compute_s", compute_s)):
        hist = obs_metrics.Histogram(name)
        if name in hists:
            hist.fold(hists[name])
        hist.observe(value)
        hists[name] = hist.dump()
    counters = dump.setdefault("counters", {})
    counters["exec.worker_payload_bytes"] = (
        counters.get("exec.worker_payload_bytes", 0.0) + float(payload_bytes)
    )


def run_traced_task(
    fn: Callable[[], tuple[Any, tuple]], namespace: str, capture_trace: bool
) -> TaskOutcome:
    """Run ``fn`` under a private registry/tracer; never raises."""
    registry = obs_metrics.MetricsRegistry()
    tracer = obs_trace.Tracer() if capture_trace else None
    value, error, diagnostics = None, None, ()
    with obs_metrics.using(registry):
        ctx = obs_trace.using(tracer) if tracer is not None else nullcontext()
        with ctx:
            try:
                value, diagnostics = fn()
            except Exception as exc:  # noqa: BLE001 -- ferried to the parent
                error = exc
    return TaskOutcome(
        value=value,
        error=error,
        diagnostics=tuple(diagnostics),
        telemetry=WorkerTelemetry(
            namespace=namespace,
            metrics=registry.dump(),
            spans=list(tracer.spans) if tracer is not None else [],
        ),
    )
