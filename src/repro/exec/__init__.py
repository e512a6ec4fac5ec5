"""Supervised execution: the fault-surviving engine under ``--jobs N``.

Every parallel batch runs under a :class:`Supervisor` that enforces
per-task deadlines, kills and respawns hung workers, retries transient
failures with exponential backoff + jitter, quarantines poison tasks as
structured diagnostics, and applies optional per-worker memory ceilings.
:func:`~repro.exec.pool.run_pool` is the one driver the pipeline calls:
it delivers a run's inputs in the :class:`WorkerContext`, sends each task
only its index, and merges worker telemetry on join.

The package knows nothing about persistence.  The pipeline's steps store
each product in the content-addressed cache (:mod:`repro.cache`) in the
process that computes it, so the cache is the only record of finished
work and an interrupted run resumes by hitting it.

Layering: this package depends only on :mod:`repro.obs` and
:mod:`repro.runtime.diagnostics`; the measurement and lint steps live
with the code they serve (:mod:`repro.core.engine`,
:mod:`repro.lint.engine`) and travel to workers by reference.  See
DESIGN.md section 11 for the supervision model.
"""

from repro.exec.policy import SupervisionPolicy
from repro.exec.pool import run_pool
from repro.exec.supervisor import (
    AUTO_CHUNK_CAP,
    QUARANTINE_HINT,
    RunInterrupted,
    Supervisor,
    clear_interrupt,
    interrupt_requested,
    request_interrupt,
)
from repro.exec.task import (
    TaskOutcome,
    WorkerContext,
    WorkerTelemetry,
    run_traced_task,
)
from repro.exec.workers import (
    WorkerHandle,
    apply_memory_limit,
    require_worker_context,
    using_context,
    worker_context,
    worker_main,
)

__all__ = [
    "AUTO_CHUNK_CAP",
    "QUARANTINE_HINT",
    "RunInterrupted",
    "Supervisor",
    "SupervisionPolicy",
    "TaskOutcome",
    "WorkerContext",
    "WorkerHandle",
    "WorkerTelemetry",
    "apply_memory_limit",
    "clear_interrupt",
    "interrupt_requested",
    "request_interrupt",
    "require_worker_context",
    "run_pool",
    "run_traced_task",
    "using_context",
    "worker_context",
    "worker_main",
]
