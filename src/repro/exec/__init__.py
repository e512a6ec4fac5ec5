"""Supervised execution: the fault-surviving engine under ``--jobs N``.

Every parallel batch runs under a :class:`Supervisor` that enforces
per-task deadlines, kills and respawns hung workers, retries transient
failures with exponential backoff + jitter, quarantines poison tasks as
structured diagnostics, applies optional per-worker memory ceilings, and
journals completed work so an interrupted run resumes where it stopped.
:func:`~repro.exec.pool.run_pool` is the one driver the pipeline calls:
it delivers a run's inputs in the :class:`WorkerContext`, sends each task
only its index, and merges worker telemetry on join.

Layering: this package depends only on :mod:`repro.obs` and
:mod:`repro.runtime.diagnostics`; the measurement and lint steps live
with the code they serve (:mod:`repro.core.engine`,
:mod:`repro.lint.engine`) and travel to workers by reference;
:func:`repro.cache.content_key` is re-exported on first use only.  See
DESIGN.md section 11 for the supervision model and the journal format.
"""

from repro.exec.journal import JOURNAL_VERSION, RunJournal
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
    "JOURNAL_VERSION",
    "QUARANTINE_HINT",
    "RunInterrupted",
    "RunJournal",
    "Supervisor",
    "SupervisionPolicy",
    "TaskOutcome",
    "WorkerContext",
    "WorkerHandle",
    "WorkerTelemetry",
    "apply_memory_limit",
    "clear_interrupt",
    "content_key",
    "interrupt_requested",
    "request_interrupt",
    "require_worker_context",
    "run_pool",
    "run_traced_task",
    "using_context",
    "worker_context",
    "worker_main",
]


def __getattr__(name: str):
    if name != "content_key":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.cache import content_key

    return content_key
