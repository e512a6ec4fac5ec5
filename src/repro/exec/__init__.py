"""Supervised execution: the fault-surviving engine under ``--jobs N``.

Every parallel batch runs under a :class:`Supervisor` that enforces
per-task deadlines, kills and respawns hung workers, retries transient
failures with exponential backoff + jitter, quarantines poison tasks as
structured diagnostics, and applies optional per-worker memory ceilings.
:func:`~repro.exec.pool.run_pool` is the one driver the pipeline calls,
from batch measurement only (one task per component): it delivers a
run's inputs in the :class:`WorkerContext`, sends each task only its
index, and merges worker telemetry on join.

The package knows nothing about persistence.  The pipeline's steps store
each product in the content-addressed cache (:mod:`repro.cache`) in the
process that computes it, so the cache is the only record of finished
work and an interrupted run resumes by hitting it.

Layering: this package depends only on :mod:`repro.obs` and
:mod:`repro.runtime`; the batch measurement step lives with the code it
serves (:mod:`repro.core.engine`) and travels to workers by reference.  See
DESIGN.md section 11 for the supervision model.
"""

from repro import lazy_exports

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): a ``--jobs 1`` run loads neither the pool nor
#: ``multiprocessing``.
_EXPORTS = {
    "AUTO_CHUNK_CAP": "repro.exec.supervisor",
    "Pickled": "repro.exec.task",
    "QUARANTINE_HINT": "repro.exec.supervisor",
    "RunInterrupted": "repro.exec.policy",
    "SupervisionPolicy": "repro.exec.policy",
    "Supervisor": "repro.exec.supervisor",
    "TaskOutcome": "repro.exec.task",
    "WorkerContext": "repro.exec.task",
    "WorkerHandle": "repro.exec.workers",
    "WorkerTelemetry": "repro.exec.task",
    "apply_memory_limit": "repro.exec.workers",
    "clear_interrupt": "repro.exec.supervisor",
    "request_interrupt": "repro.exec.supervisor",
    "require_worker_context": "repro.exec.workers",
    "run_pool": "repro.exec.pool",
    "run_traced_task": "repro.exec.task",
    "using_context": "repro.exec.workers",
    "worker_context": "repro.exec.workers",
    "worker_main": "repro.exec.workers",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
