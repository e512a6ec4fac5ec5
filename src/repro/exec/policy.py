"""Supervision policy: every knob of the supervised worker pool.

One frozen dataclass holds the full contract between a caller and the
:class:`~repro.exec.supervisor.Supervisor`, so a policy can be passed
through the measurement APIs, embedded in tests, and rendered into docs
without chasing keyword arguments through the stack:

* **Deadlines** -- ``deadline_s`` bounds each task *attempt*; a worker
  still busy past it is presumed hung, killed, and respawned.
* **Retries** -- failures are classified as *kills* (the worker died or
  was killed: OOM, SIGKILL, deadline) or *soft failures* (an exception
  escaped the task function inside a surviving worker, e.g. a
  ``MemoryError`` under the memory ceiling).  A task is re-dispatched with
  exponential backoff + deterministic jitter until it exhausts
  ``max_task_kills`` / ``max_retries``, at which point it is *poison* and
  quarantined as a structured diagnostic instead of retrying forever.
* **Memory ceilings** -- ``memory_limit_mb`` applies
  ``resource.setrlimit(RLIMIT_AS)`` in each worker, as headroom above the
  address space the worker starts with, converting a runaway
  allocation into a contained ``MemoryError`` (soft failure) or, at
  worst, a worker death the supervisor absorbs -- never pool collapse.
* **Signals** -- ``handle_signals`` opts the run into SIGINT/SIGTERM
  handling: the pool drains (finished work is already in the cache) and
  the run raises :class:`~repro.exec.supervisor.RunInterrupted` for the CLI to
  map onto its documented exit code.
* **Chaos** -- ``chaos`` maps task labels to fault injectors from
  :mod:`repro.runtime.faultinject` (``hang_worker``/``kill_worker``/
  ``slow_task``/``oom_task``); production callers leave it ``None``.
* **Progress** -- ``progress`` names a writable text stream for the live
  heartbeat line (tasks done, rate, ETA) the monitor loop repaints every
  ``progress_interval_s``; ``None`` (the default) stays silent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class SupervisionPolicy:
    """Deadlines, retry/backoff, ceilings, and hooks for one supervised run."""

    #: Per-attempt wall-clock deadline in seconds; ``None`` disables
    #: hung-worker detection (a task may then run forever).
    deadline_s: float | None = 120.0
    #: Soft-failure retries per task before quarantine (an exception that
    #: escaped the task function while the worker survived).
    max_retries: int = 2
    #: Worker kills (death or deadline) a single task may cause before it
    #: is declared poison and quarantined.
    max_task_kills: int = 2
    #: Exponential backoff: ``base * 2**(failures-1)`` capped at ``cap``,
    #: plus ``jitter`` as a fraction of the computed delay.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.5
    #: Seed for the jitter RNG -- supervision schedules are reproducible.
    seed: int = 0
    #: Per-worker address-space headroom (``RLIMIT_AS``) in MiB, above the
    #: worker's size at start; ``None`` leaves the OS limits untouched.
    memory_limit_mb: int | None = None
    #: Worker respawns allowed across the run before the supervisor stops
    #: replacing killed workers; ``None`` means ``4 + 2 * jobs``.
    max_respawns: int | None = None
    #: Upper bound on one monitor sleep, so heartbeats and signal flags
    #: stay responsive even when nothing is due.
    poll_interval_s: float = 0.25
    #: Install SIGINT/SIGTERM handlers for the duration of the run
    #: (parent process, main thread only).  Off by default: library
    #: callers should not have their signal disposition changed.
    handle_signals: bool = False
    #: Chaos plan: task label -> ``(fault_name, args)`` resolved by
    #: :func:`repro.runtime.faultinject.apply_worker_fault` inside the
    #: worker.  Test-only; ``None`` in production.
    chaos: Mapping[str, tuple] | None = field(default=None, hash=False)
    #: Writable text stream for the live heartbeat line (``--progress``);
    #: ``None`` disables it.
    progress: Any | None = field(default=None, hash=False, compare=False)
    #: Seconds between heartbeat repaints when ``progress`` is set.
    progress_interval_s: float = 0.5
    #: Upper bound on tasks batched into one dispatch message.  ``None``
    #: lets the supervisor size chunks adaptively (spread the ready queue
    #: over the idle workers, capped at 16); ``1`` restores strict
    #: one-task-at-a-time dispatch.  Chunking amortizes the per-message
    #: pipe round-trip that profiling showed dominating short tasks; the
    #: deadline still bounds each *task*, not the whole chunk, because a
    #: worker streams one reply per task as it progresses.
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.max_retries < 0 or self.max_task_kills < 1:
            raise ValueError("max_retries >= 0 and max_task_kills >= 1 required")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.memory_limit_mb is not None and self.memory_limit_mb <= 0:
            raise ValueError("memory_limit_mb must be positive (or None)")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.progress_interval_s <= 0:
            raise ValueError("progress_interval_s must be positive")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for adaptive)")

    def backoff_s(self, failures: int, rng: random.Random) -> float:
        """Delay before re-dispatching a task that failed ``failures`` times.

        Exponential in the failure count, capped, with multiplicative
        jitter drawn from ``rng`` (the supervisor's seeded generator), so
        two poisoned tasks released together do not retry in lockstep.
        """
        if failures < 1:
            raise ValueError("backoff_s needs failures >= 1")
        base = min(
            self.backoff_base_s * (2.0 ** (failures - 1)), self.backoff_cap_s
        )
        return base * (1.0 + self.backoff_jitter * rng.random())

    def respawn_budget(self, jobs: int) -> int:
        """Total worker respawns allowed for a ``jobs``-wide run."""
        if self.max_respawns is not None:
            return self.max_respawns
        return 4 + 2 * max(1, jobs)
