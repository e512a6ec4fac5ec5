"""The supervisor: a process pool that survives its workers.

:class:`Supervisor.run` executes one homogeneous batch of tasks over a
pool of :mod:`repro.exec.workers` processes and owns every failure mode
a bare process-pool executor cannot:

* **Hung workers.**  Each attempt runs under the policy deadline; a
  worker still busy past it is killed and replaced, and the task is
  re-dispatched with exponential backoff + jitter.
* **Dead workers.**  A worker that dies mid-task (OOM kill, SIGKILL,
  segfault) closes its pipe, which wakes the monitor immediately; the
  task is charged one *kill* and retried on a fresh worker.
* **Escaped exceptions.**  Task functions promise not to raise; when
  something escapes anyway (``MemoryError`` under the worker memory
  ceiling, a chaos fault, a bug) the surviving worker reports it and the
  task is charged one *soft failure* and retried.
* **Poison tasks.**  A task that exhausts ``max_task_kills`` kills or
  ``max_retries`` soft failures is quarantined: its outcome is a
  structured :class:`~repro.runtime.diagnostics.Diagnostic` (stage
  ``"exec"``), never an unhandled crash or an infinite retry loop.
* **Interrupts.**  With ``policy.handle_signals``, SIGINT/SIGTERM drain
  the pool and surface as :class:`RunInterrupted` for the CLI's
  documented exit code.  The supervisor persists nothing: the pipeline's
  tasks store their products in the cache as they finish, so a re-run
  resumes by hitting it.
* **Degradation.**  If workers cannot be spawned at all (fork failure,
  respawn budget exhausted with none left alive), the remaining tasks run
  inline in the parent -- slower, without deadlines, never wrong --
  counted in ``parallel.fallback_sequential``.

Telemetry flows through :mod:`repro.obs`: ``exec.dispatched``,
``exec.completed``, ``exec.retries``, ``exec.kills``,
``exec.deadline_kills``, ``exec.worker_deaths``, ``exec.respawns``,
``exec.quarantined``, ``exec.heartbeats``, the
``exec.workers`` gauge, and the ``exec.deadline_margin_s`` histogram
(how close completed tasks came to their deadline).

Cost attribution (the raw material of ``ucomplexity profile`` -- see
:mod:`repro.obs.attrib` / :mod:`repro.obs.timeline`): with an active
tracer, every task *attempt* is recorded as an ``exec.task`` span
positioned on the parent timeline (start = dispatch, end = completion or
kill) carrying the worker lane (``wid``), the task's telemetry namespace
(``ns``), queue wait, payload pickle time/size, result unpickle
time/size, the attempt number, and the outcome (``ok``/``exc``/``kill``).
Worker spawns are recorded as ``exec.spawn`` spans.  The same costs feed
always-on instruments: ``exec.queue_wait_s``/``exec.pickle_s``/
``exec.unpickle_s``/``exec.spawn_s`` histograms and
``exec.payload_bytes``/``exec.result_bytes`` counters, with the
worker-side halves (``exec.worker_unpickle_s``,
``exec.worker_compute_s``, ``exec.worker_payload_bytes``) merged in from
each outcome's telemetry.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Severity

from repro.exec.policy import SupervisionPolicy
from repro.exec.task import TaskOutcome, WorkerContext
from repro.exec.workers import WorkerHandle, using_context

#: Ceiling on adaptive chunk size (``policy.chunk_size=None``): chunks
#: amortize the per-message pipe round-trip, but an over-long chunk
#: serializes work that idle workers could steal, so adaptive sizing
#: spreads the ready queue over the idle workers and never exceeds this.
AUTO_CHUNK_CAP = 16


# -- cross-thread interrupts --------------------------------------------------
#
# Signal handlers only run on the main thread, but the serve daemon runs
# supervised batches on a dispatcher thread while asyncio owns the main
# thread's signal handling.  ``request_interrupt`` is the thread-safe
# equivalent of delivering SIGTERM to a supervised run: the monitor loop
# checks the event alongside its own signal flag and raises
# :class:`RunInterrupted`, draining the pool the same way.  The flag is process-global (one serve daemon per process);
# ``clear_interrupt`` resets it before a new run.

_EXTERNAL_INTERRUPT = threading.Event()
_EXTERNAL_SIGNUM: int = int(signal.SIGTERM)


def request_interrupt(signum: int = signal.SIGTERM) -> None:
    """Ask every running (and future) supervised batch to stop draining."""
    global _EXTERNAL_SIGNUM
    _EXTERNAL_SIGNUM = int(signum)
    _EXTERNAL_INTERRUPT.set()


def clear_interrupt() -> None:
    """Re-arm supervised execution after :func:`request_interrupt`."""
    _EXTERNAL_INTERRUPT.clear()


def interrupt_requested() -> bool:
    """Whether a cross-thread interrupt is pending."""
    return _EXTERNAL_INTERRUPT.is_set()


class RunInterrupted(RuntimeError):
    """A supervised run was stopped by SIGINT/SIGTERM.

    ``completed``/``total`` report how far the run got so the CLI can say
    so before exiting.
    """

    def __init__(self, signum: int, completed: int, total: int) -> None:
        self.signum = signum
        self.completed = completed
        self.total = total
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        super().__init__(
            f"run interrupted by {name}: {completed}/{total} tasks finished "
            "(completed results are in the cache; re-run with the same "
            "--cache-dir to resume)"
        )


@dataclass
class _TaskState:
    """Supervision bookkeeping for one task of the batch."""

    index: int
    payload: Any
    label: str
    namespace: str | None = None
    soft_failures: int = 0
    kills: int = 0
    not_before: float = 0.0
    enqueued_at: float = 0.0
    last_detail: str = ""

    @property
    def attempts(self) -> int:
        return self.soft_failures + self.kills


#: Recovery hint attached to every quarantine diagnostic.
QUARANTINE_HINT = (
    "the task repeatedly hung, crashed, or exhausted its worker and was "
    "quarantined; the rest of the batch is unaffected -- inspect the "
    "component (or raise the deadline / memory ceiling) and re-run"
)


class Supervisor:
    """Run batches of picklable tasks under deadlines and retries."""

    def __init__(self, jobs: int, policy: SupervisionPolicy | None = None) -> None:
        self.jobs = max(1, int(jobs))
        self.policy = policy or SupervisionPolicy()
        self._rng = random.Random(self.policy.seed)
        self._signal: int | None = None

    # -- public entry point --------------------------------------------------

    def run(
        self,
        task: Callable[[Any], TaskOutcome],
        payloads: Sequence[Any],
        *,
        labels: Sequence[str] | None = None,
        namespaces: Sequence[str] | None = None,
        context: WorkerContext | None = None,
    ) -> list[TaskOutcome]:
        """Execute ``task`` over ``payloads``; outcomes align with payloads.

        ``labels`` name tasks in diagnostics and chaos plans (default ``task<i>``).  ``namespaces``
        (parallel to ``payloads``) are the tasks' worker-telemetry
        namespaces; when given, each ``exec.task`` span carries its task's
        namespace as the ``ns`` attribute, which is what lets the timeline
        re-base grafted worker span trees onto the parent clock.
        ``context`` is the run-invariant :class:`WorkerContext` delivered
        to each worker once at spawn (and installed around the parent's
        own inline execution paths), instead of being pickled into every
        task payload.
        """
        n = len(payloads)
        if labels is None:
            labels = [f"task{i}" for i in range(n)]
        outcomes: list[TaskOutcome | None] = [None] * n
        states = [
            _TaskState(index=i, payload=payloads[i], label=labels[i],
                       namespace=namespaces[i] if namespaces else None)
            for i in range(n)
        ]
        if not states:
            return []

        task, states = self._apply_chaos(task, states)
        obs_metrics.gauge("parallel.jobs").set(self.jobs)
        with obs_trace.span(
            "exec.supervised", tasks=len(states), jobs=self.jobs,
        ):
            with self._signals_installed():
                self._run_supervised(task, states, outcomes, context)
        # Every slot is filled on a normal exit; the guard keeps alignment
        # even if a future refactor leaks a hole.  It runs in-process, so
        # the worker context must be installed around it.
        payload_by_index = {s.index: s.payload for s in states}
        if any(o is None for o in outcomes):
            with using_context(context):
                for i, outcome in enumerate(outcomes):
                    if outcome is None:
                        outcomes[i] = task(payload_by_index[i])
        return outcomes  # type: ignore[return-value]

    # -- chaos ----------------------------------------------------------------

    def _apply_chaos(self, task, states):
        """Wrap payloads per the policy's chaos plan (test harness only)."""
        plan = self.policy.chaos
        if not plan:
            return task, states
        from repro.runtime.faultinject import chaos_task

        for state in states:
            fault = plan.get(state.label)
            state.payload = (fault, task, state.payload)
        return chaos_task, states

    # -- signal handling ------------------------------------------------------

    def _signals_installed(self):
        from contextlib import contextmanager

        @contextmanager
        def ctx():
            installed: list[tuple[int, Any]] = []
            if (
                self.policy.handle_signals
                and threading.current_thread() is threading.main_thread()
            ):
                def handler(signum, frame):  # noqa: ARG001
                    self._signal = signum

                for sig in (signal.SIGINT, signal.SIGTERM):
                    try:
                        installed.append((sig, signal.signal(sig, handler)))
                    except (ValueError, OSError):
                        pass
            try:
                yield
            finally:
                for sig, prev in installed:
                    try:
                        signal.signal(sig, prev)
                    except (ValueError, OSError):
                        pass

        return ctx()

    # -- the monitor loop -----------------------------------------------------

    def _run_supervised(
        self,
        task: Callable[[Any], TaskOutcome],
        states: list[_TaskState],
        outcomes: list[TaskOutcome | None],
        context: WorkerContext | None = None,
    ) -> None:
        policy = self.policy
        total = len(states)
        queued: list[_TaskState] = list(states)
        by_index = {s.index: s for s in states}
        workers: list[WorkerHandle] = []
        respawns_left = policy.respawn_budget(self.jobs)
        completed = 0

        # Attribution clock: exec.task/exec.spawn spans are timed on the
        # monotonic clock but recorded on the tracer's timeline; this pins
        # the two clocks together once so every recorded instant lands at
        # its true position relative to the stack-managed spans.
        tracer = obs_trace.active()
        mono_epoch = time.monotonic()
        trace_epoch = tracer.now() if tracer is not None else 0.0

        def rel(mono_instant: float) -> float:
            return trace_epoch + (mono_instant - mono_epoch)

        for state in states:
            state.enqueued_at = mono_epoch

        # Lane pool: a respawned worker takes over its dead predecessor's
        # lane (lowest freed lane first) instead of a fresh id, so a
        # kill/respawn cycle does not proliferate timeline Gantt lanes.
        # ``lane_gen`` counts takeovers per lane; the generation is
        # recorded on the exec.spawn span as ``respawn`` so the timeline
        # can label the lane "w1(+2)".
        lane_seq = itertools.count()
        free_lanes: list[int] = []
        lane_gen: dict[int, int] = {}
        progress_last = 0.0
        progress_painted = 0

        def paint_progress(final: bool = False) -> None:
            """Repaint the live heartbeat line (tasks/s, ETA) in place."""
            nonlocal progress_last, progress_painted
            stream = policy.progress
            if stream is None:
                return
            now = time.monotonic()
            if not final and now - progress_last < policy.progress_interval_s:
                return
            progress_last = now
            elapsed = max(now - mono_epoch, 1e-9)
            rate = completed / elapsed
            if completed >= total:
                eta = "0s"
            elif rate > 0:
                eta = f"{(total - completed) / rate:.0f}s"
            else:
                eta = "?"
            line = (
                f"[exec] {completed}/{total} tasks  {rate:.1f}/s  "
                f"eta {eta}  workers {len(workers)}  queued {len(queued)}"
            )
            try:
                stream.write("\r" + line.ljust(progress_painted))
                if final:
                    stream.write("\n")
                stream.flush()
            except (OSError, ValueError):
                return
            progress_painted = max(progress_painted, len(line))

        def record_task_span(
            w: WorkerHandle, state: _TaskState, outcome: str,
            error: str | None = None,
        ) -> None:
            """One finished attempt -> one ``exec.task`` span."""
            if tracer is None:
                return
            wall = max(time.monotonic() - w.started_at, 0.0)
            tracer.record_span(
                "exec.task",
                rel(w.started_at),
                wall,
                status="ok" if outcome == "ok" else "error",
                error=error,
                task=state.label,
                index=state.index,
                wid=w.wid,
                ns=state.namespace,
                attempt=state.attempts + 1,
                outcome=outcome,
                queue_wait_s=round(w.queue_wait_s, 9),
                pickle_s=round(w.pickle_s, 9),
                payload_bytes=w.payload_bytes,
                unpickle_s=round(w.unpickle_s, 9),
                result_bytes=w.result_bytes,
            )

        def spawn() -> WorkerHandle | None:
            t0 = time.monotonic()
            lane = heapq.heappop(free_lanes) if free_lanes else next(lane_seq)
            gen = lane_gen.get(lane, -1) + 1
            try:
                w = WorkerHandle(task, policy.memory_limit_mb,
                                 wid=f"w{lane}", context=context)
            except OSError:
                heapq.heappush(free_lanes, lane)
                return None
            lane_gen[lane] = gen
            w.lane = lane  # type: ignore[attr-defined]
            spawn_s = time.monotonic() - t0
            obs_metrics.histogram("exec.spawn_s").observe(spawn_s)
            if tracer is not None:
                tracer.record_span("exec.spawn", rel(t0), spawn_s,
                                   wid=w.wid, respawn=gen)
            workers.append(w)
            obs_metrics.gauge("exec.workers").set(len(workers))
            return w

        def retire(w: WorkerHandle) -> None:
            w.kill()
            if w in workers:
                workers.remove(w)
                heapq.heappush(free_lanes, w.lane)  # type: ignore[attr-defined]
            obs_metrics.gauge("exec.workers").set(len(workers))

        def quarantine(state: _TaskState, reason: str) -> None:
            nonlocal completed
            obs_metrics.counter("exec.quarantined").inc()
            outcomes[state.index] = TaskOutcome(
                value=None,
                error=None,
                diagnostics=(
                    Diagnostic(
                        severity=Severity.ERROR,
                        stage="exec",
                        message=(
                            f"{state.label}: task quarantined after "
                            f"{state.kills} worker kill(s) and "
                            f"{state.soft_failures} failed attempt(s): "
                            f"{reason}"
                        ),
                        component=state.label,
                        hint=QUARANTINE_HINT,
                    ),
                ),
            )
            completed += 1

        def task_failed(state: _TaskState, *, kill: bool, reason: str) -> None:
            """Charge one failure; requeue with backoff or quarantine."""
            state.last_detail = reason
            if kill:
                state.kills += 1
                obs_metrics.counter("exec.kills").inc()
                exhausted = state.kills >= policy.max_task_kills
            else:
                state.soft_failures += 1
                exhausted = state.soft_failures > policy.max_retries
            if exhausted:
                quarantine(state, reason)
                return
            obs_metrics.counter("exec.retries").inc()
            state.not_before = time.monotonic() + policy.backoff_s(
                state.attempts, self._rng
            )
            state.enqueued_at = time.monotonic()
            queued.append(state)

        def advance_worker(w: WorkerHandle) -> None:
            """Resolve the chunk head; surface the next queued task (if any)
            as the new in-flight attempt with its own deadline and costs."""
            w.advance()
            head = w.task_idx
            if head is None:
                return
            st = by_index.get(head)
            if st is not None:
                w.queue_wait_s = max(
                    time.monotonic() - max(st.enqueued_at, st.not_before), 0.0
                )
            obs_metrics.histogram("exec.queue_wait_s").observe(w.queue_wait_s)
            obs_metrics.histogram("exec.pickle_s").observe(w.pickle_s)
            obs_metrics.counter("exec.payload_bytes").inc(w.payload_bytes)

        def worker_lost(w: WorkerHandle, reason: str) -> None:
            """A worker died or was killed; charge its in-flight task (the
            chunk head), requeue the chunk's unstarted remainder uncharged,
            and replace the worker."""
            nonlocal respawns_left
            state = by_index.get(w.task_idx) if w.task_idx is not None else None
            if state is not None and outcomes[state.index] is None:
                record_task_span(w, state, "kill", error=reason)
            mates = [by_index[i] for i in list(w.chunk)[1:] if i in by_index]
            retire(w)
            now = time.monotonic()
            for mate in mates:
                if outcomes[mate.index] is None:
                    mate.enqueued_at = now
                    queued.append(mate)
            if state is not None:
                task_failed(state, kill=True, reason=reason)
            if completed < total and respawns_left > 0:
                if spawn() is not None:
                    respawns_left -= 1
                    obs_metrics.counter("exec.respawns").inc()

        def complete(w: WorkerHandle, outcome: TaskOutcome) -> None:
            nonlocal completed
            state = by_index.get(w.task_idx if w.task_idx is not None else -1)
            deadline_at = w.deadline_at
            if state is None or outcomes[state.index] is not None:
                advance_worker(w)
                return  # stale reply for a task already resolved
            record_task_span(w, state, "ok")
            advance_worker(w)
            if deadline_at is not None:
                obs_metrics.histogram("exec.deadline_margin_s").observe(
                    deadline_at - time.monotonic()
                )
            outcomes[state.index] = outcome
            completed += 1
            obs_metrics.counter("exec.completed").inc()
            obs_metrics.counter("parallel.tasks").inc()

        # Initial pool: one worker per job, capped by the work available.
        for _ in range(min(self.jobs, total)):
            if spawn() is None:
                break

        try:
            while completed < total:
                if self._signal is not None:
                    raise RunInterrupted(self._signal, completed, total)
                if _EXTERNAL_INTERRUPT.is_set():
                    raise RunInterrupted(_EXTERNAL_SIGNUM, completed, total)
                paint_progress()

                if not workers:
                    # No pool at all (or respawn budget exhausted with every
                    # worker dead): degrade to inline execution, the same
                    # never-wrong fallback the bare pool documented.  A task
                    # that already killed a worker never runs inline -- it
                    # would take the parent down with it -- so it is
                    # quarantined on the spot.
                    obs_metrics.counter("parallel.fallback_sequential").inc()
                    for state in queued:
                        if outcomes[state.index] is not None:
                            continue
                        if state.kills > 0:
                            quarantine(
                                state,
                                state.last_detail
                                or "worker pool lost; task not safe inline",
                            )
                            continue
                        t0 = time.monotonic()
                        with using_context(context):
                            outcome = task(state.payload)
                        if tracer is not None:
                            tracer.record_span(
                                "exec.task", rel(t0),
                                max(time.monotonic() - t0, 0.0),
                                task=state.label, index=state.index,
                                wid="inline", ns=state.namespace,
                                attempt=state.attempts + 1, outcome="ok",
                                queue_wait_s=round(max(t0 - state.enqueued_at,
                                                       0.0), 9),
                                pickle_s=0.0, payload_bytes=0,
                                unpickle_s=0.0, result_bytes=0,
                            )
                        outcomes[state.index] = outcome
                        completed += 1
                        obs_metrics.counter("exec.completed").inc()
                        obs_metrics.counter("parallel.tasks").inc()
                        paint_progress()
                    queued.clear()
                    continue

                now = time.monotonic()
                # Dispatch ready tasks (lowest index first) to idle workers
                # in chunks: the ready queue is spread evenly over the idle
                # workers (so nobody starves) up to the policy's chunk cap,
                # amortizing the per-message round-trip that dominates
                # short tasks.  Workers stream one reply per task, so
                # deadlines and failure charging stay per-task.
                queued.sort(key=lambda s: s.index)
                ready = [s for s in queued if s.not_before <= now]
                idle = [w for w in workers if not w.busy]
                if ready and idle:
                    cap = policy.chunk_size or AUTO_CHUNK_CAP
                    per_worker = max(
                        1, min(cap, math.ceil(len(ready) / len(idle)))
                    )
                    pos = 0
                    for w in idle:
                        batch = ready[pos:pos + per_worker]
                        if not batch:
                            break
                        try:
                            w.dispatch(
                                [(s.index, s.payload) for s in batch],
                                policy.deadline_s,
                            )
                        except (BrokenPipeError, OSError):
                            # Idle worker died between chunks: the batch was
                            # never recorded on the handle, so it stays in
                            # the queue untouched.
                            obs_metrics.counter("exec.worker_deaths").inc()
                            worker_lost(w, "worker died while idle")
                            break
                        pos += len(batch)
                        for s in batch:
                            queued.remove(s)
                        head = batch[0]
                        w.queue_wait_s = max(
                            time.monotonic()
                            - max(head.enqueued_at, head.not_before),
                            0.0,
                        )
                        obs_metrics.counter("exec.dispatched").inc(len(batch))
                        obs_metrics.histogram("exec.queue_wait_s").observe(
                            w.queue_wait_s
                        )
                        obs_metrics.histogram("exec.pickle_s").observe(
                            w.pickle_s
                        )
                        obs_metrics.counter("exec.payload_bytes").inc(
                            w.payload_bytes
                        )

                # Sleep until something can happen: a result, a deadline,
                # a backoff release, or the heartbeat tick.
                timeout = policy.poll_interval_s
                for w in workers:
                    if w.busy and w.deadline_at is not None:
                        timeout = min(timeout, max(w.deadline_at - now, 0.0))
                for state in queued:
                    if state.not_before > now:
                        timeout = min(timeout, state.not_before - now)
                busy = [w for w in workers if w.busy]
                obs_metrics.counter("exec.heartbeats").inc()
                if busy:
                    ready_conns = mp_connection.wait(
                        [w.conn for w in busy], timeout
                    )
                    conn_map = {w.conn: w for w in busy}
                    for conn in ready_conns:
                        w = conn_map[conn]
                        # Drain every reply this worker has streamed so far
                        # (a chunk produces several per wakeup), stopping
                        # when its buffer is empty or its chunk is done.
                        while True:
                            try:
                                msg = w.recv_message()
                            except (EOFError, OSError):
                                obs_metrics.counter("exec.worker_deaths").inc()
                                worker_lost(w, "worker process died mid-task")
                                break
                            obs_metrics.histogram("exec.unpickle_s").observe(
                                w.unpickle_s
                            )
                            obs_metrics.counter("exec.result_bytes").inc(
                                w.result_bytes
                            )
                            kind, task_id, *rest = msg
                            if task_id != w.task_idx:
                                pass  # reply for a task already re-routed
                            elif kind == "ok":
                                complete(w, rest[0])
                            else:
                                exc_type, exc_text = rest
                                state = by_index[task_id]
                                if outcomes[state.index] is None:
                                    record_task_span(
                                        w, state, "exc",
                                        error=f"{exc_type}: {exc_text}",
                                    )
                                advance_worker(w)
                                if outcomes[state.index] is None:
                                    task_failed(
                                        state, kill=False,
                                        reason=f"{exc_type}: {exc_text}",
                                    )
                            if not w.busy:
                                break
                            try:
                                if not w.conn.poll():
                                    break
                            except (OSError, ValueError):
                                break
                elif timeout > 0:
                    time.sleep(timeout)

                # Deadline scan: anything still busy past its deadline hangs.
                now = time.monotonic()
                for w in list(workers):
                    if w.busy and w.deadline_at is not None and now > w.deadline_at:
                        obs_metrics.counter("exec.deadline_kills").inc()
                        elapsed = now - w.started_at
                        worker_lost(
                            w,
                            f"attempt exceeded the {policy.deadline_s:.6g}s "
                            f"deadline (ran {elapsed:.1f}s); worker killed",
                        )
        finally:
            for w in list(workers):
                if w.busy:
                    w.kill()
                else:
                    w.shutdown()
            workers.clear()
            obs_metrics.gauge("exec.workers").set(0)
            if progress_painted:
                paint_progress(final=True)
