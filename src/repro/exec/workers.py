"""Supervised worker processes: warm, chunk-fed, killable.

The supervisor does not use :class:`concurrent.futures.ProcessPoolExecutor`
because that pool treats any worker death as fatal (``BrokenExecutor``
poisons every outstanding future) and offers no way to kill one hung
worker.  Here each worker owns a private duplex :func:`multiprocessing.Pipe`
so the parent can:

* detect a death promptly -- a dead worker's pipe end closes, which makes
  the connection readable (EOF) and wakes the monitor immediately;
* kill a hung worker without touching its siblings -- only that worker's
  pipe is discarded when it is replaced;
* attribute every failure to exactly one task -- the unit the supervisor
  retries, backs off, or quarantines.

Workers are daemonic: multiprocessing terminates them when the parent
exits.  If the parent dies uncleanly, a worker's pipe reaches EOF (the
worker holds no copy of the parent's end, see
:func:`release_inherited_sockets`) and the worker exits, so no orphan is
left behind.

**Warm-pool contract.**  A worker lives as long as the supervisor that
owns it, across supervised runs.  Each run's
:class:`~repro.exec.task.WorkerContext` reaches a worker once: a worker
forked for the run gets it at spawn (under the default ``fork`` start
method it is inherited copy-on-write, never pickled), and a kept worker
gets it in one ``("run", task, context)`` message before its first
chunk.  The context carries the run-invariant state -- the run's inputs,
cache handles, strictness flags.  Task functions read it back with
:func:`worker_context`; the parent's inline-fallback path installs the
same context around in-process execution via :func:`using_context`, so a
task function behaves identically in both places.

**Wire protocol.**  Parent -> worker: a *chunk* ``[(task_id, payload),
...]``, a *run* message ``("run", task, context)`` that switches a kept
worker to the next run, or ``None`` (shutdown).  The worker runs the
chunk's tasks in order and streams one reply per task as it goes --
``("ok", task_id, <pickled TaskOutcome>)`` or ``("exc", task_id,
exc_type, exc_text)`` when an exception escaped the task function (task
functions promise not to raise; escapes are exactly what supervision
exists for -- memory ceilings, chaos faults, bugs).  Streaming keeps
supervision per-task: the parent re-arms the deadline as each reply
lands, and a worker that dies mid-chunk loses only its in-flight task
(the chunk's unstarted remainder is requeued uncharged).  Chunking
amortizes the per-message pipe round-trip that dominates short tasks.
The monitor unpickles only an ``ok`` reply's envelope as it lands and
decodes the outcomes back to back when the run's last task is in, which
costs less CPU than decoding each between the workers' wakeups.

**What a reply carries.**  The outcome's value (as the bytes a cache
store made of it, when there are any: :class:`~repro.exec.task.Pickled`),
its diagnostics, and its :class:`~repro.exec.task.WorkerTelemetry`: the
task's own counters (so a worker dying mid-chunk loses none of the
answered tasks' counts), its spans when traced, and the attempt's
payload bytes, unpickle and compute times.  Chunks and replies are plain
``pickle`` (``ForkingPickler``'s per-call reducer table is kept for the
``run`` message), timed at both ends, chunk costs shared over its tasks.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import stat
import time
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterator, Sequence

from repro.exec.task import WorkerContext

#: Seconds to wait for a worker to exit after a graceful shutdown message
#: (or after a kill) before escalating.
JOIN_TIMEOUT_S = 2.0

_PROTOCOL = pickle.HIGHEST_PROTOCOL  # of chunks and replies

#: The process-wide WorkerContext, installed once at worker startup (or
#: temporarily by :func:`using_context` for parent-side inline execution).
_WORKER_CONTEXT: WorkerContext | None = None


def worker_context() -> WorkerContext | None:
    """The installed :class:`WorkerContext`, or ``None`` outside a pool."""
    return _WORKER_CONTEXT


def require_worker_context() -> WorkerContext:
    """The installed context; raises if the task runs without one."""
    if _WORKER_CONTEXT is None:
        raise RuntimeError(
            "no WorkerContext installed -- this task function must run "
            "under a supervised pool (or inside using_context())"
        )
    return _WORKER_CONTEXT


def _install_context(context: WorkerContext | None) -> None:
    """Install ``context`` process-wide.

    Runs at :func:`worker_main` startup, on each run message, and around
    the parent's inline execution (:func:`using_context`).
    """
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


@contextmanager
def using_context(context: WorkerContext | None) -> Iterator[None]:
    """Temporarily install ``context`` in *this* process.

    The supervisor wraps its inline-fallback path (and the parent-side
    replay guard) in this so task functions see the same context they
    would inside a worker.
    """
    global _WORKER_CONTEXT
    prev = _WORKER_CONTEXT
    _install_context(context)
    try:
        yield
    finally:
        _WORKER_CONTEXT = prev


def apply_memory_limit(limit_mb: int) -> bool:
    """Cap this process's address space at ``limit_mb`` MiB of headroom.

    The ceiling is the current address space (``VmSize`` from
    ``/proc/self/statm``) plus ``limit_mb`` MiB, so a worker forked from a
    large parent starts with the same budget as one forked from a small
    parent instead of starting over it.  Returns False (instead of
    raising) where the current size cannot be read, on platforms without
    ``resource``, or where the limit cannot be lowered -- the ceiling is
    an extra guard rail, not a correctness requirement.
    """
    try:
        import resource

        with open("/proc/self/statm", encoding="ascii") as statm:
            pages = int(statm.read().split()[0])
        current = pages * os.sysconf("SC_PAGE_SIZE")
        limit = current + int(limit_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        return True
    except Exception:  # noqa: BLE001 -- best-effort on exotic platforms
        return False


def release_inherited_sockets(keep: int) -> None:
    """Drop this process's hold on every socket but ``keep``.

    A ``fork`` worker inherits every descriptor its parent had open at
    the fork -- in the serve daemon, the listening socket and the client
    connections of that moment.  A worker outlives its run, so holding
    them would keep a connection the daemon closed open for the peer.
    Each inherited socket is pointed at ``/dev/null`` with ``dup2``
    rather than closed, so its descriptor number stays taken and a stale
    socket object that closes it later cannot close a file opened since.
    Best-effort: where ``/proc/self/fd`` cannot be read nothing changes.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                continue  # the descriptor listdir itself used, now gone
    finally:
        os.close(null)


def worker_main(
    conn: Connection,
    task: Callable[[Any], Any],
    memory_limit_mb: int | None,
    context: WorkerContext | None = None,
) -> None:
    """The worker loop: receive a chunk, stream one outcome per task.

    The memory ceiling is set once, for the worker's whole lifetime; a
    run message only swaps the task function and the context.  A
    ``fork`` worker inherits its parent's handlers; SIGTERM gets its
    default back so ``kill -TERM`` stops it, and SIGINT (the parent's
    Ctrl-C, which drains the pool) is ignored.
    """
    for signum, action in ((signal.SIGTERM, signal.SIG_DFL),
                           (signal.SIGINT, signal.SIG_IGN)):
        try:
            signal.signal(signum, action)
        except (ValueError, OSError):
            pass
    release_inherited_sockets(conn.fileno())
    _install_context(context)
    if memory_limit_mb is not None:
        apply_memory_limit(memory_limit_mb)
    while True:
        try:
            buf = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent went away
        t0 = time.perf_counter()
        msg = pickle.loads(buf)
        unpickle_s = time.perf_counter() - t0
        if msg is None:
            return  # graceful shutdown
        if isinstance(msg, tuple):  # ("run", task, context): next run
            _, task, context = msg
            _install_context(context)
            continue
        # Chunk costs are shared evenly across its tasks so each attempt's
        # attribution stays meaningful (and nonzero).
        share_n = max(1, len(msg))
        unpickle_share = unpickle_s / share_n
        byte_share = max(1, len(buf) // share_n)
        for task_id, payload in msg:
            try:
                t0 = time.perf_counter()
                value = task(payload)
                compute_s = time.perf_counter() - t0
                telemetry = getattr(value, "telemetry", None)
                if telemetry is not None:
                    telemetry.costs = (byte_share, unpickle_share, compute_s)
                reply = ("ok", task_id, value)
            except MemoryError:
                # Drop references before replying: the allocation that
                # tripped the ceiling may still be reachable from the frame.
                reply = ("exc", task_id, "MemoryError",
                         "task exceeded the worker memory ceiling")
            except BaseException as exc:  # noqa: BLE001 -- supervised
                reply = ("exc", task_id, type(exc).__name__, str(exc))
            try:
                if reply[0] == "ok":  # the outcome travels as its own bytes
                    reply = ("ok", task_id, pickle.dumps(value, _PROTOCOL))
                conn.send_bytes(pickle.dumps(reply, _PROTOCOL))
            except (BrokenPipeError, OSError):
                return
            except Exception as exc:  # noqa: BLE001 -- unpicklable outcome
                try:
                    conn.send(("exc", task_id, type(exc).__name__,
                               f"result could not be returned: {exc}"))
                except Exception:  # noqa: BLE001
                    return


class WorkerHandle:
    """Parent-side handle for one supervised worker process."""

    def __init__(
        self,
        task: Callable[[Any], Any],
        memory_limit_mb: int | None,
        wid: str = "w?",
        context: WorkerContext | None = None,
    ) -> None:
        ctx = mp.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, task, memory_limit_mb, context),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn: Connection = parent_conn
        #: Stable lane id of this worker within one supervised run ("w0",
        #: "w1", ...) -- the timeline's Gantt lane.  A respawn reuses its
        #: dead predecessor's lane id (see the supervisor's lane pool), so
        #: kills do not proliferate lanes; a kept worker gets a lane anew
        #: in each run.
        self.wid = wid
        self.lane = 0
        #: Task ids dispatched to this worker and not yet resolved; the
        #: head is the task in flight, the rest are queued in the worker.
        self.chunk: deque[int] = deque()
        self._deadline_s: float | None = None
        #: Monotonic instants bounding the current attempt (the chunk
        #: head); re-armed by :meth:`advance` as replies stream in.
        self.started_at: float = 0.0
        self.deadline_at: float | None = None
        #: Parent-side costs of the attempt in flight (for the attempt's
        #: ``exec.task`` span): payload pickle time/size at dispatch
        #: (chunk totals shared evenly over its tasks), then result
        #: transfer size/unpickle time filled in by recv_message.
        self.pickle_s: float = 0.0
        self.payload_bytes: int = 0
        self.unpickle_s: float = 0.0
        self.result_bytes: int = 0
        self.queue_wait_s: float = 0.0

    @property
    def busy(self) -> bool:
        return bool(self.chunk)

    @property
    def task_idx(self) -> int | None:
        """The task currently in flight (chunk head), or None if idle."""
        return self.chunk[0] if self.chunk else None

    def _arm(self, now: float) -> None:
        self.started_at = now
        self.deadline_at = (
            now + self._deadline_s if self._deadline_s is not None else None
        )

    def dispatch(self, items: Sequence[tuple[int, Any]],
                 deadline_s: float | None) -> None:
        """Send one chunk; raises OSError/BrokenPipeError if the worker died.

        The chunk is recorded on the handle only after the send succeeds,
        so a dispatch failure leaves the handle idle and the tasks safely
        in the caller's queue.
        """
        t0 = time.perf_counter()
        buf = pickle.dumps(list(items), _PROTOCOL)
        pickle_total = time.perf_counter() - t0
        n = max(1, len(items))
        self.pickle_s = pickle_total / n
        self.payload_bytes = max(1, len(buf) // n)
        self.unpickle_s = 0.0
        self.result_bytes = 0
        self.conn.send_bytes(buf)
        self.chunk = deque(idx for idx, _ in items)
        self._deadline_s = deadline_s
        self._arm(time.monotonic())

    def recv_message(self) -> Any:
        """Receive one worker reply, recording its size and unpickle time."""
        buf = self.conn.recv_bytes()
        t0 = time.perf_counter()
        msg = pickle.loads(buf)
        self.unpickle_s = time.perf_counter() - t0
        self.result_bytes = len(buf)
        return msg

    def advance(self) -> None:
        """Resolve the chunk head; re-arm the deadline for the next task."""
        if self.chunk:
            self.chunk.popleft()
        if self.chunk:
            self._arm(time.monotonic())
        else:
            self.deadline_at = None
            self._deadline_s = None

    def kill(self) -> None:
        """Forcibly terminate the worker and release its pipe."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(JOIN_TIMEOUT_S)
        # close() releases the process handle promptly (3.7+: no zombie).
        try:
            self.proc.close()
        except (ValueError, AttributeError):
            pass

    def shutdown(self) -> None:
        """Ask the worker to exit; escalate to a kill if it does not."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(JOIN_TIMEOUT_S)
        self.kill()
