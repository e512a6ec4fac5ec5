"""Drive a ``ucomplexity serve`` daemon as a closed loop.

The daemon runs as a subprocess (``--jobs nproc --port 0``), exactly as
a user would start it.  Load comes from ``nproc`` client threads, each
holding one keep-alive connection and sending its next request only
after the previous response arrived (a closed loop: a slow daemon gets
less load, and no backlog can grow).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: Seconds a daemon may take to announce its port before it is killed.
LAUNCH_TIMEOUT_S = 60.0
#: Per-request client timeout.
REQUEST_TIMEOUT_S = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

def process_tree_cpu_s(pid: int, descendants: bool = True) -> float:
    """CPU seconds used so far by ``pid`` and, by default, all its
    descendants.

    Live threads are read from ``/proc/<pid>/task/*/schedstat``
    (nanoseconds on a CPU); children that already exited and were reaped
    (pool workers torn down after a batch) count through the ``cutime``
    and ``cstime`` fields of ``/proc/<pid>/stat``, in clock ticks.  The
    kernel does not count time the hypervisor steals from this machine,
    so the figure does not swing with a busy host the way wall time does.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return 0.0
    total = 0.0
    if descendants:
        cutime, cstime = (int(x) for x in stat.split()[13:15])
        total = (cutime + cstime) / _CLOCK_TICKS
    children: list[str] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            total += int((task / "schedstat").read_text().split()[0]) / 1e9
            children += (task / "children").read_text().split()
        except OSError:
            continue  # the thread exited while we read
    if not descendants:
        return total
    return total + sum(process_tree_cpu_s(int(child)) for child in children)


@dataclass
class Response:
    latency_s: float
    status: int
    body: bytes


@dataclass
class Daemon:
    """One running daemon subprocess and its listen port."""

    proc: subprocess.Popen
    port: int
    setup_s: float
    #: CPU seconds the daemon used from launch to the first healthz 200.
    setup_cpu_s: float = 0.0
    log: Any = field(repr=False, default=None)

    @classmethod
    def launch(cls, root: Path, workdir: Path, jobs: int) -> "Daemon":
        """Start a daemon on a fresh cache; time launch -> first healthz 200."""
        workdir.mkdir(parents=True, exist_ok=True)
        log = open(workdir / "daemon.log", "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--jobs", str(jobs), "--port", "0", "--grace", "10",
                "--cache-dir", str(workdir / "cache"),
            ],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
        )
        daemon = cls(proc, 0, 0.0, log=log)
        watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline().decode("utf-8", "replace")
            if "listening on http://" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            daemon.port = int(line.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection(
                "127.0.0.1", daemon.port, timeout=10
            )
            try:
                while True:
                    conn.request("GET", "/healthz")
                    resp = conn.getresponse()
                    resp.read()
                    if resp.status == 200:
                        break
                    time.sleep(0.005)
            finally:
                conn.close()
        except BaseException:
            daemon.stop()
            raise
        finally:
            watchdog.cancel()
        daemon.setup_s = time.perf_counter() - t0
        daemon.setup_cpu_s = daemon.cpu_s()
        return daemon

    def cpu_s(self, workers: bool = True) -> float:
        """CPU seconds used so far by the daemon and (by default) its
        pool workers."""
        return process_tree_cpu_s(self.proc.pid, descendants=workers)

    def metrics(self) -> dict[str, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            return json.loads(resp.read())["metrics"]
        finally:
            conn.close()

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.log is not None:
            self.log.close()


def closed_loop(
    port: int, bodies: Sequence[bytes], clients: int
) -> tuple[list[Response], float]:
    """Send every body once over ``clients`` keep-alive connections.

    Returns the responses in ``bodies`` order and the loop's wall time.
    """
    out: list[Response | None] = [None] * len(bodies)
    lock = threading.Lock()
    next_index = [0]
    errors: list[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            while True:
                with lock:
                    i = next_index[0]
                    next_index[0] += 1
                if i >= len(bodies):
                    return
                t0 = time.perf_counter()
                conn.request(
                    "POST", "/measure", body=bodies[i],
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                body = resp.read()
                out[i] = Response(time.perf_counter() - t0, resp.status, body)
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(REQUEST_TIMEOUT_S * max(1, len(bodies)))
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"serve client failed: {errors[0]!r}")
    return [r for r in out if r is not None], wall
