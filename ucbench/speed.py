#!/usr/bin/env python3
"""Host-speed monitor: how fast each CPU runs, sampled through a run.

On a shared host a CPU's speed is not constant.  When another tenant
loads the same physical core, the same Python code takes up to twice
as long, in CPU time as well as in wall time, and the two CPUs of a
machine change speed independently, many times a second (README.md).
Bounded metrics therefore report CPU time *at a reference speed*.

One monitor process per CPU, pinned to it, runs a fixed piece of
pure-Python work (``probe_cpu_s``) every ``INTERVAL_S`` and appends
``(monotonic time, CPU seconds taken)`` to a file.  The probe never
calls the program, so a change to the program cannot move it.  A step
that used ``T`` CPU seconds on some CPUs between ``t0`` and ``t1`` is
reported as ``T`` times the mean of ``PROBE_REF_S / cost`` over the
samples those CPUs took in that window: the seconds the step would
have taken at the reference speed.

Run as a script it is one monitor::

    python3 ucbench/speed.py --cpu 0 --out samples.bin
"""

from __future__ import annotations

import argparse
import ast
import bisect
import gc
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

#: The probe parses this fixed Python source (20 small functions).
PROBE_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    return [a + k * {i} for k in b if k] or {{'k': a.b[{i}]}}\n"
    for i in range(20)
)
#: CPU seconds one probe takes on the development machine when no other
#: tenant slows its core: the reference speed.
PROBE_REF_S = 0.0009
#: Seconds between the start of one probe and the next (the monitor
#: sleeps in between, so it takes about 5% of its CPU).
INTERVAL_S = 0.02
#: One sample: start time (time.monotonic) and probe CPU seconds.
_RECORD = struct.Struct("<dd")
#: Seconds to wait for every monitor's first sample.
START_TIMEOUT_S = 30.0


def probe_cpu_s() -> float:
    """CPU seconds to parse ``PROBE_SOURCE`` into a Python AST.

    Parsing into a tree of small objects is the kind of work the program
    does most.  Of the probes tried on the development machine (object
    and dict churn, pointer chasing through 35 MB, regular expressions,
    pickling, parsing), this one tracked the program's own speed best
    (README.md).  The garbage collector is off meanwhile, so the cost
    does not depend on the size of the heap.
    """
    gc.disable()
    try:
        t0 = time.process_time()
        ast.parse(PROBE_SOURCE)
        return time.process_time() - t0
    finally:
        gc.enable()


class SpeedMonitor:
    """One monitor process per CPU, and the samples they wrote."""

    def __init__(self, cpus: list[int], workdir: Path) -> None:
        self.cpus = cpus
        self._files = {}
        self._samples: dict[int, list[tuple[float, float]]] = {}
        self._procs: list[subprocess.Popen] = []
        try:
            for cpu in cpus:
                path = workdir / f"speed{cpu}.bin"
                path.write_bytes(b"")
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--cpu", str(cpu),
                     "--out", str(path)],
                ))
                self._files[cpu] = open(path, "rb")
                self._samples[cpu] = []
            deadline = time.monotonic() + START_TIMEOUT_S
            while not all(self._read(cpu) for cpu in cpus):
                if time.monotonic() > deadline or any(
                    p.poll() is not None for p in self._procs
                ):
                    raise RuntimeError("speed monitor did not start")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _read(self, cpu: int) -> list[tuple[float, float]]:
        """Every sample of ``cpu`` so far (reads what was appended)."""
        f = self._files[cpu]
        data = f.read()
        whole = len(data) - len(data) % _RECORD.size
        f.seek(whole - len(data), os.SEEK_CUR)
        self._samples[cpu].extend(_RECORD.iter_unpack(data[:whole]))
        return self._samples[cpu]

    def scale(self, t0: float, t1: float, cpus: list[int] | None = None
              ) -> float:
        """Mean reference-over-measured speed of ``cpus`` (default: all)
        between monotonic times ``t0`` and ``t1``.

        Samples starting up to one interval before ``t0`` count too, so
        a window shorter than the interval still has one.
        """
        ratios = []
        for cpu in cpus if cpus is not None else self.cpus:
            samples = self._read(cpu)
            # Samples are in time order; the two either side of the
            # window stand in when it holds none.
            lo = bisect.bisect_left(samples, (t0 - INTERVAL_S,))
            hi = bisect.bisect_right(samples, (t1, float("inf")))
            window = samples[lo:hi] or samples[max(lo - 1, 0):lo + 1]
            ratios.extend(PROBE_REF_S / cost for _, cost in window)
        return sum(ratios) / len(ratios)

    def slowdowns(self) -> list[float]:
        """Every sample's cost over the reference cost."""
        return [cost / PROBE_REF_S
                for cpu in self.cpus for _, cost in self._read(cpu)]

    def stop(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for f in self._files.values():
            f.close()


def monitor(cpu: int, out: Path) -> None:
    """Probe ``cpu`` every ``INTERVAL_S`` until the parent is gone."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    with open(out, "ab", buffering=0) as f:
        next_t = time.monotonic()
        while os.getppid() == parent:
            start = time.monotonic()
            f.write(_RECORD.pack(start, probe_cpu_s()))
            next_t = max(next_t + INTERVAL_S, time.monotonic())
            time.sleep(max(0.0, next_t - time.monotonic()))


def main() -> int:
    parser = argparse.ArgumentParser(description="one host-speed monitor")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    try:
        monitor(args.cpu, args.out)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
