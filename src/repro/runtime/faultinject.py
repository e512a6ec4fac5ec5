"""Deterministic fault injection for the measurement & fitting pipeline.

Robustness claims need proof.  This harness corrupts each pipeline input
class in a reproducible way so the tier-2 suite (``pytest -m faultinject``)
can assert that every stage *isolates* the fault, *degrades* along the
documented ladder, and *reports* a structured diagnostic naming the stage
and source location:

* **HDL sources** -- :func:`truncate_source`, :func:`swap_tokens`,
  :func:`corrupt_generate_bound` produce syntax errors, scrambled token
  streams, and runaway generate loops respectively.
* **Dataset rows** -- :func:`corrupt_csv` rewrites effort cells to
  NaN/zero/negative values or makes metric columns exactly collinear.
* **Optimizer behavior** -- :func:`forced_nonconvergence` sabotages the
  optimizer behind ``fit_nlme`` (and optionally the Laplace fitter) so the
  fallback chain in :mod:`repro.stats.robust` demonstrably engages.
* **Cache entries** -- :func:`poison_cache` truncates or garbage-fills
  on-disk synthesis-cache entries so the ``pytest -m par`` suite can prove
  a poisoned cache degrades to a recompute (with a WARNING diagnostic)
  instead of crashing or serving garbage.
* **Worker processes** -- :func:`hang_worker`, :func:`kill_worker`,
  :func:`slow_task`, and :func:`oom_task` reproduce the failure modes the
  supervised pool of :mod:`repro.exec` exists for (hangs past the
  deadline, hard deaths, near-deadline stragglers, memory-ceiling trips).
  :func:`chaos_task` is the picklable trampoline the supervisor swaps in
  when a :class:`~repro.exec.SupervisionPolicy` carries a chaos plan: it
  applies the planned fault (:func:`apply_worker_fault`), then runs the
  real task.  The ``pytest -m chaos`` suite drives these against
  generated catalogs with known ground truth.

Everything is seeded or purely positional: the same call always produces
the same corruption.
"""

from __future__ import annotations

import io
import csv
import re
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.hdl.source import SourceFile

# -- HDL source corruption --------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def truncate_source(source: SourceFile, keep_fraction: float = 0.6) -> SourceFile:
    """Cut the file off mid-stream, as an interrupted checkout/upload would."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    cut = int(len(source.text) * keep_fraction)
    return SourceFile(source.name, source.text[:cut])


def swap_tokens(source: SourceFile, n_swaps: int = 3, seed: int = 1) -> SourceFile:
    """Swap pairs of identifier tokens, scrambling the token stream."""
    tokens = list(_TOKEN_RE.finditer(source.text))
    if len(tokens) < 2:
        return source
    rng = np.random.default_rng(seed)
    text = source.text
    for _ in range(n_swaps):
        i, j = sorted(rng.choice(len(tokens), size=2, replace=False))
        a, b = tokens[i], tokens[j]
        text = (
            text[: a.start()]
            + b.group()
            + text[a.end() : b.start()]
            + a.group()
            + text[b.end() :]
        )
        # Re-tokenize so later swaps use valid offsets of the mutated text.
        tokens = list(_TOKEN_RE.finditer(text))
        if len(tokens) < 2:
            break
    return SourceFile(source.name, text)


_GEN_BOUND_RE = re.compile(
    r"(for\s*\(\s*\w+\s*=\s*[^;]+;\s*\w+\s*<\s*)(\w+)", re.MULTILINE
)


def corrupt_generate_bound(
    source: SourceFile, bound: int = 10_000_000
) -> SourceFile:
    """Rewrite the first ``for (i = ...; i < X; ...)`` bound to ``bound``.

    With the default bound the elaborator's unroll limit trips, modelling a
    corrupted parameter binding that sends a generate loop off to infinity.
    """
    text, count = _GEN_BOUND_RE.subn(rf"\g<1>{bound}", source.text, count=1)
    if count == 0:
        raise ValueError(f"{source.name}: no for-loop bound found to corrupt")
    return SourceFile(source.name, text)


# -- dataset corruption -----------------------------------------------------

#: Supported dataset fault classes.
CSV_FAULTS = ("nan_effort", "zero_effort", "negative_effort", "collinear_metrics")


def corrupt_csv(
    csv_text: str,
    fault: str,
    rows: Sequence[int] | None = None,
    scale: float = 3.0,
) -> str:
    """Deterministically corrupt a dataset CSV.

    ``rows`` are 0-based data-row indices (header excluded); default is the
    first row for effort faults.  ``collinear_metrics`` ignores ``rows`` and
    rewrites the *last* metric column to ``scale`` times the first, making
    the pair exactly collinear.
    """
    if fault not in CSV_FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {CSV_FAULTS}")
    reader = csv.reader(io.StringIO(csv_text))
    table = [row for row in reader if row]
    header, data = table[0], table[1:]
    if fault == "collinear_metrics":
        if len(header) < 5:
            raise ValueError("collinear_metrics needs at least two metric columns")
        for row in data:
            row[-1] = repr(float(row[3]) * scale)
    else:
        replacement = {"nan_effort": "nan", "zero_effort": "0.0",
                       "negative_effort": "-4.5"}[fault]
        for idx in rows if rows is not None else (0,):
            data[idx][2] = replacement
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(data)
    return buf.getvalue()


# -- cache poisoning --------------------------------------------------------

#: Supported cache fault classes.
CACHE_FAULTS = ("truncate", "garbage", "wrong_type")


def poison_cache(cache, fault: str = "truncate", limit: int | None = None) -> int:
    """Corrupt entries of a :class:`~repro.cache.SynthesisCache` on disk.

    ``truncate`` cuts each entry to its first half (an interrupted write
    without the atomic-rename protection), ``garbage`` overwrites it with
    non-pickle bytes, and ``wrong_type`` replaces the payload with a valid
    pickle of the wrong type.  At most ``limit`` entries (default: all) are
    poisoned, in sorted-path order so runs are deterministic.  Returns the
    number of entries poisoned.
    """
    import pickle

    if fault not in CACHE_FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {CACHE_FAULTS}")
    poisoned = 0
    for path in cache.entries():
        if limit is not None and poisoned >= limit:
            break
        if fault == "truncate":
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])
        elif fault == "garbage":
            path.write_bytes(b"not a pickle \x00\xff")
        else:
            path.write_bytes(pickle.dumps({"not": "a SynthesisReport"}))
        poisoned += 1
    return poisoned


# -- worker chaos (drives the pytest -m chaos suite) ------------------------

#: Supported worker fault classes (first element of a chaos-plan entry).
WORKER_FAULTS = ("hang", "kill", "slow", "oom", "exc", "kill_once", "exc_once")


def hang_worker(duration_s: float = 3600.0) -> None:
    """Stop responding, as a deadlocked or livelocked worker would.

    The sleep is far past any test deadline; the supervisor is expected to
    kill the worker long before it returns.
    """
    import time

    time.sleep(duration_s)


def kill_worker() -> None:
    """Die instantly (SIGKILL), as the kernel OOM killer or a segfault would.

    No Python-level cleanup runs: the pipe closes at EOF and the parent
    sees a dead worker, not an exception message.
    """
    import os
    import signal as _signal

    os.kill(os.getpid(), _signal.SIGKILL)


def slow_task(delay_s: float = 0.2) -> None:
    """Delay before doing the real work -- a straggler, not a hang."""
    import time

    time.sleep(delay_s)


def oom_task(mib: int = 8192) -> None:
    """Allocate ``mib`` MiB so a worker memory ceiling trips.

    Under a :class:`~repro.exec.SupervisionPolicy` ``memory_limit_mb``
    ceiling (RLIMIT_AS) the allocation raises a genuine ``MemoryError``.
    Without a ceiling a real allocation of the default 8 GiB would be its
    own fault injection, so the error is simulated instead -- the worker
    surfaces the same ``MemoryError`` either way.
    """
    try:
        import resource

        soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
        unlimited = soft == resource.RLIM_INFINITY
    except Exception:  # noqa: BLE001 -- no resource module on this platform
        unlimited = True
    if unlimited:
        raise MemoryError(f"simulated {mib} MiB allocation (no ceiling set)")
    data = bytearray(mib << 20)  # genuinely trips the RLIMIT_AS ceiling
    del data


def _first_hit(sentinel: str) -> bool:
    """True exactly once per sentinel path (atomic create-if-missing)."""
    try:
        with open(sentinel, "x"):
            return True
    except FileExistsError:
        return False


def apply_worker_fault(fault: Sequence[object]) -> None:
    """Apply one chaos-plan fault ``(name, *args)`` inside a worker.

    ``hang``/``kill``/``slow``/``oom`` model infrastructure failures;
    ``exc`` raises every attempt (a deterministic task bug), while
    ``kill_once``/``exc_once`` take a sentinel path and fail only the
    first attempt that touches it -- the transient faults retries exist
    for.
    """
    name, *args = fault
    if name == "hang":
        hang_worker(*(float(a) for a in args))
    elif name == "kill":
        kill_worker()
    elif name == "slow":
        slow_task(*(float(a) for a in args))
    elif name == "oom":
        oom_task(*(int(a) for a in args))
    elif name == "exc":
        raise RuntimeError(str(args[0]) if args else "injected task failure")
    elif name == "kill_once":
        if _first_hit(str(args[0])):
            kill_worker()
    elif name == "exc_once":
        if _first_hit(str(args[0])):
            raise RuntimeError("injected transient failure (first attempt)")
    else:
        raise ValueError(f"unknown worker fault {name!r}; "
                         f"choose from {WORKER_FAULTS}")


def chaos_task(payload):
    """Supervisor trampoline: apply the planned fault, then run the task.

    ``payload`` is ``(fault, task, inner_payload)`` as packed by
    :meth:`repro.exec.Supervisor._apply_chaos`; ``fault`` is ``None`` for
    healthy tasks (the plan only names the injured ones).
    """
    fault, task, inner = payload
    if fault is not None:
        apply_worker_fault(tuple(fault))
    return task(inner)


# -- optimizer sabotage -----------------------------------------------------


def _sabotaged(minimize):
    """Wrap an optimizer (``scipy.optimize.minimize``, or the one-metric
    profile search of :mod:`repro.stats.nlme`): run it, then wreck the
    answer.

    The returned point is pushed away from the optimum and ``success`` is
    cleared, so both the optimizer flag and the post-hoc convergence
    verification (gradient norm at the reported point) fail -- exactly what
    a genuinely non-converged run looks like from the outside.
    """

    def wrapper(fun, x0, *args, **kwargs):
        res = minimize(fun, x0, *args, **kwargs)
        res.x = np.asarray(res.x, dtype=float) + 0.9
        res.success = False
        return res

    return wrapper


@contextmanager
def forced_nonconvergence(
    stages: Sequence[str] = ("exact",),
) -> Iterator[None]:
    """Force non-convergence of the chosen fitting stages.

    ``stages`` may contain ``"exact"`` (the exact-ML fitter in
    :mod:`repro.stats.nlme`: its multi-start optimizer and its one-metric
    profile search) and/or ``"laplace"`` (the quadrature fitter in
    :mod:`repro.stats.laplace`).  Within the context every optimizer run of
    the selected stages returns a perturbed, unsuccessful result; the
    fixed-effects fallback is never sabotaged, so the degradation ladder
    always terminates.
    """
    from repro.stats import laplace as laplace_mod
    from repro.stats import nlme as nlme_mod

    unknown = set(stages) - {"exact", "laplace"}
    if unknown:
        raise ValueError(f"unknown stages {sorted(unknown)}")
    hooks = []
    if "exact" in stages:
        hooks += [(nlme_mod, "_MINIMIZE"), (nlme_mod, "_PROFILE_SEARCH")]
    if "laplace" in stages:
        hooks.append((laplace_mod, "_MINIMIZE"))
    saved: list[tuple[object, str, object]] = []
    try:
        for module, name in hooks:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, _sabotaged(getattr(module, name)))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
