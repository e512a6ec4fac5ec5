"""Process-local metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments that
pipeline stages bump as they work -- files parsed, tokens lexed, optimizer
iterations, fallback activations (the full name catalog is in DESIGN.md,
"Observability").  Unlike spans, metrics are always on: incrementing a
counter is cheap enough for hot paths, and a snapshot of the default
registry rides along in every ``--trace`` file and ``RunReport``.

Instruments are created on first use (``counter(name).inc()``), so callers
never need registration boilerplate, and a snapshot only contains
instruments the run actually touched.

Thread-safety: instrument creation and whole-registry operations
(``snapshot``/``dump``/``merge``/``reset``) take a registry lock, so a
reader thread (the serve daemon's ``/metrics`` endpoint) can snapshot
while a single writer thread works.  Individual ``inc``/``set``/
``observe`` calls stay lock-free -- the pipeline has one writer thread at
a time, and hot-path increments must stay cheap.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: How many of a histogram's most recent observations it keeps for
#: percentile queries.  ``count``/``sum``/``min``/``max`` stay exact over
#: every observation; only the percentiles look at this window, so a
#: long-lived process (the serve daemon) observes per request in bounded
#: memory.
HISTOGRAM_WINDOW = 4096


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot inc by {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """A distribution of observed values with percentile queries.

    ``count``, ``sum``, ``min`` and ``max`` are exact running totals;
    ``values`` holds the most recent :data:`HISTOGRAM_WINDOW`
    observations, which the percentiles are computed over.
    """

    name: str
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    values: deque = field(
        default_factory=lambda: deque(maxlen=HISTOGRAM_WINDOW)
    )

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.values.append(value)

    def dump(self) -> dict[str, Any]:
        """The exact totals plus the window, for :meth:`fold`."""
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "values": list(self.values)}

    def fold(self, dump: dict[str, Any]) -> None:
        """Add another histogram's :meth:`dump` to this one: the totals
        add and the window takes the dump's recent values."""
        self.count += int(dump["count"])
        self.sum += float(dump["sum"])
        self.min = min(self.min, float(dump["min"]))
        self.max = max(self.max, float(dump["max"]))
        self.values.extend(dump["values"])

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of the window, interpolated."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            raise ValueError(f"histogram {self.name}: no observations")
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        frac = rank - lo
        if lo + 1 >= len(ordered):
            return ordered[-1]
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac

    def snapshot(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """A namespace of counters/gauges/histograms for one process (or test)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.RLock()

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            with self._lock:
                self._counters.setdefault(name, Counter(name))
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            with self._lock:
                self._gauges.setdefault(name, Gauge(name))
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            with self._lock:
                self._histograms.setdefault(name, Histogram(name))
        return self._histograms[name]

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> dict[str, Any]:
        """All touched instruments, sorted by name (deterministic)."""
        with self._lock:
            return {
                "counters": {
                    n: c.value for n, c in sorted(self._counters.items())
                },
                "gauges": {
                    n: g.value for n, g in sorted(self._gauges.items())
                },
                "histograms": {
                    n: h.snapshot()
                    for n, h in sorted(self._histograms.items())
                },
            }

    def dump(self) -> dict[str, Any]:
        """A mergeable export of this registry.

        Unlike :meth:`snapshot` (which aggregates histograms down to
        percentiles), ``dump`` keeps each histogram's exact totals and
        its window of raw observations (:meth:`Histogram.dump`), so a
        pool worker's registry folds into the parent's with :meth:`merge`
        and no count is lost.
        """
        with self._lock:
            return {
                "counters": {
                    n: c.value for n, c in sorted(self._counters.items())
                },
                "gauges": {
                    n: g.value for n, g in sorted(self._gauges.items())
                },
                "histograms": {
                    n: h.dump() for n, h in sorted(self._histograms.items())
                },
            }

    def merge(self, dump: dict[str, Any]) -> None:
        """Fold a worker registry :meth:`dump` into this registry.

        Counters add, histograms fold (:meth:`Histogram.fold`), and gauges
        (last-write-wins by definition) take the worker's value.  This is
        the join-side half of the worker-snapshot contract used by
        :mod:`repro.exec.pool`: process-local instruments bumped in a pool
        worker are never silently dropped.
        """
        with self._lock:
            for name, value in dump.get("counters", {}).items():
                self.counter(name).inc(float(value))
            for name, value in dump.get("gauges", {}).items():
                self.gauge(name).set(float(value))
            for name, hist in dump.get("histograms", {}).items():
                self.histogram(name).fold(hist)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The default registry the pipeline instruments write to.
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _DEFAULT


def counter(name: str) -> Counter:
    return _DEFAULT.counter(name)


def gauge(name: str) -> Gauge:
    return _DEFAULT.gauge(name)


def histogram(name: str) -> Histogram:
    return _DEFAULT.histogram(name)


def snapshot() -> dict[str, Any]:
    return _DEFAULT.snapshot()


def reset() -> None:
    _DEFAULT.reset()


@contextmanager
def using(reg: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route module-level instruments to ``reg`` for the ``with`` body.

    Pool workers wrap each task in ``using(MetricsRegistry())`` so their
    counts accumulate in a private registry (the fork start method would
    otherwise leave them double-counting into an inherited copy of the
    parent's), then ship ``reg.dump()`` back for the parent to ``merge``.
    """
    global _DEFAULT
    prev = _DEFAULT
    _DEFAULT = reg
    try:
        yield reg
    finally:
        _DEFAULT = prev
