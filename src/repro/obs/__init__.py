"""Observability layer: tracing, metrics, and fit telemetry.

Zero-dependency instrumentation threaded through the whole
measure -> fit -> report pipeline (see DESIGN.md, "Observability"):

* :mod:`repro.obs.trace` -- nested :class:`Span` trees with wall/CPU time,
  JSONL export, and a no-op module API (:func:`span`, :func:`traced`) that
  library code can call unconditionally.
* :mod:`repro.obs.metrics` -- a process-local :class:`MetricsRegistry` of
  counters/gauges/histograms (files parsed, optimizer iterations,
  fallback activations, ...).
* :mod:`repro.obs.fittrace` -- per-iteration optimizer telemetry
  (objective / gradient norm / step) for the NLME fitters.
* :mod:`repro.obs.report` -- :class:`RunReport` bundling + the timings
  rendering behind ``--profile`` and ``ucomplexity timings``.
* :mod:`repro.obs.attrib` -- cost attribution over a recorded trace:
  per-name rollups, critical path, collapsed-stack flamegraph export.
* :mod:`repro.obs.timeline` -- worker lanes/utilization, the wall-clock
  capacity breakdown, and the Chrome trace-event (Perfetto) export.
* :mod:`repro.obs.benchdiff` -- BENCH_obs.json history diffing behind the
  ``ucomplexity bench-diff`` regression gate.
"""

from repro import lazy_exports
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.metrics import registry as metrics_registry
from repro.obs.metrics import reset as reset_metrics
from repro.obs.metrics import snapshot as metrics_snapshot
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    active,
    current_span_id,
    deactivate,
    event,
    read_jsonl,
    span,
    traced,
    using,
)

#: Public name -> defining module, imported on first attribute access
#: (PEP 562).  ``metrics`` and ``trace`` above are what every stage uses;
#: the analysis modules (and ``fittrace``'s numpy) load only when asked.
_EXPORTS = {
    "Breakdown": "repro.obs.timeline",
    "DiffConfig": "repro.obs.benchdiff",
    "FitIteration": "repro.obs.fittrace",
    "FitTrace": "repro.obs.fittrace",
    "Rollup": "repro.obs.attrib",
    "RunReport": "repro.obs.report",
    "breakdown": "repro.obs.timeline",
    "chrome_trace": "repro.obs.timeline",
    "critical_path": "repro.obs.attrib",
    "diff_history": "repro.obs.benchdiff",
    "flamegraph_lines": "repro.obs.attrib",
    "gantt_lines": "repro.obs.timeline",
    "lanes": "repro.obs.timeline",
    "load_config": "repro.obs.benchdiff",
    "maybe_fit_trace": "repro.obs.fittrace",
    "render_timings_rows": "repro.obs.report",
    "rollup": "repro.obs.attrib",
    "serialization_summary": "repro.obs.attrib",
    "write_chrome_trace": "repro.obs.timeline",
    "write_flamegraph": "repro.obs.attrib",
}

__all__ = sorted([
    *_EXPORTS,
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "activate",
    "active",
    "current_span_id",
    "deactivate",
    "event",
    "metrics_registry",
    "metrics_snapshot",
    "read_jsonl",
    "reset_metrics",
    "span",
    "traced",
    "using",
])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
