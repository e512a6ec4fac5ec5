"""Stage boundaries: run pipeline steps with fault isolation.

A :class:`StageBoundary` owns the diagnostics of one pipeline run (usually
one component's measurement, or one dataset load).  Each step executes
under :meth:`StageBoundary.run`, which converts exceptions into structured
:class:`~repro.runtime.diagnostics.Diagnostic` records instead of letting
them propagate, so a batch caller can quarantine the faulty unit and keep
going.  ``strict=True`` restores fail-fast behavior (the original
exception propagates after being recorded).

When a tracer (:mod:`repro.obs.trace`) is active, every step additionally
runs under a ``stage.<name>`` span, and each diagnostic records the id of
the span it was emitted under, so failure reports can be paired with the
timing tree of the same run.

The stage modules themselves load on first use (DESIGN.md section 7);
:func:`load_pipeline` imports them all at once, for a process about to
fork workers.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Severity

T = TypeVar("T")

#: Default recovery hints per pipeline stage, used when the exception does
#: not carry a more specific one.
STAGE_HINTS: dict[str, str] = {
    "parse": "check the file is complete, UTF-8, and synthesizable HDL; "
             "re-run with --keep-going to quarantine it",
    "measure": "software metrics need at least one parseable source file",
    "elaborate": "check parameter bindings and generate bounds of the top "
                 "module; degenerate parameters can be overridden explicitly",
    "account": "re-run measure with --no-accounting, or provide minimal "
               "parameters for parameterized modules",
    "synthesize": "the specialization uses an unsupported construct; it is "
                  "skipped and the compounded index excludes it",
    "cache": "the on-disk cache entry was unreadable and has been evicted; "
             "the specialization was recomputed from source",
    "dataset": "fix or drop the offending CSV row; effort must be a "
               "positive finite number of person-months",
    "exec": "the worker pool degraded (a task hung, crashed, or exceeded "
            "its memory ceiling); results are still correct -- see the "
            "exec.* counters and DESIGN.md's supervision model",
    "fit": "the optimizer could not verify convergence; a declared "
           "fallback fitter produced the estimate",
}


#: The modules a measure task runs, parse through the rules of its lint audit.
PIPELINE_MODULES = (
    "repro.hdl.verilog",
    "repro.hdl.vhdl",
    "repro.hdl.metrics",
    "repro.elab.degeneracy",
    "repro.synth.lower",
    "repro.synth.report",
    "repro.flow.metrics",
    "repro.lint.hashing",
    "repro.lint.rules",
)


def load_pipeline() -> None:
    """Import every pipeline stage now.

    The pipeline loads lazily, on the first call that needs it.  A process
    about to fork workers (:func:`repro.exec.pool.run_pool`, the serve
    daemon at startup) calls this first, so each forked worker inherits
    the stages instead of importing them again for every batch.
    """
    for name in PIPELINE_MODULES:
        importlib.import_module(name)


class StageBoundary:
    """Collects diagnostics for one fault-isolated pipeline run."""

    def __init__(self, component: str | None = None, strict: bool = False) -> None:
        self.component = component
        self.strict = strict
        self.diagnostics: list[Diagnostic] = []

    # -- recording ----------------------------------------------------------

    def emit(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def note(
        self,
        stage: str,
        message: str,
        severity: Severity = Severity.INFO,
        hint: str | None = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                severity=severity,
                stage=stage,
                message=message,
                component=self.component,
                hint=hint,
                span_id=obs_trace.current_span_id(),
            )
        )

    @property
    def worst(self) -> Severity | None:
        worst: Severity | None = None
        for diag in self.diagnostics:
            if worst is None or diag.severity > worst:
                worst = diag.severity
        return worst

    # -- fault isolation ----------------------------------------------------

    def run(
        self,
        stage: str,
        fn: Callable[[], T],
        *,
        default: T | None = None,
        severity: Severity = Severity.ERROR,
        hint: str | None = None,
    ) -> T | None:
        """Run ``fn`` under this boundary.

        Returns its value, or ``default`` after recording a diagnostic when
        it raises.  Only ``Exception`` subclasses are captured; KeyboardInterrupt
        and friends always propagate, as does everything in strict mode.
        """
        sp = obs_trace.NULL_SPAN
        try:
            with obs_trace.span(
                f"stage.{stage}", component=self.component
            ) as sp:
                return fn()
        except Exception as exc:  # noqa: BLE001 -- fault isolation is the point
            self.diagnostics.append(
                Diagnostic.from_exception(
                    exc,
                    stage,
                    severity=severity,
                    component=self.component,
                    hint=hint or STAGE_HINTS.get(stage),
                    span_id=sp.span_id,
                )
            )
            if self.strict:
                raise
            return default

    @contextmanager
    def stage(
        self,
        stage: str,
        severity: Severity = Severity.ERROR,
        hint: str | None = None,
    ) -> Iterator[None]:
        """Context-manager form of :meth:`run` for multi-statement steps."""
        sp = obs_trace.NULL_SPAN
        try:
            with obs_trace.span(
                f"stage.{stage}", component=self.component
            ) as sp:
                yield
        except Exception as exc:  # noqa: BLE001
            self.diagnostics.append(
                Diagnostic.from_exception(
                    exc,
                    stage,
                    severity=severity,
                    component=self.component,
                    hint=hint or STAGE_HINTS.get(stage),
                    span_id=sp.span_id,
                )
            )
            if self.strict:
                raise
